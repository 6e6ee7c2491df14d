"""Config parsing, sequence generators, command execution, output formats."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tmfejer.cli import (
    ExperimentConfig,
    ParseError,
    SequenceSpec,
    ValidationError,
    main,
    parse_config,
    run,
)
from tmfejer.quadrature import NoConvergence


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


MINIMAL = "command = frostman\nsequence = constant:0.5\n"


class TestParsing:
    def test_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.command == "frostman"
        assert cfg.orders == (1, 2, 3, 4, 6, 8)
        assert cfg.seed == 0
        assert cfg.format == "csv"
        assert cfg.grid_n is None
        assert cfg.function == "identity"

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# header\ncommand = frostman  # trailing\n\nsequence = constant:0.5\n"
        )
        assert cfg.command == "frostman"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("command = frostman\nsequence = constant:0.5\ngridN = 512\n")
        assert err.value.line == 3

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL + "command = converge\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_config("command frostman\n")

    def test_empty_value(self):
        with pytest.raises(ParseError):
            parse_config("command =\nsequence = constant:0.5\n")

    def test_missing_command_fails_at_run(self, capsys):
        cfg = parse_config("sequence = constant:0.5\n")
        assert cfg.command is None
        assert run(cfg) == 2
        capsys.readouterr()

    def test_unknown_command(self):
        with pytest.raises(ValidationError):
            parse_config("command = interpolate\nsequence = constant:0.5\n")

    def test_list_modulus_checked_at_parse(self):
        with pytest.raises(ValidationError):
            parse_config("command = frostman\nsequence = list:[0.5,1.5]\n")

    def test_unbracketed_list_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("command = frostman\nsequence = list:0.5,0.3\n")

    def test_orders_must_increase(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "orders = [4,2]\n")

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "grid_n = 1000\n")

    def test_bad_format(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "format = xml\n")

    def test_bad_function(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "function = tangent\n")

    def test_config_is_frozen(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(AttributeError):
            cfg.seed = 3  # type: ignore[misc]


class TestSequenceSpec:
    def test_constant(self):
        vals = SequenceSpec.parse("constant:0.5").materialize(3).as_array()
        assert np.allclose(vals, [0.5, 0.5, 0.5])

    def test_geometric(self):
        vals = SequenceSpec.parse("geometric:0.5").materialize(3).as_array()
        assert np.allclose(vals, [0.5, 0.75, 0.875])

    def test_harmonic(self):
        vals = SequenceSpec.parse("harmonic:1").materialize(3).as_array()
        assert np.allclose(vals, [0.5, 2.0 / 3.0, 0.75])

    def test_list_complex_entries(self):
        vals = SequenceSpec.parse("list:[0.5, 0.3+0.2j, -0.4]").materialize(3).as_array()
        assert np.allclose(vals, [0.5, 0.3 + 0.2j, -0.4])

    def test_bare_brackets_mean_list(self):
        vals = SequenceSpec.parse("[0.5, 0.3]").materialize(2).as_array()
        assert np.allclose(vals, [0.5, 0.3])

    def test_list_too_short_for_orders(self):
        spec = SequenceSpec.parse("list:[0.5]")
        with pytest.raises(ValidationError):
            spec.materialize(2)

    def test_geometric_ratio_range(self):
        with pytest.raises(ValidationError):
            SequenceSpec.parse("geometric:1.0")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SequenceSpec.parse("fibonacci:1")


class TestCommands:
    @pytest.mark.parametrize(
        "body",
        [
            "command = kernel\nsequence = constant:0.0\norders = [5]\nkernel_samples = 8\n",
            "command = converge\nsequence = list:[0.5,0.3]\norders = [1,2]\nfunction = identity\n",
            "command = voronovskaya\nsequence = list:[0.5,0.3]\norders = [2]\nprobes = 2\ntrials = 2\n",
            "command = saturation\nsequence = list:[0.5,0.3]\norders = [1,2]\n",
            "command = frostman\nsequence = constant:0.5\norders = [1,2,4]\n",
            "command = counterexample\nsequence = constant:0.5\norders = [1,2]\n",
        ],
        ids=["kernel", "converge", "voronovskaya", "saturation", "frostman", "counterexample"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_command_both_formats(self, tmp_path, body, fmt):
        out = tmp_path / f"out.{fmt}"
        cfg = parse_config(body + f"format = {fmt}\nout = {out}\ngrid_n = 1024\n")
        assert run(cfg) == 0
        text = out.read_text()
        if fmt == "json":
            doc = json.loads(text)
            assert doc["schema_version"] == "2"
            assert doc["metadata"]["command"] == cfg.command
            assert doc["rows"]
        else:
            lines = text.splitlines()
            assert lines[0].startswith("# tool:")
            assert any(ln.startswith("# seed:") for ln in lines[:4])
            header = next(ln for ln in lines if not ln.startswith("#"))
            assert "," in header

    def test_rerun_is_byte_identical(self, tmp_path):
        body = (
            "command = voronovskaya\nsequence = list:[0.5,0.3]\norders = [2]\n"
            "probes = 2\ntrials = 2\ngrid_n = 1024\nseed = 9\n"
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(parse_config(body + f"out = {first}\n")) == 0
        assert run(parse_config(body + f"out = {second}\n")) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_random_columns(self, tmp_path):
        body = (
            "command = voronovskaya\nsequence = list:[0.5,0.3]\norders = [2]\n"
            "probes = 2\ntrials = 2\ngrid_n = 1024\n"
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(parse_config(body + f"seed = 1\nout = {a}\n")) == 0
        assert run(parse_config(body + f"seed = 2\nout = {b}\n")) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_counterexample_frozen_values(self, tmp_path):
        out = tmp_path / "ce.json"
        cfg = parse_config(
            "command = counterexample\nsequence = constant:0.5\norders = [1,2]\n"
            f"format = json\nout = {out}\n"
        )
        assert run(cfg) == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows[0]["excess"] == pytest.approx(1.5, abs=1e-9)
        assert rows[1]["excess"] == pytest.approx(1.375, abs=1e-9)

    def test_kernel_matches_classical_closed_form(self, tmp_path):
        out = tmp_path / "k.json"
        cfg = parse_config(
            "command = kernel\nsequence = constant:0.0\norders = [5]\n"
            f"kernel_samples = 8\nformat = json\nout = {out}\n"
        )
        assert run(cfg) == 0
        for row in json.loads(out.read_text())["rows"]:
            u = row["y"] - row["x"]
            n = row["order"]
            if abs(np.sin(u / 2)) < 1e-9:
                expected = float(n)
            else:
                expected = np.sin(n * u / 2) ** 2 / (n * np.sin(u / 2) ** 2)
            assert row["value"] == pytest.approx(expected, abs=1e-10)

    def test_converge_constant_error_columns_vanish(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = parse_config(
            "command = converge\nsequence = list:[0.5,0.3]\norders = [1,2]\n"
            f"function = one\nformat = json\nout = {out}\n"
        )
        assert run(cfg) == 0
        for row in json.loads(out.read_text())["rows"]:
            assert row["error_sup"] < 1e-9
            assert row["error_l1"] < 1e-9

    def test_saturation_json_is_strict(self, tmp_path):
        # The constant member has a vanishing floor, so its ratio is
        # undefined: null in JSON, never a bare NaN.
        out = tmp_path / "s.json"
        cfg = parse_config(
            "command = saturation\nsequence = list:[0.5,0.3]\norders = [1,2]\n"
            f"grid_n = 1024\nformat = json\nout = {out}\n"
        )
        assert run(cfg) == 0

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
        assert [r["ratio"] for r in rows if r["label"] == "one"] == [None, None]
        assert all(r["ratio"] is not None for r in rows if r["label"] != "one")

    def test_stdout_when_no_out_path(self, capsys):
        cfg = parse_config("command = frostman\nsequence = constant:0.5\norders = [1]\n")
        assert run(cfg) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# tool:")

    def test_out_parent_directory_created(self, tmp_path):
        out = tmp_path / "fresh" / "f.csv"
        cfg = parse_config(MINIMAL + f"orders = [1]\nout = {out}\n")
        assert run(cfg) == 0
        assert out.exists()


ROOT = Path(__file__).resolve().parents[1]
BUNDLED = (
    ("kernel", "kernel.csv"),
    ("converge", "converge.csv"),
    ("voronovskaya", "voronovskaya.csv"),
    ("saturation", "saturation.csv"),
    ("frostman", "frostman.csv"),
    ("counterexample", "counterexample.json"),
)
# Report cells agree to GOLDEN_RTOL relative.  Cells that are cancellation
# residues of order-one quantities (an extremal gap of 1e-16, the error of
# a constant) carry no relative precision; GOLDEN_ATOL, about 45 ulp at
# unit scale, absorbs their rounding.
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL = 1e-14


def _same(got, want) -> bool:
    """Numbers agree to the golden tolerances, NaN with NaN; text exactly."""
    if isinstance(want, str):
        try:
            got, want = float(got), float(want)
        except ValueError:
            return got == want
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    return got == want


@pytest.mark.parametrize("command,report", BUNDLED, ids=[c for c, _ in BUNDLED])
def test_bundled_reports_match_results(tmp_path, monkeypatch, command, report):
    # results/ is the golden copy of scripts/run_all_experiments.py's output.
    monkeypatch.delenv("TMFEJER_GRID_N", raising=False)
    out = tmp_path / report
    cfg = ROOT / "scripts" / "configs" / f"{command}.cfg"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    got = out.read_text(encoding="utf-8")
    want = (ROOT / "results" / report).read_text(encoding="utf-8")
    if report.endswith(".json"):
        assert _same(json.loads(got), json.loads(want))
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        if w.startswith("#"):
            assert g == w
        else:
            assert _same(g.split(","), w.split(",")), (g, w)


class TestGridOverride:
    BODY = (
        "command = converge\nsequence = list:[0.5,0.3]\norders = [2]\n"
        "function = pole:1.02\n"
    )

    def test_env_grid_changes_output(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.delenv("TMFEJER_GRID_N", raising=False)
        assert run(parse_config(self.BODY + f"out = {a}\n")) == 0
        monkeypatch.setenv("TMFEJER_GRID_N", "1024")
        assert run(parse_config(self.BODY + f"out = {b}\n")) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_config_grid_wins_over_env(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.delenv("TMFEJER_GRID_N", raising=False)
        assert run(parse_config(self.BODY + f"grid_n = 2048\nout = {a}\n")) == 0
        monkeypatch.setenv("TMFEJER_GRID_N", "1024")
        assert run(parse_config(self.BODY + f"grid_n = 2048\nout = {b}\n")) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_records_env_grid(self, tmp_path, monkeypatch):
        for grid in (256, 8192):
            out = tmp_path / f"{grid}.json"
            monkeypatch.setenv("TMFEJER_GRID_N", str(grid))
            assert run(parse_config(self.BODY + f"format = json\nout = {out}\n")) == 0
            assert json.loads(out.read_text())["metadata"]["grid_n"] == grid

    def test_bad_env_value_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("TMFEJER_GRID_N", "1000")
        assert run(parse_config(self.BODY)) == 2
        capsys.readouterr()


class TestMainEntry:
    def test_success_and_overrides(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "command = frostman\nsequence = constant:0.5\norders = [1,2]\n"
        )
        out = tmp_path / "f.json"
        rc = main(
            ["frostman", "--config", str(cfg), "--out", str(out), "--format", "json", "--seed", "3"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["seed"] == 3

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert main(["converge", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["frostman", "--config", str(tmp_path / "nope.cfg")]) == 2
        capsys.readouterr()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = frostman\nbogus = 1\n")
        assert main(["frostman", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_unknown_command_argv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert main(["interpolate", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NoConvergence("forced")

        monkeypatch.setattr("tmfejer.cli.diagnose_sequence", boom)
        cfg = write_cfg(tmp_path, MINIMAL)
        assert main(["frostman", "--config", str(cfg)]) == 3
        capsys.readouterr()

    def test_voronovskaya_grid_too_coarse(self, tmp_path, capsys):
        # On 64 points the extremal member misses its bound by 1.4e-3.
        text = (ROOT / "scripts" / "configs" / "voronovskaya.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text + "grid_n = 64\n")
        out = tmp_path / "r.csv"
        assert main(["voronovskaya", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert "extremal value misses the bound" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,body",
        [
            ("converge", "sequence = constant:nan\n"),
            ("frostman", "sequence = list:[0.5, nanj]\n"),
            ("converge", "sequence = constant:0.5\nfunction = pole:nan\n"),
            ("frostman", "sequence = harmonic:nan\n"),
            ("converge", "sequence = constant:0.5\nfunction = mobius:nan\n"),
        ],
        ids=["constant", "list", "pole", "harmonic", "mobius"],
    )
    def test_non_finite_input_rejected(self, tmp_path, capsys, command, body):
        # NaN passes every range check, so the parser refuses it outright.
        cfg = write_cfg(tmp_path, f"command = {command}\norders = [1, 2]\n" + body)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert not (tmp_path / "r.csv").exists()
        capsys.readouterr()

    def test_out_not_writable(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file\n")
        target = blocker / "x.csv"
        assert main(["frostman", "--config", str(cfg), "--out", str(target)]) == 2
        capsys.readouterr()


def test_experiment_config_is_dataclass():
    cfg = ExperimentConfig(command="frostman", sequence=SequenceSpec.parse("constant:0.5"))
    assert cfg.orders == (1, 2, 3, 4, 6, 8)
