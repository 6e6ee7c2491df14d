"""Config parsing, sequence generators, command execution, output formats."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tmfejer import __version__, analysis
from tmfejer.analysis import _diagnose_orders
from tmfejer.cli import (
    COMMANDS,
    ExperimentConfig,
    ParseError,
    SequenceSpec,
    ValidationError,
    _execute,
    _render,
    main,
    parse_config,
    run,
)
from tmfejer.corpus import standard_corpus
from tmfejer.operators import sigma_positive
from tmfejer.quadrature import NoConvergence
from tmfejer.tm_basis import TMBasis


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


MINIMAL = "command = frostman\nsequence = constant:0.5\n"


def assert_pinned_format(text, fmt):
    """JSON is json.dumps' layout; CSV numbers are integer text or `%.17g`."""
    if fmt == "json":
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        return
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    for cell in ",".join(lines[1:]).split(","):
        try:
            value = float(cell)
        except ValueError:
            continue  # a text cell, such as a saturation label
        assert cell.lstrip("-").isdigit() or cell == "%.17g" % value, cell


class TestParsing:
    def test_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.command == "frostman"
        assert cfg.orders == (1, 2, 3, 4, 6, 8)
        assert cfg.seed == 0
        assert cfg.format == "csv"
        assert cfg.function == "identity"
        assert (cfg.probes, cfg.trials, cfg.kernel_samples) == (16, 50, 64)

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
        cfg = parse_config(body + f"format = {fmt}\nout = {out}\n")
        assert run(cfg) == 0
        text = out.read_text()
        assert_pinned_format(text, fmt)
        if fmt == "json":
            doc = json.loads(text)
            assert doc["schema_version"] == "4"
            assert doc["metadata"]["command"] == cfg.command
            assert doc["rows"]
        else:
            lines = text.splitlines()
            assert lines[0].startswith("# tool:")
            assert any(ln.startswith("# seed:") for ln in lines[:4])
            header = next(ln for ln in lines if not ln.startswith("#"))
            assert "," in header

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bundled_kernel_format(self, tmp_path, fmt):
        out = tmp_path / f"kernel.{fmt}"
        cfg = ROOT / "scripts" / "configs" / "kernel.cfg"
        assert main(["kernel", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        assert_pinned_format(out.read_text(encoding="utf-8"), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_output_refused(self, tmp_path, monkeypatch, capsys, fmt, bad):
        def spoiled(sequence, orders):
            rows = _diagnose_orders(sequence, orders)
            return [dataclasses.replace(r, derivative_l1=bad) for r in rows]

        monkeypatch.setattr("tmfejer.cli._diagnose_orders", spoiled)
        cfg = write_cfg(tmp_path, MINIMAL + "orders = [1, 2]\n")
        out = tmp_path / f"r.{fmt}"
        assert main(["frostman", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 2
        assert not out.exists()
        assert f"not {fmt.upper()} compliant: {bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zeros_keep_their_sign(self, tmp_path, monkeypatch, fmt):
        # 0.0 == -0.0, yet each is written with its own sign.
        def signed(sequence, orders):
            rows = _diagnose_orders(sequence, orders)
            zeros = [-0.0 if r.order % 2 else 0.0 for r in rows]
            return [dataclasses.replace(r, argmin_angle=z) for r, z in zip(rows, zeros)]

        monkeypatch.setattr("tmfejer.cli._diagnose_orders", signed)
        cfg = write_cfg(tmp_path, MINIMAL + "orders = [1, 2, 3, 4]\n")
        out = tmp_path / f"r.{fmt}"
        assert main(["frostman", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        text = out.read_text()
        assert_pinned_format(text, fmt)
        if fmt == "json":
            angles = [r["argmin_angle"] for r in json.loads(text)["rows"]]
            assert [math.copysign(1.0, a) for a in angles] == [-1.0, 1.0, -1.0, 1.0]
        else:
            rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
            column = rows[0].index("argmin_angle")
            assert [r[column] for r in rows[1:]] == ["-0", "0", "-0", "0"]

    def test_rerun_is_byte_identical(self, tmp_path):
        body = (
            "command = voronovskaya\nsequence = list:[0.5,0.3]\norders = [2]\n"
            "probes = 2\ntrials = 2\nseed = 9\n"
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(parse_config(body + f"out = {first}\n")) == 0
        assert run(parse_config(body + f"out = {second}\n")) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_random_columns(self, tmp_path):
        body = (
            "command = voronovskaya\nsequence = list:[0.5,0.3]\norders = [2]\n"
            "probes = 2\ntrials = 2\n"
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(parse_config(body + f"seed = 1\nout = {a}\n")) == 0
        assert run(parse_config(body + f"seed = 2\nout = {b}\n")) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_voronovskaya_draws_its_densities_once(self, monkeypatch):
        # The orders of a report share one draw of unit densities and one
        # peak search; each order's rows equal its one-order call.
        config = parse_config(
            "command = voronovskaya\nsequence = list:[0.5,0.3,-0.2j,0.4]\norders = [2, 4]\n"
            "probes = 3\ntrials = 4\nseed = 9\n"
        )
        sequence = config.sequence.materialize(4)
        want = [
            r.to_row()
            for n in config.orders
            for r in analysis.voronovskaya_experiment(sequence, n, 3, 4, 9)
        ]
        calls, inner = [], analysis._unit_densities
        monkeypatch.setattr(analysis, "_unit_densities", lambda *a: calls.append(a) or inner(*a))
        got = _execute(config)
        assert len(calls) == 1
        assert got == {key: [row[key] for row in want] for key in want[0]}

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
        # The constant member has a vanishing floor, and still every cell is
        # a label or a finite number in both formats: no nan, null or NaN.
        columns = ["order", "label", "error_sup", "lower_bound"]

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        for fmt in ("csv", "json"):
            out = tmp_path / f"s.{fmt}"
            cfg = parse_config(
                "command = saturation\nsequence = list:[0.5,0.3]\norders = [1,2]\n"
                f"format = {fmt}\nout = {out}\n"
            )
            assert run(cfg) == 0
            text = out.read_text()
            if fmt == "json":
                rows = json.loads(text, parse_constant=reject)["rows"]
                cells = [[r[k] for k in columns] for r in rows]
                assert all(sorted(r) == sorted(columns) for r in rows)
            else:
                lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
                assert lines[0] == ",".join(columns)
                cells = [ln.split(",") for ln in lines[1:]]
            assert [r[1] for r in cells].count("one") == 2
            for order, _, error_sup, lower_bound in cells:
                assert all(math.isfinite(float(v)) for v in (order, error_sup, lower_bound))

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
    """Numbers agree to the golden tolerances; text exactly."""
    if isinstance(want, str):
        try:
            got, want = float(got), float(want)
        except ValueError:
            return got == want
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    return got == want


@pytest.mark.parametrize("command,report", BUNDLED, ids=[c for c, _ in BUNDLED])
def test_bundled_reports_match_results(tmp_path, command, report):
    # results/ is the golden copy of scripts/run_all_experiments.py's output.
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



POLE_CONVERGE = (
    "command = converge\nsequence = constant:0.4+0.3j\norders = [1, 3, 5, 7]\n"
    "function = pole:1.3\n"
)


BUNDLED_CONVERGE = (ROOT / "scripts" / "configs" / "converge.cfg").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "text",
    [
        BUNDLED_CONVERGE,
        (ROOT / "scripts" / "configs" / "counterexample.cfg").read_text(encoding="utf-8"),
        POLE_CONVERGE,
        BUNDLED_CONVERGE.replace("function = identity", "function = pole:1.6"),
        BUNDLED_CONVERGE.replace("function = identity", "function = mobius:0.3"),
    ],
    ids=["converge", "counterexample", "converge-pole", "bundled-pole", "bundled-mobius"],
)
def test_rows_agree_with_single_order_configs(text):
    # A single-order config materializes only n poles, and no row reads a
    # pole past its order, so the rows agree bit for bit.
    config = parse_config(text)
    many = _execute(config)
    for i, n in enumerate(config.orders):
        one = _execute(dataclasses.replace(config, orders=(n,)))
        assert one["order"] == [n]
        for key, column in one.items():
            assert column == [many[key][i]], (n, key)

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

    def test_calls_share_no_state(self, tmp_path):
        # The parser is built once per process; each call's flags apply to
        # that call alone.
        cfg = write_cfg(tmp_path, MINIMAL + "orders = [1,2]\n")
        first, second = tmp_path / "a.out", tmp_path / "b.out"
        argv = ["frostman", "--config", str(cfg), "--out"]
        assert main(argv + [str(first), "--format", "json", "--seed", "3"]) == 0
        assert main(argv + [str(second)]) == 0
        assert json.loads(first.read_text())["metadata"]["seed"] == 3
        assert "# seed: 0\n" in second.read_text()
        assert main(argv + [str(first), "--seed", "4"]) == 0
        assert "# seed: 4\n" in first.read_text()

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

        monkeypatch.setattr("tmfejer.cli._diagnose_orders", boom)
        cfg = write_cfg(tmp_path, MINIMAL)
        assert main(["frostman", "--config", str(cfg)]) == 3
        capsys.readouterr()

    def test_counterexample_near_the_circle(self, tmp_path):
        # a_16 = 1 - 2^-16: the kernel method's sup on the constant comes
        # from its exact coefficients, so it is one to rounding.
        text = "command = counterexample\nsequence = geometric:0.5\norders = [8, 10, 16]\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "r.json"
        argv = ["counterexample", "--config", str(cfg), "--out", str(out), "--format", "json"]
        assert main(argv) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["order"] for r in rows] == [8, 10, 16]
        for r in rows:
            assert abs(r["rusak_sup"] - 1.0) <= 1e-12
            assert abs(r["excess"] - r["closed_form"]) <= 1e-12

    def test_counterexample_kernel_column_off_one(self, tmp_path, monkeypatch, capsys):
        # A sup of sigma(1) that misses one by more than 1e-9 exits 3.
        inner = analysis._sigma_from_sums
        monkeypatch.setattr(analysis, "_sigma_from_sums", lambda *a: inner(*a) + 1e-6)
        cfg = write_cfg(tmp_path, "command = counterexample\nsequence = constant:0.5\n")
        out = tmp_path / "r.json"
        assert main(["counterexample", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert "misses 1 by 2.0" in capsys.readouterr().err

    def test_grid_n_is_an_unknown_key(self, tmp_path, capsys):
        # No command reads a grid size, so the key is refused like any other.
        for command in COMMANDS:
            text = f"command = {command}\nsequence = constant:0.5\ngrid_n = 1024\n"
            cfg = write_cfg(tmp_path, text)
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert "line 3: unknown key 'grid_n'" in capsys.readouterr().err
            assert not out.exists()

    def test_frostman_mean_off_the_order(self, tmp_path, capsys):
        # geometric:0.5 puts a_9 within 2^-9 of the circle; the 8192-angle
        # mean of |B_n'| then misses n by more than 1e-10.
        cfg = write_cfg(tmp_path, "command = frostman\nsequence = geometric:0.5\norders = [8, 9]\n")
        out = tmp_path / "r.csv"
        assert main(["frostman", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert "misses order 9" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["frostman", "converge"])
    def test_first_failing_order_named(self, tmp_path, capsys, command):
        # All three orders share one pass; the failure is still order 9's.
        cfg = write_cfg(tmp_path, "sequence = geometric:0.5\norders = [8, 9, 12]\n")
        out = tmp_path / "r.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert "misses order 9 " in capsys.readouterr().err

    def test_saturation_near_the_circle(self, tmp_path, capsys):
        # saturation reports no L1 column, so the drift of the mean of |B_n'|
        # that fails converge here is no reason for it to fail.
        text = "sequence = geometric:0.5\norders = [8, 9, 12]\nformat = json\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "r.json"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 3
        assert main(["saturation", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        members = [f for f in standard_corpus() if f.kind != "cauchy_transform"]
        sequence = SequenceSpec.parse("geometric:0.5").materialize(12)
        # An error sup independent of the zoom: a dense uniform scan.
        t = np.exp(2j * np.pi * np.arange(1 << 17) / (1 << 17))
        for n in (8, 9, 12):
            basis = TMBasis(sequence, n)
            got = [r for r in rows if r["order"] == n]
            assert [r["label"] for r in got] == [f.label for f in members]
            for r, f in zip(got, members):
                scan = float(np.abs(f.value(t) - sigma_positive(f, basis, t)).max())
                assert scan - 1e-12 <= r["error_sup"] <= scan + 1e-6, (n, f.label)
        assert [r["error_sup"] for r in rows if r["label"] == "identity"][1] == pytest.approx(
            1.1732304660387234, abs=1e-12
        )

    def test_saturation_on_rotated_poles_near_the_circle(self, tmp_path):
        # a_k = (1 - 2^-k) e^{i}: g' = 0 for the constant, so its error is 0
        # exactly, however near its angle S_n - (B_n/B_n') S_n' cancels.
        a = (1.0 - 0.5 ** np.arange(1, 39)) * np.exp(1j)
        points = ", ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in a)
        cfg = write_cfg(tmp_path, f"sequence = list:[{points}]\norders = [30, 38]\nformat = json\n")
        out = tmp_path / "r.json"
        assert main(["saturation", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        assert [r["error_sup"] for r in rows if r["label"] == "one"] == [0.0, 0.0]
        assert all(math.isfinite(v) for r in rows for v in r.values() if isinstance(v, float))

    def test_pole_too_close_to_the_circle(self, tmp_path, capsys):
        # A pole 1e-7 outside the circle needs a contour of about 1e9 points.
        cfg = write_cfg(
            tmp_path,
            "command = converge\nsequence = list:[0.5, 0.3]\norders = [2]\n"
            "function = pole:1.0000001\n",
        )
        out = tmp_path / "r.csv"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert "contour points" in capsys.readouterr().err

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


class TestWriter:
    """Exact bytes of a small synthetic report in both formats."""

    # signs and label repeat, value is distinct, angle is a float array.
    COLUMNS = {
        "order": [1, 2, 2, 3],
        "label": ['a"b', "plain", 'a"b', "tab\there"],
        "signs": [-0.0, 0.0, -0.0, 0.0],
        "value": [np.float64(0.1), -0.0, 0.0, 1.0 / 3.0],
        "angle": np.array([0.0, -0.0, 2.5, 1e-300]),
    }
    CSV = (
        f"# tool: tmfejer {__version__}\n"
        "# command: frostman\n"
        "# sequence: constant:0.5 (generator v1)\n"
        "# seed: 0\n"
        "order,label,signs,value,angle\n"
        '1,a"b,-0,0.10000000000000001,0\n'
        "2,plain,0,-0,-0\n"
        '2,a"b,-0,0,2.5\n'
        "3,tab\there,0,0.33333333333333331,1e-300\n"
    )
    ROWS = (
        ("0.0", '"a\\"b"', "1", "-0.0", "0.1"),
        ("-0.0", '"plain"', "2", "0.0", "-0.0"),
        ("2.5", '"a\\"b"', "2", "-0.0", "0.0"),
        ("1e-300", '"tab\\there"', "3", "0.0", "0.3333333333333333"),
    )

    @staticmethod
    def config(fmt):
        return ExperimentConfig(command="frostman", orders=(1, 2, 3), format=fmt)

    def test_csv_bytes(self):
        assert _render(self.config("csv"), self.COLUMNS) == self.CSV

    def test_json_bytes(self):
        names = ("angle", "label", "order", "signs", "value")
        rows = ",\n".join(
            "    {\n" + ",\n".join(f'      "{k}": {v}' for k, v in zip(names, row)) + "\n    }"
            for row in self.ROWS
        )
        want = (
            "{\n"
            '  "metadata": {\n'
            '    "command": "frostman",\n'
            '    "function": "identity",\n'
            '    "generator_version": "1",\n'
            '    "orders": [\n      1,\n      2,\n      3\n    ],\n'
            '    "seed": 0,\n'
            '    "sequence": "constant:0.5",\n'
            '    "tool": "tmfejer",\n'
            f'    "tool_version": "{__version__}"\n'
            "  },\n"
            f'  "rows": [\n{rows}\n  ],\n'
            '  "schema_version": "4"\n'
            "}\n"
        )
        assert _render(self.config("json"), self.COLUMNS) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "column",
        [[1.0, np.float64(np.inf)], np.array([2.0, np.inf]), [None, -math.inf, 0.5, 0.5]],
        ids=["scalar", "array", "with-none"],
    )
    def test_non_finite_float_named(self, fmt, column):
        with pytest.raises(ValueError, match=f"not {fmt.upper()} compliant: -?inf$"):
            _render(self.config(fmt), {"order": [1] * len(column), "value": column})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", [[None, 0.5], [0.5, None]], ids=["first", "last"])
    def test_none_cell_refused(self, fmt, column):
        # No driver leaves a cell undefined, so None is never written as text.
        with pytest.raises(ValueError, match=f"not {fmt.upper()} compliant: nan$"):
            _render(self.config(fmt), {"order": [1, 2], "value": column})
