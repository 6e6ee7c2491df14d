"""Command line front end for the experiment drivers.

Invocation:

    tmfejer <command> --config <path> [--out <path>] [--format csv|json] [--seed N]

with commands kernel, converge, voronovskaya, saturation, frostman and
counterexample.  Configs are flat key = value documents; `#` starts a
comment, list values sit in brackets:

    command = converge
    sequence = constant:0.5        # constant:c | geometric:r | harmonic:c | list:[...]
    orders = [1, 2, 4, 8]          # strictly increasing, all >= 1
    function = identity            # one | identity | mobius:c | pole:c | poly:[c0, c1, ...]
    seed = 0
    format = csv                   # csv | json
    out = results/converge.csv     # default stdout
    probes = 16                    # voronovskaya probe count
    trials = 50                    # voronovskaya random densities
    kernel_samples = 64            # kernel command: samples per angle axis

Unknown keys, duplicates and malformed lines are ParseError (exit 2);
value-level problems are ValidationError (exit 2); numerical failures
exit 3.  A report goes from the drivers to the file as columns.  Reruns
of an identical config on the same machine produce byte-identical files:
no timestamps, `%.17g` floats in CSV and float repr in JSON, sorted JSON
keys.  Every float cell is finite: an undefined or non-finite value
exits 2 in either format.  No command takes a grid setting, and a config
that names one fails as an unknown key: converge reads its norms off
the 8192-angle scans of its refined extrema, voronovskaya its gaps off
Taylor coefficients and counterexample its kernel column off the
constant's exact coefficients.  converge and saturation take no
coefficients: their errors are (B_n/B_n')(f' - B_n g'), g = P_+(conj(B_n) f),
from Taylor coefficients by an FFT on the circle or on a contour
|t| = R > 1; a function that needs more than CONTOUR_CAP contour points,
such as a pole closer than about 5e-3 to the circle, exits 3, and so
does a counterexample whose kernel column misses one by more than 1e-9.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tmfejer import __version__
from tmfejer.analysis import (
    _diagnose_orders,
    _voronovskaya_orders,
    cesaro_counterexample,
    convergence_experiment,
    saturation_check,
)
from tmfejer.blaschke import MODULUS_MARGIN, PointSequence, PoleProximity
from tmfejer.corpus import constant_one, identity_map, mobius, polynomial, simple_pole
from tmfejer.operators import CriticalPoint, fejer_kernel_angular
from tmfejer.quadrature import NoConvergence
from tmfejer.tm_basis import TMBasis

__all__ = [
    "ParseError",
    "ValidationError",
    "SequenceSpec",
    "ExperimentConfig",
    "parse_config",
    "run",
    "main",
]

COMMANDS = ("kernel", "converge", "voronovskaya", "saturation", "frostman", "counterexample")
GENERATOR_VERSION = "1"


class ParseError(Exception):
    """Structural problem in a config document (line-level)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ValidationError(Exception):
    """A parsed value violates a field constraint."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _parse_complex(text: str, field: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise ValidationError(field, f"not a number: {text!r}") from None
    # NaN fails every range check below, so it is refused here.
    if not cmath.isfinite(value):
        raise ValidationError(field, f"not a finite number: {text!r}")
    return value


def _parse_bracket_list(text: str, field: str) -> list[str]:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValidationError(field, f"expected a bracketed list, got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return []
    return [item.strip() for item in inner.split(",")]


@dataclass(frozen=True)
class SequenceSpec:
    """Named pole-sequence generator: constant, geometric, harmonic or list.

    geometric:r yields a_k = 1 - r^k and harmonic:c yields a_k = 1 - 1/(k+c),
    both for k = 1, 2, ...; materialization re-checks that every modulus
    stays inside the open disc with the standard margin.
    """

    kind: str
    parameter: tuple
    raw: str

    @staticmethod
    def parse(text: str) -> "SequenceSpec":
        return _parse_sequence(text)

    def materialize(self, count: int) -> PointSequence:
        if count < 1:
            raise ValidationError("orders", "need at least order 1")
        if self.kind == "constant":
            vals = [self.parameter[0]] * count
        elif self.kind == "geometric":
            r = self.parameter[0]
            vals = [1.0 - r ** k for k in range(1, count + 1)]
        elif self.kind == "harmonic":
            c = self.parameter[0]
            vals = [1.0 - 1.0 / (k + c) for k in range(1, count + 1)]
        else:
            if count > len(self.parameter):
                raise ValidationError(
                    "sequence", f"list holds {len(self.parameter)} points, need {count}"
                )
            vals = list(self.parameter[:count])
        try:
            return PointSequence(tuple(vals))
        except ValueError as exc:
            raise ValidationError("sequence", str(exc)) from None


def _parse_sequence(text: str) -> SequenceSpec:
    s = text.strip()
    if s.startswith("["):
        s = "list:" + s
    kind, sep, arg = s.partition(":")
    kind = kind.strip()
    if not sep:
        raise ValidationError("sequence", f"expected kind:parameter, got {text!r}")
    if kind == "constant":
        return SequenceSpec("constant", (_parse_complex(arg, "sequence"),), text.strip())
    if kind == "geometric":
        r = _parse_complex(arg, "sequence")
        if r.imag != 0 or not 0.0 < r.real < 1.0:
            raise ValidationError("sequence", "geometric ratio must satisfy 0 < r < 1")
        return SequenceSpec("geometric", (r.real,), text.strip())
    if kind == "harmonic":
        c = _parse_complex(arg, "sequence")
        if c.imag != 0 or c.real < 0.0:
            raise ValidationError("sequence", "harmonic offset must satisfy c >= 0")
        return SequenceSpec("harmonic", (c.real,), text.strip())
    if kind == "list":
        items = _parse_bracket_list(arg, "sequence")
        vals = tuple(_parse_complex(v, "sequence") for v in items)
        for v in vals:
            if abs(v) >= 1.0 - MODULUS_MARGIN:
                raise ValidationError("sequence", f"modulus of {v} not inside the open disc")
        return SequenceSpec("list", vals, text.strip())
    raise ValidationError("sequence", f"unknown generator {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str | None = None
    sequence: SequenceSpec = SequenceSpec("constant", (0.5 + 0j,), "constant:0.5")
    orders: tuple = (1, 2, 3, 4, 6, 8)
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    function: str = "identity"
    probes: int = 16
    trials: int = 50
    kernel_samples: int = 64


_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _parse_int(text: str, field: str, minimum: int) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise ValidationError(field, f"not an integer: {text!r}") from None
    if value < minimum:
        raise ValidationError(field, f"must be >= {minimum}, got {value}")
    return value


def _parse_orders(text: str) -> tuple:
    items = _parse_bracket_list(text, "orders")
    if not items:
        raise ValidationError("orders", "list is empty")
    orders = tuple(_parse_int(v, "orders", 1) for v in items)
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValidationError("orders", "must be strictly increasing")
    return orders


def parse_config(text: str) -> ExperimentConfig:
    """Strict parse of a key = value document into an ExperimentConfig."""
    fields: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"expected key = value, got {rawline.strip()!r}", lineno)
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ParseError(f"empty value for {key!r}", lineno)
        fields[key] = value

    kwargs: dict = {}
    if "command" in fields:
        if fields["command"] not in COMMANDS:
            raise ValidationError("command", f"unknown command {fields['command']!r}")
        kwargs["command"] = fields["command"]
    if "sequence" in fields:
        kwargs["sequence"] = _parse_sequence(fields["sequence"])
    if "orders" in fields:
        kwargs["orders"] = _parse_orders(fields["orders"])
    if "seed" in fields:
        kwargs["seed"] = _parse_int(fields["seed"], "seed", 0)
    if "out" in fields:
        kwargs["out"] = fields["out"]
    if "format" in fields:
        if fields["format"] not in ("csv", "json"):
            raise ValidationError("format", f"expected csv or json, got {fields['format']!r}")
        kwargs["format"] = fields["format"]
    if "function" in fields:
        _resolve_function(fields["function"])
        kwargs["function"] = fields["function"]
    if "probes" in fields:
        kwargs["probes"] = _parse_int(fields["probes"], "probes", 1)
    if "trials" in fields:
        kwargs["trials"] = _parse_int(fields["trials"], "trials", 1)
    if "kernel_samples" in fields:
        kwargs["kernel_samples"] = _parse_int(fields["kernel_samples"], "kernel_samples", 2)
    return ExperimentConfig(**kwargs)


def _resolve_function(name: str):
    s = name.strip()
    if s in ("one", "e0"):
        return constant_one()
    if s in ("identity", "w0"):
        return identity_map()
    kind, sep, arg = s.partition(":")
    if sep and kind == "mobius":
        alpha = _parse_complex(arg, "function")
        if abs(alpha) >= 1.0:
            raise ValidationError("function", "mobius parameter must be inside the disc")
        return mobius(alpha)
    if sep and kind == "pole":
        p = _parse_complex(arg, "function")
        if abs(p) <= 1.0:
            raise ValidationError("function", "pole must lie outside the closed disc")
        return simple_pole(p)
    if sep and kind == "poly":
        coeffs = [_parse_complex(v, "function") for v in _parse_bracket_list(arg, "function")]
        if not coeffs:
            raise ValidationError("function", "polynomial needs coefficients")
        return polynomial(coeffs, label=f"poly(deg {len(coeffs) - 1})")
    raise ValidationError("function", f"unknown function {name!r}")


def _execute(config: ExperimentConfig) -> dict[str, list]:
    """The report as columns in CSV order: name -> one value per row, as a
    list or, for the kernel's angles and values, a float array."""
    sequence = config.sequence.materialize(max(config.orders))
    if config.command == "kernel":
        m = config.kernel_samples
        angles = 2.0 * np.pi * np.arange(m) / m
        count = len(config.orders)
        values = [
            fejer_kernel_angular(TMBasis(sequence, int(n)), angles[:, None], angles[None, :])
            for n in config.orders
        ]
        return {
            "order": np.repeat(config.orders, m * m).tolist(),
            "x": np.tile(np.repeat(angles, m), count),
            "y": np.tile(angles, m * count),
            "value": np.concatenate(values, axis=None),
        }
    if config.command == "converge":
        f = _resolve_function(config.function)
        rows = convergence_experiment(f, sequence, config.orders)
    elif config.command == "voronovskaya":
        args = (config.probes, config.trials, config.seed)
        rows = _voronovskaya_orders(sequence, config.orders, *args)
    elif config.command == "saturation":
        rows = [r for n in config.orders for r in saturation_check(sequence, int(n))]
    elif config.command == "frostman":
        rows = _diagnose_orders(sequence, config.orders)
    elif config.command == "counterexample":
        rows = cesaro_counterexample(sequence.points, config.orders)
    else:
        raise ValidationError("command", f"unknown command {config.command!r}")
    dicts = [r.to_row() for r in rows]
    return {key: [d[key] for d in dicts] for key in dicts[0]}


# Per format: a float's slot in the row template and its encoder, and the
# encoder of every other value.
_ENCODERS = {
    "csv": ("%.17g", "%.17g".__mod__, str),
    "json": ("%r", float.__repr__, json.dumps),
}


def _column(column, fmt: str) -> tuple[str, list]:
    """One column's slot in the row template and the cells that fill it.

    A column is a list or a float array holding values of one type.  A
    float column that is mostly distinct is formatted by its slot in the
    `%` pass, from plain floats so that JSON keeps the float repr of numpy
    scalars too; any other column formats each distinct value once.
    Floats are told apart by their bits, which keeps 0.0 and -0.0 apart.
    A column that starts with a float or None is a float column, and a
    None (read as nan) or non-finite float anywhere in it raises
    ValueError, which names the last such cell.
    """
    slot, encode_float, encode = _ENCODERS[fmt]
    if not isinstance(column[0], (float, type(None))):
        memo = {v: encode(v) for v in dict.fromkeys(column)}
        return "%s", list(map(memo.__getitem__, column))
    values = np.array(column, dtype=np.float64)  # None becomes nan
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        what = f"Out of range float values are not {fmt.upper()} compliant"
        raise ValueError(f"{what}: {float(values[bad[-1]])!r}")
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(values):
        return slot, values.tolist()
    texts = np.array(list(map(encode_float, bits.view(np.float64).tolist())), dtype=object)
    return "%s", texts[inverse].tolist()


def _table(columns: list, fmt: str, pieces: list[str]) -> str:
    """The rows in order, each pieces[0] cell_0 pieces[1] ... cell_last pieces[-1].

    One `%` pass over the row template repeated once per row writes the
    whole table; see `_column` for how each column fills its slot.
    """
    slots, cells = zip(*(_column(c, fmt) for c in columns))
    escaped = [p.replace("%", "%%") for p in pieces]
    row = escaped[0] + "".join(map(str.__add__, slots, escaped[1:]))
    width, count = len(columns), len(cells[0])
    flat = [None] * (width * count)
    for j, column in enumerate(cells):
        flat[j::width] = column
    return (row * count) % tuple(flat)


def _render(config: ExperimentConfig, columns: dict[str, list]) -> str:
    """The report text: a header, then the rows as one `_table`.

    CSV floats are `%.17g`; JSON is laid out as json.dumps(doc,
    sort_keys=True, indent=2) would, floats as their repr.  A None or
    non-finite float raises ValueError in either format.  The JSON rows
    go into the dumped document in place of an empty list.
    """
    meta = {
        "tool": "tmfejer",
        "tool_version": __version__,
        "command": config.command,
        "sequence": config.sequence.raw,
        "generator_version": GENERATOR_VERSION,
        "orders": list(config.orders),
        "seed": config.seed,
        "function": config.function,
    }
    if config.format == "json":
        names = sorted(columns)
        keys = [f"      {json.dumps(k)}: " for k in names]
        pieces = ["    {\n" + keys[0]] + [",\n" + k for k in keys[1:]] + ["\n    },\n"]
        rows = _table([columns[k] for k in names], "json", pieces)
        doc = {"schema_version": "4", "metadata": meta, "rows": []}
        text = json.dumps(doc, sort_keys=True, indent=2)
        # rows[:-2] drops the separator after the last row.
        return text.replace('"rows": []', f'"rows": [\n{rows[:-2]}\n  ]', 1) + "\n"
    lines = [
        f"# tool: tmfejer {__version__}",
        f"# command: {config.command}",
        f"# sequence: {config.sequence.raw} (generator v{GENERATOR_VERSION})",
        f"# seed: {config.seed}",
        ",".join(columns),
    ]
    pieces = [""] + [","] * (len(columns) - 1) + ["\n"]
    return "\n".join(lines) + "\n" + _table(list(columns.values()), "csv", pieces)


def run(config: ExperimentConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    try:
        if config.command not in COMMANDS:
            raise ValidationError("command", f"missing or unknown command {config.command!r}")
        text = _render(config, _execute(config))
        if config.out is None or config.out == "-":
            sys.stdout.write(text)
        else:
            path = Path(config.out)
            if path.parent and not path.parent.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
        return 0
    except (ParseError, ValidationError, ValueError) as exc:
        print(f"tmfejer: error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, CriticalPoint, PoleProximity) as exc:
        print(f"tmfejer: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"tmfejer: error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then kept: parse_args
    leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="tmfejer",
        description="Experiments for Takenaka-Malmquist bases and positive summation kernels.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a key = value config document")
    parser.add_argument("--out", help="report path (default: config `out`, else stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="override config format")
    parser.add_argument("--seed", type=int, help="override config seed")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"tmfejer: error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except (ParseError, ValidationError) as exc:
        print(f"tmfejer: error: {exc}", file=sys.stderr)
        return 2

    if config.command is not None and config.command != args.command:
        print(
            f"tmfejer: error: command mismatch: config says {config.command!r},"
            f" command line says {args.command!r}",
            file=sys.stderr,
        )
        return 2
    updates: dict = {"command": args.command}
    if args.out is not None:
        updates["out"] = args.out
    if args.format is not None:
        updates["format"] = args.format
    if args.seed is not None:
        if args.seed < 0:
            print("tmfejer: error: seed: must be >= 0", file=sys.stderr)
            return 2
        updates["seed"] = args.seed
    config = dataclasses.replace(config, **updates)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
