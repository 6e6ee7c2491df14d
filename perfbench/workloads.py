"""Seeded case lists, one function per workload.

A case is one verified unit of work as a caller sees it: one pole
sequence, order and member pushed through the operators, or one CLI
command on one config with its report read back.  `run` holds only calls
into tmfejer and is what the benchmark times; `check` reads the outputs
back and returns failure messages.  Every workload makes the same number of
cases of each kind whatever the seed, so per-case cost varies with the
seed only through the pole values.

Each takes `lib`, a namespace holding the seven tmfejer modules, and
call through its module attributes at run time, so the tracer's wrappers
are the functions that run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


class ExitStatus(RuntimeError):
    """The CLI returned a non-zero exit status."""


def _disc_poles(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(count))
    return r * np.exp(2j * np.pi * rng.random(count))


def _circle(count: int, offset: float = 0.0) -> np.ndarray:
    return np.exp(2j * np.pi * (np.arange(count) + offset) / count)


def _eval_grid(order: int) -> np.ndarray:
    """The uniform grid of max(4096, 64 n) points, rounded up to a power of two."""
    size = 1 << (max(4096, 64 * order) - 1).bit_length()
    return _circle(size)


def _sup_on_circle(f) -> float:
    return float(np.abs(f.value(_circle(1 << 16))).max())


# --- operator workloads -------------------------------------------------------


def _operator_case(lib, poles, order: int, f, probes) -> Case:
    """coefficients_of, sigma_positive on the evaluation grid, delta at nodes and probes."""
    basis = lib.tm_basis.TMBasis(lib.blaschke.PointSequence(tuple(poles)), order)
    nodes = np.asarray(poles[:order])
    grid = _eval_grid(order)
    sup_f = _sup_on_circle(f)

    def run():
        ops = lib.operators
        c = ops.coefficients_of(f, basis)
        s = ops.sigma_positive(f, basis, grid, coeffs=c)
        dn = ops.delta(f, basis, nodes, coeffs=c)
        dp = ops.delta(f, basis, probes, coeffs=c)
        return s, dn, dp

    def check(out):
        s, dn, dp = out
        fails = checks.node_interpolation(dn, f.derivative(nodes))
        fails += checks.first_order_bound(nodes, probes, dp, f.derivative(probes), sup_f)
        if f.label == "one":
            fails += checks.sigma_one(s)
        elif f.label == "identity":
            fails += checks.sigma_identity(nodes, grid, s)
        return fails

    return Case(f"n={order} {f.label}", run, check)


def holomorphic(lib, rng: np.random.Generator, workdir: Path) -> list[Case]:
    members = lib.corpus.rational_corpus(12)
    sequences = [_disc_poles(rng, 128, 0.7) for _ in range(4)]
    radii = rng.uniform(0.3, 0.9, 16)
    probes = radii * np.exp(2j * np.pi * rng.random(16))
    cases = []
    # Six order-8, ten order-32 and four order-128 cases: the median falls
    # among order 32 and the 90th percentile among order 128.
    for order, count in ((8, 6), (32, 10), (128, 4)):
        # The constant and the identity carry the C4 checks at every order.
        picks = [0, 1] + list(rng.choice(np.arange(2, len(members)), count - 2, replace=False))
        for m in picks:
            poles = sequences[len(cases) % len(sequences)]
            cases.append(_operator_case(lib, poles, order, members[m], probes))
    return cases


def boundary(lib, rng: np.random.Generator, workdir: Path) -> list[Case]:
    members = lib.corpus.rational_corpus(12)
    data = [lib.quadrature.BoundaryGridFunction.from_callable(f.value, 4096) for f in members]
    sequences = [_disc_poles(rng, 32, 0.7) for _ in range(3)]
    probes = _circle(256, rng.random())
    rows_at = np.exp(2j * np.pi * rng.random(4))
    tgrid = _circle(4096)
    cases = []
    for order in (8, 12, 16, 20, 24, 28, 32) * 3:
        m = int(rng.integers(len(members)))
        f, fdata = members[m], data[m]
        seq = lib.blaschke.PointSequence(tuple(sequences[len(cases) % len(sequences)]))
        basis = lib.tm_basis.TMBasis(seq, order)

        def run(f=f, fdata=fdata, basis=basis):
            ops = lib.operators
            r = ops.sigma_rusak(fdata, basis, probes)
            p = ops.sigma_positive(f, basis, probes)
            k = ops.fejer_kernel(basis, tgrid[None, :], rows_at[:, None])
            return r, p, k

        def check(out):
            r, p, k = out
            return checks.routes_agree(r, p) + checks.kernel_rows(k)

        cases.append(Case(f"n={order} {f.label}", run, check))
    return cases


def near_circle(lib, rng: np.random.Generator, workdir: Path) -> list[Case]:
    """Poles approaching the circle: the grid size decides correctness here."""
    one, identity = lib.corpus.constant_one(), lib.corpus.identity_map()
    k = np.arange(1, 129)
    families = (
        (1.0 - 1.0 / (k + 1.0), (8, 16, 32, 64, 128)),  # harmonic:1
        (1.0 - 0.5**k, (8, 10, 12, 14, 16)),  # geometric:0.5
        (1.0 - 0.9**k, (32, 40, 48, 56, 64)),  # geometric:0.9
    )
    cases = []
    for radii, orders in families:
        poles = radii * np.exp(2j * np.pi * rng.random())
        for order in orders:
            basis = lib.tm_basis.TMBasis(lib.blaschke.PointSequence(tuple(poles[:order])), order)
            grid = _eval_grid(order)
            nodes = poles[:order]
            for f in (one, identity):

                def run(f=f, basis=basis, grid=grid):
                    return lib.operators.sigma_positive(f, basis, grid)

                def check(s, f=f, nodes=nodes, grid=grid):
                    if f is one:
                        return checks.sigma_one(s)
                    return checks.sigma_identity(nodes, grid, s)

                cases.append(Case(f"n={order} |a|max={radii[order - 1]:.4f} {f.label}", run, check))
    return cases


# --- CLI workloads ---------------------------------------------------------------

_MIXED = (0.5, 0.3 + 0.2j, -0.4, 0.2j, -0.15 - 0.35j, 0.45j, 0.25, -0.3 + 0.1j)
_BRACKET = (0.55, 0.4j, -0.45, 0.35 - 0.2j, 0.3 + 0.3j, -0.25j, 0.5, 0.2)

# The bundled configs under scripts/configs, copied so the workload does
# not move when they are edited: (command, sequence, other keys).
_BUNDLED = (
    ("kernel", "geometric:0.5", {"orders": (2, 5, 8), "kernel_samples": 64}),
    ("converge", _BRACKET, {"orders": (1, 2, 3, 4, 6, 8), "function": "identity"}),
    ("voronovskaya", _MIXED, {"orders": (4, 8), "probes": 16, "trials": 50, "seed": 2026}),
    ("saturation", _MIXED, {"orders": (2, 4, 8)}),
    ("frostman", "harmonic:1", {"orders": (1, 2, 4, 8, 12, 16)}),
    ("counterexample", "constant:0.5", {"orders": (1, 2, 3, 4, 6, 8), "format": "json"}),
)


def _poles_of(sequence, count: int) -> np.ndarray:
    """The CLI's generators, restated: a_k for k = 1..count."""
    if not isinstance(sequence, str):
        return np.asarray(sequence[:count], dtype=np.complex128)
    kind, _, arg = sequence.partition(":")
    k = np.arange(1, count + 1)
    c = float(arg)
    if kind == "constant":
        return np.full(count, c, dtype=np.complex128)
    if kind == "geometric":
        return (1.0 - c**k).astype(np.complex128)
    return (1.0 - 1.0 / (k + c)).astype(np.complex128)


def _config_text(command: str, sequence, keys: dict) -> str:
    if isinstance(sequence, str):
        seq = sequence
    else:
        seq = "list:[" + ", ".join(f"{a.real:.17g}{a.imag:+.17g}j" for a in map(complex, sequence)) + "]"
    lines = [f"command = {command}", f"sequence = {seq}"]
    for key, value in keys.items():
        if key == "format":
            continue
        text = "[" + ", ".join(map(str, value)) + "]" if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _verify_report(command: str, rows, poles_by_order: dict, keys: dict) -> list:
    if command == "kernel":
        return checks.check_kernel(rows, poles_by_order, keys.get("kernel_samples", 64))
    if command == "converge":
        return checks.check_converge(rows, poles_by_order, keys.get("function", "identity"))
    if command == "voronovskaya":
        return checks.check_voronovskaya(rows, poles_by_order, keys.get("probes", 16))
    if command == "saturation":
        return checks.check_saturation(rows, poles_by_order, members=10)
    if command == "frostman":
        return checks.check_frostman(rows, poles_by_order)
    return checks.check_counterexample(rows, poles_by_order)


def _cli_case(lib, workdir: Path, index: int, command: str, sequence, keys: dict, fmt: str) -> Case:
    cfg = workdir / f"case{index}.cfg"
    out = workdir / f"case{index}.{fmt}"
    cfg.write_text(_config_text(command, sequence, keys), encoding="utf-8")
    orders = keys["orders"]
    poles = _poles_of(sequence, max(orders))
    poles_by_order = {n: poles[:n] for n in orders}
    argv = [command, "--config", str(cfg), "--out", str(out), "--format", fmt]

    def run():
        status = lib.cli.main(argv)
        if status != 0:
            raise ExitStatus(f"{command} exited {status}")
        return out

    def check(path):
        rows = checks.read_report(path.read_text(encoding="utf-8"), fmt)
        return _verify_report(command, rows, poles_by_order, keys)

    return Case(f"{command}#{index} {fmt}", run, check)


def _variants(rng: np.random.Generator, command: str) -> list[tuple]:
    """Seeded configs per command: (sequence, keys); counts are fixed."""
    def poles(radius):
        return tuple(_disc_poles(rng, 8, radius))

    if command == "kernel":
        # |a| <= 0.5 and 48 samples resolve the rows (0.5^48 < 1e-13).
        return [(poles(0.5), {"orders": (2, 4, 8), "kernel_samples": 48}) for _ in range(4)]
    if command == "converge":
        # Moduli <= 0.55 keep every prefix product below the lower bracket's limit.
        return [
            (poles(0.55), {"orders": (1, 2, 4, 8), "function": fn})
            for fn in ("identity",) * 6 + ("one",) * 2
        ]
    if command == "voronovskaya":
        return [
            (poles(0.5), {"orders": (6,), "probes": 8, "trials": 10, "seed": int(rng.integers(10**6))})
            for _ in range(10)
        ]
    if command == "saturation":
        return [(poles(0.5), {"orders": (2, 4)}) for _ in range(4)]
    if command == "frostman":
        return [(f"harmonic:{rng.uniform(1.0, 4.0):.6f}", {"orders": (1, 2, 4, 8, 16)}) for _ in range(4)]
    return [(f"constant:{rng.uniform(0.2, 0.7):.6f}", {"orders": (1, 2, 4, 8)}) for _ in range(4)]


def _cli_workload(lib, rng: np.random.Generator, workdir: Path, commands: tuple) -> list[Case]:
    # Case costs in experiments fall in groups: frostman and CSV kernel or
    # counterexample variants (< 70 ms), converge variants with JSON kernels
    # (~110 ms), voronovskaya variants (~140 ms), two bundled outliers.  The
    # variant counts put the median inside the second group and the 90th
    # percentile inside the third, away from their edges.
    cases = []
    for command, sequence, keys in _BUNDLED:
        if command not in commands:
            continue
        specs = [(sequence, keys, keys.get("format", "csv"))]
        # JSON costs more to write than CSV, so the variants alternate formats
        # rather than draw them: the pass then does the same work for every seed.
        specs += [(s, k, ("csv", "json")[i % 2]) for i, (s, k) in enumerate(_variants(rng, command))]
        for seq, keys_, fmt in specs:
            cases.append(_cli_case(lib, workdir, len(cases), command, seq, keys_, fmt))
    return cases


def experiments(lib, rng: np.random.Generator, workdir: Path) -> list[Case]:
    commands = ("kernel", "converge", "voronovskaya", "frostman", "counterexample")
    return _cli_workload(lib, rng, workdir, commands)


def saturation(lib, rng: np.random.Generator, workdir: Path) -> list[Case]:
    return _cli_workload(lib, rng, workdir, ("saturation",))


# How strongly each workload's time follows the machine's speed, relative to
# the reference kernel in calibration.py: the slope of log pass time on log
# reference time.  Over ten 35-second runs per workload on a shared 2-vCPU
# host whose speed moved by up to 1.6 times, it was near 1 for experiments
# (Python-bound, like the kernel) and 0.55 to 0.6 for the two array-bound
# operator workloads, which a slower machine slows less.
SPEED_EXPONENT = {
    "holomorphic": 0.6,
    "boundary": 0.6,
    "experiments": 1.0,
    "near_circle": 0.6,
    "saturation": 1.0,
}

WORKLOADS = {
    "holomorphic": holomorphic,
    "boundary": boundary,
    "experiments": experiments,
    "near_circle": near_circle,
    "saturation": saturation,
}
