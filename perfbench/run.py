"""Benchmark for tmfejer: time per verified case, with a per-module trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds the workload's case list from the seed, sets up several
times (fresh import of tmfejer, inputs, one warm-up case), then runs whole
passes over the list in one closed loop with one caller until S seconds
have gone.  Every case's outputs are checked against the paper's
identities.  A reference kernel (calibration.py) runs between cases, and
every reported time is scaled by it to a nominal machine speed.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, and a line before it gives the unscaled times; with --trace 1
half the time runs untraced and half traced, and the last line carries the
per-layer metrics.  A line before the last gives the machine fingerprint.
Spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS may use at most one thread per core; set before numpy loads.
for _var in BLAS_THREAD_VARS:
    if not os.environ.get(_var, "").isdigit() or not 1 <= int(os.environ[_var]) <= NPROC:
        os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = Path(".perfbench_out")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "verified_ratio": "ratio",
    "trusted_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "operators.basis_evals_per_point" else "count"


def import_tmfejer(src: Path) -> SimpleNamespace:
    """Import the seven modules afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "tmfejer" or m.startswith("tmfejer.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"tmfejer.{m}") for m in spans.MODULES})
    if Path(lib.cli.__file__).resolve().parent != src / "tmfejer":
        raise ImportError(f"tmfejer imported from {lib.cli.__file__}, not from {src}")
    return lib


class Tally:
    """Outcome counts and per-case latencies over the measured passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.silent_wrong = 0
        self.latencies: list[float] = []
        self.messages: list[str] = []

    def record(self, case, latency: float, loud: str | None, fails: list) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if loud or fails:
            self.failed += 1
            self.silent_wrong += not loud
            self.messages.append(f"{case.label}: {loud or '; '.join(fails)}")


def run_case(case) -> tuple[float, str | None, list]:
    """Run one case; return its latency, a loud failure or None, and failed checks."""
    start = time.perf_counter()
    loud, fails = None, []
    try:
        out = case.run()
    except Exception as exc:  # a case that raises is a loud failure, not a crash
        loud = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if loud is None:
        try:
            fails = case.check(out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            fails = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return latency, loud, fails


def scale(measured: float, before: float, after: float, exponent: float = 1.0) -> float:
    """A measured time at nominal machine speed, from the reference times around it.

    `exponent` is how strongly the timed code follows the machine's speed
    relative to the reference kernel (workloads.SPEED_EXPONENT).
    """
    return measured * (2.0 * calibration.REF_SECONDS / (before + after)) ** exponent


def run_passes(cases, seconds: float, tally: Tally, exponent: float) -> tuple[list[float], list[float]]:
    """Whole passes until `seconds` have gone.

    Returns each pass's time in tmfejer, scaled and as measured.  Tally
    records scaled latencies; the reference kernel runs after every case.
    """
    scaled, measured = [], []
    before = calibration.reference()
    deadline = time.perf_counter() + seconds
    while not scaled or time.perf_counter() < deadline:
        scaled.append(0.0)
        measured.append(0.0)
        for case in cases:
            latency, loud, fails = run_case(case)
            after = calibration.reference()
            latency_scaled = scale(latency, before, after, exponent)
            before = after
            tally.record(case, latency_scaled, loud, fails)
            scaled[-1] += latency_scaled
            measured[-1] += latency
    return scaled, measured


def reference_median() -> float:
    """The reference kernel's time, as the median of three runs."""
    return float(np.median([calibration.reference() for _ in range(3)]))


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cpu": cpu,
        "nproc": NPROC,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    if not (src / "tmfejer" / "__init__.py").is_file():
        print(f"perfbench: no tmfejer sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    make_cases = workloads.WORKLOADS[args.workload]
    exponent = workloads.SPEED_EXPONENT[args.workload]

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setups, setups_measured = [], []
        for _ in range(SETUP_REPEATS):
            before = reference_median()
            start = time.perf_counter()
            lib = import_tmfejer(src)
            cases = make_cases(lib, np.random.default_rng(args.seed), Path(tmp))
            run_case(cases[0])
            setups_measured.append(time.perf_counter() - start)
            setups.append(scale(setups_measured[-1], before, reference_median()))

        tally = Tally()
        if args.trace:
            plain, _ = run_passes(cases, args.seconds / 2, tally, exponent)
            tracer = spans.Tracer()
            tracer.install(lib)
            traced, _ = run_passes(cases, args.seconds / 2, tally, exponent)
            metrics = tracer.layer_metrics(len(traced))
            metrics["trace.overhead_s"] = float(np.median(traced) - np.median(plain))
            tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
            units = {name: layer_unit(name) for name in metrics}
        else:
            walls, walls_measured = run_passes(cases, args.seconds, tally, exponent)
            lat_ms = np.asarray(tally.latencies) * 1e3
            metrics = {
                "setup_s": float(np.median(setups)),
                "wall_s": float(np.median(walls)),
                "case_p50_ms": float(np.percentile(lat_ms, 50)),
                "case_p90_ms": float(np.percentile(lat_ms, 90)),
                "verified_ratio": 1.0 - tally.failed / tally.attempted,
                "trusted_ratio": 1.0 - tally.silent_wrong / tally.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            print("unscaled " + json.dumps({
                "setup_s": float(np.median(setups_measured)),
                "wall_s": float(np.median(walls_measured)),
                "scale": float(np.median(walls) / np.median(walls_measured)),
            }))

    for message in tally.messages[:20]:
        print(f"failed case {message}", file=sys.stderr)
    print(f"cases per pass {len(cases)}, attempted {tally.attempted}, failed {tally.failed}, "
          f"silent wrong {tally.silent_wrong}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
