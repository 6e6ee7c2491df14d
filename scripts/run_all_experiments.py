#!/usr/bin/env python3
"""Run every bundled experiment config and collect reports under results/.

Usage: python3 scripts/run_all_experiments.py [--results DIR]

Each run is deterministic: on the same machine, rerunning overwrites the
reports with byte-identical content.  On another machine the last bits of
many floats can differ; tests/test_cli.py compares against results/ to a
tolerance.
"""

import argparse
import sys
import time
from pathlib import Path

from tmfejer.cli import main as tmfejer_main

CONFIGS = (
    ("kernel", "kernel.cfg", "kernel.csv"),
    ("converge", "converge.cfg", "converge.csv"),
    ("voronovskaya", "voronovskaya.cfg", "voronovskaya.csv"),
    ("saturation", "saturation.cfg", "saturation.csv"),
    ("frostman", "frostman.cfg", "frostman.csv"),
    ("counterexample", "counterexample.cfg", "counterexample.json"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    root = Path(__file__).resolve().parents[1]
    parser.add_argument("--results", default=str(root / "results"), help="report directory")
    args = parser.parse_args()

    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    failures = 0
    for command, cfg_name, out_name in CONFIGS:
        cfg = root / "scripts" / "configs" / cfg_name
        out = results / out_name
        start = time.perf_counter()
        rc = tmfejer_main([command, "--config", str(cfg), "--out", str(out)])
        elapsed = time.perf_counter() - start
        status = "ok" if rc == 0 else f"exit {rc}"
        print(f"{command:<15} {status:<8} {elapsed:6.2f}s  {out}")
        if rc != 0:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
