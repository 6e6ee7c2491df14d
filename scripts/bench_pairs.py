"""Alternating benchmark pairs: a base revision against the working tree.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --workload holomorphic [--base HEAD]
        [--pairs 5] [--seconds 10] [--seed 7]

The base revision's committed files are exported into a temporary
directory (git archive, so the repository's own state is not touched),
and the working tree's files, tracked or not ignored, are copied beside
it, so both sides run from fresh trees at paths of one length (run in
the checkout itself, the working tree read about 1% faster in `wall_s`
than an identical base).  Each
pair runs `python3 perfbench/run.py` once in each tree, each tree with
its own perfbench/ and src/;
odd pairs run the base first and even pairs the working tree first, so a
drift of the machine's speed during the run falls on both sides.  The
script prints each end-to-end metric's median and quartiles over the base
runs and over the working-tree runs, the relative change of the medians,
and in how many pairs the working tree was better, in the direction
BENCHMARK.json gives.

Exit status 1 when any run fails or reports "correct": false, else 0.
Only the standard library is used; perfbench/ is read, never modified.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def export(rev: str, dest: Path) -> None:
    """Write the files of commit `rev` under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files under dest."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           check=True, capture_output=True).stdout.split(b"\0")
    for name in names:
        path = Path(os.fsdecode(name))
        # Deleted but still tracked files are listed too.
        if name and path.is_file():
            (dest / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / path)


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    """One perfbench run in `tree`; the parsed JSON of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def directions(root: Path) -> dict:
    """Metric name -> 'lower' or 'higher' from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summary(values: list) -> tuple:
    """Median and '[q1, q3]' of the values; one value is its own quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), f"[{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "perfbench" / "run.py").is_file():
        print("bench_pairs: no perfbench/run.py here; run from the repository root", file=sys.stderr)
        return 2
    better = directions(root)
    results = {"base": [], "work": []}
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base, work = Path(tmp) / "base", Path(tmp) / "work"
        export(args.base, base)
        copy_worktree(work)
        for p in range(args.pairs):
            sides = [("base", base), ("work", work)]
            for side, tree in sides if p % 2 == 0 else sides[::-1]:
                out = run_once(tree, args)
                correct &= out["correct"] is True
                results[side].append({k: v["value"] for k, v in out["metrics"].items()})
                print(f"pair {p + 1} {side}: correct {out['correct']}, "
                      + ", ".join(f"{k} {v:.6g}" for k, v in results[side][-1].items()), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          f"base {args.base} -> working tree, median [quartiles]")
    for name in results["base"][0]:
        b, bq = summary([r[name] for r in results["base"]])
        w, wq = summary([r[name] for r in results["work"]])
        rel = (w - b) / b if b else 0.0
        line = f"  {name:15s} {b:10.5g} {bq} -> {w:10.5g} {wq}  {rel:+7.1%}"
        if name in better:
            sign = 1.0 if better[name] == "lower" else -1.0
            wins = sum(sign * (rb[name] - rw[name]) > 0 for rb, rw in zip(results["base"], results["work"]))
            line += f"  better in {wins} of {args.pairs} pairs"
        print(line)
    print(f"correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
