"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py [--runs 10] [--first-seed 0] [--workloads a,b]

Run from the root of a source checkout. For each workload it runs
``perfbench/run.py`` once per seed (``--runs`` seeds from ``--first-seed``)
with tracing off, and once more with tracing on at the first seed, each as
its own process, one after another. It prints, per end-to-end metric, the
median, the quartiles and their distance as a share of the median (the
spread) beside the metric's bound, the share of failed operations, and the
traced run's per-layer figures, as markdown. Raw results go to
``.perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# The first run of a checkout may build; every later one ends within 180 s.
TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.runs)
    raw, worst = {}, 0.0
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, spec["run_seconds"], 0) for s in seeds]
        traced = one_run(workload, seeds[0], spec["run_seconds"], 1)
        raw[workload] = {"seeds": list(seeds), "runs": runs, "traced": traced}
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n### {workload}: seeds {seeds[0]}-{seeds[-1]}, "
              f"correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
              f"failed share {sorted(shares)}\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            worst = max(worst, sp / m["bound"])
            print(f"| {m['name']} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {sp:.3f} | {m['bound']} |")
        print(f"\nPer-layer, traced run at seed {seeds[0]}:\n")
        print("| metric | unit | value |")
        print("|---|---|---|")
        for name, m in traced["metrics"].items():
            print(f"| {name} | {m['unit']} | {m['value']:.6g} |")
    out = ROOT / ".perfbench" / "reference.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\nlargest spread, as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
