"""Repeat benchmark runs over seeds and report the spread of every metric.

    python3 bench/repeat.py --runs 10 [--first-seed 1] [--trace 0] [--out runs.json]

Runs ``bench/run.py`` once per workload of ``BENCHMARK.json`` and seed, each in its own process,
cycling over the workloads so that a change in machine load falls on all of
them.  For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, beside the metric's bound
from ``BENCHMARK.json``.  A spread is steady when it is below a third of the
bound.  It prints the same for the raw figures and the machine slowdown of
each run's ``detail`` line, which the result line leaves out.  With ``--trace 1`` it checks instead that the exact counts of the
traced runs are equal for every seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCHMARK, environment
from tracing import COUNTS
from workloads import BENCH_DIR, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result, with its ``detail`` line (untraced runs) under ``detail``."""
    cmd = [sys.executable, f"{BENCH_DIR}/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail "):
            result["detail"] = json.loads(line.split(" ", 1)[1])
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = run_once(name, seed, spec["run_seconds"], args.trace)
            results[name].append(result)
            values = {k: round(m["value"], 6) for k, m in result["metrics"].items()
                      if args.trace == 0 or k in COUNTS or k.startswith("trace.overhead")}
            print(f"{name} seed={seed} correct={result['correct']} {values}", flush=True)

    summary: dict[str, dict] = {}
    ok = True
    for name in names:
        runs = results[name]
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in runs)
        if args.trace:
            counts = [{k: m["value"] for k, m in r["metrics"].items() if k in COUNTS or k.endswith(".calls")}
                      for r in runs]
            same = all(c == counts[0] for c in counts)
            ok = ok and same
            print(f"{name}: exact counts {'equal' if same else 'DIFFER'} over {len(runs)} traced runs")
            continue
        summary[name] = {}
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            stats["steady"] = stats["spread"] < metric["bound"] / 3
            summary[name][metric["name"]] = stats
            print(f"{name:18} {metric['name']:15} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"bound {metric['bound']} {'steady' if stats['steady'] else 'NOT STEADY'}")
        for key in runs[0]["detail"]:
            stats = spread([r["detail"][key] for r in runs])
            summary[name][key] = stats
            print(f"{name:18} {key:15} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": environment(args.first_seed), "seeds": list(seeds), "trace": args.trace,
                       "summary": summary, "runs": results}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
