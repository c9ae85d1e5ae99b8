"""Run one workload of the slicebound benchmark and print its metrics.

    python3 bench/run.py --workload bounds-fuzz --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each run is one process with one thread driving a closed loop: the next call
into the program starts when the previous one has returned.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics for
people, with the environment of the run.

``--trace 0`` measures the end-to-end metrics.  It visits the workload's
pool of units in the seed's order, round after round, until ``--seconds``
have passed and every call has run at least once.  ``items_per_s`` is the
items of one round over the sum of each call's mean time.  ``setup_s`` is
timed in fresh interpreters right after that.  Both timings are divided by
the machine's slowdown while they were taken, measured by ``speed.py``; a
``detail`` line before the result gives the run's slowdown and the raw
figures.

``--trace 1`` measures the per-layer metrics on one round of the pool (the
work is fixed, so exact counts compare across runs; ``--seconds`` is
unused).  It runs the round untraced, then traced, each on a fresh import of
the package, and reports the traced minus untraced wall time as the tracing
overhead.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that each emits exactly the metrics ``BENCHMARK.json`` names, with
their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import speed
import workloads
from tracing import COUNTS, SPANS, Tracer

BENCHMARK = os.path.join(workloads.ROOT, "BENCHMARK.json")
SETUP_PROBES = 5

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# The rate of items through each command, under the name it is known by.
RATE_NAMES = {
    "fuzz": "fuzz_cases_per_s",
    "table": "table_rows_per_s",
    "bound": "bound_oracle_knots_per_s",
    "oracle": "oracle_cmd_knots_per_s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run can emit, with its unit."""
    units: dict[str, str] = {}
    for span in SPANS:
        units.update({f"{span}.calls": "count", f"{span}.self_s": "s", f"{span}.share": "ratio"})
    units.update({name: unit for name, (unit, _) in COUNTS.items()})
    units["trace.overhead_s"] = "s"
    return units


# --- environment ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.exists(os.path.join(workloads.ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _src_digest() -> str:
    """Hash of the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(workloads.SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, workloads.SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": _cpu_model(),
            "seed": seed, "commit": _git_commit(), "src_sha256": _src_digest()}


# --- measurement ------------------------------------------------------------

_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
with speed.SpeedProbe(speed.SETUP_INTERVAL_S) as probe:
    start = time.perf_counter()
    import workloads
    workloads.setup(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    seconds = time.perf_counter() - start
print(seconds - sum(probe.samples), probe.slowdown())
"""


def setup_seconds(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median over fresh interpreters of importing the package and loading
    the workload's inputs, without the probe's own kernel time: raw, and
    divided by each interpreter's slowdown."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, workloads.BENCH_DIR, name, str(seed), str(int(tiny))],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise workloads.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, slowdown = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds / slowdown)
    return statistics.median(raw), statistics.median(scaled)


def measure(main, units, seconds: float):
    """Visit the units in order, round after round, until ``seconds`` have
    passed and each call has run at least once (one round when ``seconds``
    is 0).  Return the seconds of each call, keyed by unit and command, and
    the ops attempted and failed."""
    calls = sum(len(u.calls) for u in units)
    times: dict[tuple[str, str], list[float]] = {}
    attempted = failed = 0
    start = perf_counter()
    while True:
        for unit in units:
            for call in unit.calls:
                t, f = workloads.run_call(main, call)
                times.setdefault((unit.key, call.argv[0]), []).append(t)
                attempted, failed = attempted + call.ops, failed + f
            if perf_counter() - start >= seconds and len(times) == calls:
                return times, attempted, failed


def run_untraced(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    cli, units = workloads.setup(name, seed, tiny)
    with speed.SpeedProbe() as probe:
        times, attempted, failed = measure(cli.main, units, seconds)
    raw_setup_s, setup_s = setup_seconds(name, seed, tiny)
    slowdown = probe.slowdown()
    items = sum(u.items for u in units)
    by_command: dict[str, float] = {}
    for (_, command), ts in times.items():
        by_command[command] = by_command.get(command, 0.0) + statistics.mean(ts)
    raw_items_per_s = items / sum(by_command.values())
    rounds = min(map(len, times.values()))
    print(f"{name}: {len(units)} units, {rounds} or more rounds, "
          f"{sum(map(sum, times.values())):.1f} s in calls, machine slowdown {slowdown:.3f}")
    for command, busy in by_command.items():
        print(f"  {RATE_NAMES[command]} = {items * slowdown / busy:.6g} 1/s")
    print("detail " + json.dumps({"slowdown": slowdown, "kernel_s": probe.kernel_s(),
                                  "raw_items_per_s": raw_items_per_s, "raw_setup_s": raw_setup_s}))
    metrics = {
        "items_per_s": raw_items_per_s * slowdown,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def run_traced(name: str, seed: int, tiny: bool) -> dict:
    units = workloads.ordered(workloads.pool(name, workloads.load_goldens(), tiny), seed)
    items = sum(u.items for u in units)
    knots = sum(u.knots for u in units)
    tight = sum(u.tight for u in units)

    untraced, attempted, failed = measure(workloads.fresh_import().main, units, 0)
    cli = workloads.fresh_import()
    tracer = Tracer()
    tracer.install()
    traced, a, f = measure(cli.main, units, 0)
    attempted, failed = attempted + a, failed + f
    untraced_wall, wall = (sum(map(sum, times.values())) for times in (untraced, traced))
    if tracer.absent:
        print(f"  absent spans (not in the package): {', '.join(tracer.absent)}")

    values = tracer.counts(items, knots, tight)
    for span in tracer.calls:
        values[f"{span}.self_s"] = tracer.self_s[span]
        values[f"{span}.share"] = tracer.self_s[span] / wall
    values["trace.overhead_s"] = wall - untraced_wall
    metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items() if k in values}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    workloads.import_program()  # fails, before anything is printed, without the program
    print("env " + json.dumps(environment(seed)))
    result = run_traced(name, seed, tiny) if trace else run_untraced(name, seed, seconds, tiny)
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    return result


def smoke() -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    if expected[True] != per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the metrics a traced run defines")
    for name in names:
        for trace in (False, True):
            result = run(name, 42, 1, trace, tiny=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got.items() ^ expected[trace].items())}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, checking metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.smoke:
            return smoke()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
