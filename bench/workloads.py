"""Workloads of the slicebound benchmark: frozen inputs, goldens, units of work.

Every workload is a frozen pool of *units*.  A unit makes one or two calls
into the program through its public entry point ``slicebound.cli.main``,
with stdout captured and compared byte for byte against a golden output
recorded by ``make_goldens.py``.  Inputs are frozen so that every output has
a golden; the ``--seed`` of a run fixes the order in which the pool is
visited.

This module imports only the standard library at top level, so that the
set-up probe in ``run.py`` times the program's own import.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")

WORKLOADS = ("bounds-fuzz", "oracle-table", "oracle-mid")


class SetupError(RuntimeError):
    """The program or the benchmark's inputs cannot be found."""


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` call and the output it must print."""

    argv: tuple[str, ...]
    golden: str
    ops: int  # outputs checked: table rows, or 1


@dataclass(frozen=True)
class Unit:
    """The calls for one input; ``items`` counts the work they complete
    (fuzz cases, table rows or knots), ``knots`` and ``tight`` the knots the
    oracle evaluates and those among them with Delta = 0."""

    key: str
    calls: tuple[Call, ...]
    items: int
    knots: int
    tight: int


def import_program():
    """Import ``slicebound.cli`` from the checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "slicebound", "cli.py")):
        raise SetupError(f"no slicebound package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("slicebound.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"slicebound was imported from {cli.__file__}, not from {SRC}")
    return cli


def fresh_import():
    """Drop every ``slicebound`` module and import the package again, so that
    a round starts without state or wrappers left by an earlier one."""
    for name in [n for n in sys.modules if n == "slicebound" or n.startswith("slicebound.")]:
        del sys.modules[name]
    return import_program()


def load_goldens() -> dict:
    try:
        with open(GOLDENS, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SetupError(f"cannot read goldens: {exc}") from exc


def table_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def pool(name: str, goldens: dict, tiny: bool = False) -> list[Unit]:
    """The frozen units of one workload; ``tiny`` keeps one small unit."""
    if name == "bounds-fuzz":
        count = goldens["fuzz"]["count"]
        units = [
            Unit(f"fuzz-seed-{seed}", (Call(("fuzz", "--count", str(count), "--seed", seed), text, 1),),
                 count, 0, 0)
            for seed, text in goldens["fuzz"]["batches"].items()
        ]
    elif name == "oracle-table":
        text = goldens["table"]
        rows = table_rows(text)
        oracle = [r for r in rows if r["s_oracle"]]
        tight = [r for r in oracle if r["Delta"] == "0"]
        units = [Unit("table", (Call(("table", "--oracle"), text, len(rows)),),
                      len(rows), len(oracle), len(tight))]
    elif name == "oracle-mid":
        knots = goldens["mid"]
        if tiny:
            knots = [min(knots, key=lambda k: sum(json.loads(k["oracle_json"])["dims"].values()))]
        units = [
            Unit(k["key"], (Call(("bound", "--braid", k["braid"], "--oracle"), k["bound_json"], 1),
                            Call(("oracle", "--braid", k["braid"]), k["oracle_json"], 1)),
                 1, 1, int(k["delta"] == 0))
            for k in knots
        ]
    else:
        raise SetupError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return units[:1] if tiny else units


def ordered(units: list[Unit], seed: int) -> list[Unit]:
    """The pool in the order the seed gives; the same seed, the same order."""
    out = list(units)
    random.Random(seed).shuffle(out)
    return out


def setup(name: str, seed: int, tiny: bool = False):
    """Everything a run needs before its first unit: the program and its inputs."""
    cli = fresh_import()
    return cli, ordered(pool(name, load_goldens(), tiny), seed)


def _failed_ops(call: Call, code: int, out: str) -> int:
    """Outputs that differ from the golden: table rows one by one, else the
    whole output.  The goldens themselves were checked by ``make_goldens.py``."""
    if code == 0 and out == call.golden:
        return 0
    if call.argv[0] != "table":
        return call.ops
    expected, got = table_rows(call.golden), table_rows(out)
    bad = abs(len(expected) - len(got)) + sum(want != row for want, row in zip(expected, got))
    return min(max(bad, 1), call.ops)


def run_call(main, call: Call) -> tuple[float, int]:
    """Make one call; return its wall seconds and how many of its outputs
    failed (it raised, or they differ from the golden)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(call.argv))
    except Exception as exc:  # a failing op is counted, the run goes on
        print(f"{' '.join(call.argv)}: raised {exc!r}", file=sys.stderr)
        return perf_counter() - start, call.ops
    seconds = perf_counter() - start
    failed = _failed_ops(call, code, out.getvalue())
    if failed:
        print(f"{' '.join(call.argv)}: {failed} of {call.ops} outputs differ from the golden "
              f"(exit {code}); stderr: {err.getvalue().strip()[:300]}", file=sys.stderr)
    return seconds, failed
