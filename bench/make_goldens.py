"""Record the benchmark's frozen inputs and their golden outputs.

    python3 bench/make_goldens.py

Runs every input once through ``slicebound.cli.main`` and writes
``bench/goldens.json``.  The goldens in the repository were recorded at the
commit named in that file; regenerate them only when a change of output is
intended, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

from workloads import GOLDENS, ROOT, table_rows, import_program

# Forty `fuzz --count 100` batches from seed 42 on: short calls, so that each
# batch runs many times in a run and the machine's slow spells average out.
FUZZ_COUNT = 100
FUZZ_SEEDS = range(42, 82)

# Balanced-sign knot closures at 9-10 crossings with Delta > 0, where the
# d_in echelon dominates.  Cases are indices into `fuzz --seed 42`.
MID_CORPUS = (
    ("roadmap-10", "3: [-1,-2,2,-2,-1,1,-1,-1,1,2]", "ROADMAP baseline word, 10 crossings"),
    ("seed42-case29", "2: [1,1,-1,-1,1,1,-1,1,-1]", "pair with case 98: same crossing count, 3x cost apart"),
    ("seed42-case98", "2: [-1,-1,1,-1,-1,1,1,-1,1]", "pair with case 29"),
    ("seed42-case19", "4: [-3,3,-2,3,3,-3,-1,-2,2]", "9 crossings, n+/n- = 4/5, Delta 2"),
    ("seed42-case150", "4: [-2,3,3,1,-2,2,2,-3,-2]", "9 crossings, n+/n- = 5/4, Delta 2"),
)


def _call(main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit code {code}")
    return out.getvalue()


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    cli = import_program()
    fuzz = {}
    for seed in FUZZ_SEEDS:
        text = _call(cli.main, ["fuzz", "--count", str(FUZZ_COUNT), "--seed", str(seed)])
        if not text.endswith("PASS\n"):
            raise SystemExit(f"fuzz seed {seed} did not pass:\n{text}")
        fuzz[str(seed)] = text

    table = _call(cli.main, ["table", "--oracle"])
    for row in table_rows(table):
        if row["status"] in ("MISMATCH", "ERROR") or row["s_oracle"] != row["known_s"]:
            raise SystemExit(f"table row is not a golden: {row}")

    mid = []
    for key, braid, note in MID_CORPUS:
        bound = _call(cli.main, ["bound", "--braid", braid, "--oracle"])
        report = json.loads(bound)
        if not (report["Delta"] > 0 and report["flags"]["is_knot"] and report["s_oracle"] is not None):
            raise SystemExit(f"{key} is not a knot with Delta > 0 and an oracle value")
        mid.append({
            "key": key, "braid": braid, "note": note, "delta": report["Delta"],
            "bound_json": bound,
            "oracle_json": _call(cli.main, ["oracle", "--braid", braid]),
        })

    goldens = {
        "commit": _commit(),
        "fuzz": {"count": FUZZ_COUNT, "batches": fuzz},
        "table": table,
        "mid": mid,
    }
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDENS, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
