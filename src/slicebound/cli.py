"""Command-line entry points: bound, oracle, table, fuzz.

Only argument parsing, input loading, output formatting and exit codes live
here; the table and fuzz engines and every oracle session are in ``checks``.
Exit codes: 0 success, 1 property violation / mismatch / internal
inconsistency, 2 parse or usage error (a negative ``--max-crossings`` too),
or a file that cannot be read or written.  Outputs are deterministic: the
same arguments produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from typing import Optional

from .bounds import bounds_report, report_json_dict
from .checks import TABLE_COLUMNS, bundled_table_path, knot_s, oracle_report, run_fuzz, run_table
from .diagram import ConsistencyError, Diagram
from .lee_oracle import DEFAULT_MAX_CROSSINGS, CrossingLimitError
from .notation import BraidWord, ParseError, braid_closure, parse_braid, parse_pd


def _load_input(pd: Optional[str], braid: Optional[str]) -> tuple[Diagram, Optional[BraidWord]]:
    if (pd is None) == (braid is None):
        raise ParseError("provide exactly one of --pd or --braid")
    if braid is not None:
        w = parse_braid(braid)
        return braid_closure(w), w
    return parse_pd(pd).diagram, None


def _write_out(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: _csv_cell(row[k]) for k in columns} for row in rows)
    return buf.getvalue()


def cmd_bound(args: argparse.Namespace) -> int:
    d, w = _load_input(args.pd, args.braid)
    report = bounds_report(d, w)
    payload = report_json_dict(report)
    if args.oracle:
        payload["s_oracle"] = None
        if d.is_knot:
            try:
                payload["s_oracle"] = knot_s(d, args.max_crossings)
            except CrossingLimitError as exc:
                print(f"oracle skipped: {exc}", file=sys.stderr)
    if args.csv:
        # one row: the report's fields in JSON order, flags inlined, s_oracle last
        flat = {k: v for k, v in payload.items() if k not in ("flags", "s_oracle")}
        flat.update(payload["flags"], s_oracle=payload.get("s_oracle"))
        _write_out(_csv_text(list(flat), [flat]), args.out)
    else:
        _write_out(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    d, _ = _load_input(args.pd, args.braid)
    _write_out(json.dumps(oracle_report(d, args.max_crossings), indent=2), args.out)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    path = args.infile or bundled_table_path()
    # utf-8-sig drops the byte-order mark that spreadsheet exports put before
    # the header, which would otherwise rename the first column
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.DictReader(fh))
    results = run_table(rows, args.max_crossings if args.oracle else None)
    text = json.dumps(results, indent=2) if args.json else _csv_text(TABLE_COLUMNS, results)
    _write_out(text, args.out)
    bad = [r for r in results if r["status"] in ("MISMATCH", "ERROR")]
    for r in bad:
        print(f"{r['name'] or '<unnamed>'}: {r['status']} {r['detail']}", file=sys.stderr)
    return 1 if bad else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    oracle_limit = args.max_crossings if args.oracle else None
    summary = run_fuzz(args.count, args.strands, args.max_length, args.seed, oracle_limit)
    _write_out(summary.text(), args.out)
    return 0 if summary.ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves it unchanged, and
    a fresh one per ``main`` call would leave ~250 cyclic objects behind."""
    parser = argparse.ArgumentParser(
        prog="slice-bound",
        description="Diagram-dependent bounds for the Rasmussen invariant, "
        "with an exact Lee-homology oracle for small knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pd", help="planar diagram text, e.g. 'X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]'")
        p.add_argument("--braid", help="braid word text, e.g. '2: [1,1,1]'")
        p.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS,
                       help="crossing limit for the exact oracle (default %(default)s)")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_bound = sub.add_parser("bound", help="evaluate bounds for one diagram")
    add_input_flags(p_bound)
    p_bound.add_argument("--oracle", action="store_true", help="also compute s exactly when size permits")
    fmt = p_bound.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV output")

    p_oracle = sub.add_parser("oracle", help="exact s computation with filtration profile")
    add_input_flags(p_oracle)

    p_table = sub.add_parser("table", help="evaluate a knot-table CSV")
    p_table.add_argument("--in", dest="infile", help="input CSV (header name,pd,known_s); default: bundled table")
    p_table.add_argument("--out", help="write output to this path instead of stdout")
    p_table.add_argument("--oracle", action="store_true", help="run the exact oracle per row when size permits")
    p_table.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p_table.add_argument("--json", action="store_true", help="JSON output instead of CSV")

    p_fuzz = sub.add_parser("fuzz", help="seeded random-braid property campaign")
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--strands", type=int, default=5, help="maximum strand count (default 5)")
    p_fuzz.add_argument("--max-length", type=int, default=12, help="maximum word length (default 12)")
    p_fuzz.add_argument("--seed", type=int, default=42)
    p_fuzz.add_argument("--oracle", action="store_true",
                        help="also check the sandwich with the exact oracle on small knot cases")
    p_fuzz.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p_fuzz.add_argument("--out", help="write summary to this path instead of stdout")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_crossings < 0:
        parser.error(f"--max-crossings must be >= 0, got {args.max_crossings}")
    handlers = {"bound": cmd_bound, "oracle": cmd_oracle, "table": cmd_table, "fuzz": cmd_fuzz}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        # ParseError, ValidationError, CrossingLimitError, contract violations,
        # and files that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
