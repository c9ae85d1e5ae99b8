"""Command-line entry points: bound, oracle, table, fuzz.

Exit codes: 0 success, 1 property violation / mismatch / internal
inconsistency, 2 parse or usage error.  Outputs are deterministic: the same
arguments produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Optional

from .bounds import bounds_report, classic_bennequin, genus_bound_knot, genus_bound_link, report_json_dict
from .diagram import ConsistencyError, Diagram, ValidationError, mirror, validate
from .lee_oracle import (
    DEFAULT_MAX_CROSSINGS,
    CrossingLimitError,
    build_slice,
    filtration_profile,
    profile_jumps,
    s_invariant,
)
from .notation import (
    BraidWord,
    ParseError,
    braid_closure,
    diagram_from_pd,
    parse_braid,
    parse_pd,
    random_braid,
    _splitmix64,
    _uniform,
)
from .seifert import aux_graph, betti1_components, oriented_resolution, seifert_graph
from .bounds import bound_Delta, bound_U


def _load_input(pd: Optional[str], braid: Optional[str]) -> tuple[Diagram, Optional[BraidWord]]:
    if (pd is None) == (braid is None):
        raise ParseError("provide exactly one of --pd or --braid")
    if braid is not None:
        w = parse_braid(braid)
        return braid_closure(w), w
    return diagram_from_pd(parse_pd(pd)), None


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


_BOUND_COLUMNS = [
    "U", "Delta", "s_lower", "s_upper", "s_exact",
    "genus_bound_new", "genus_bound_classic",
    "positive", "negative", "alternating", "braid_sign_condition",
    "connected", "is_knot", "s_oracle",
]


def cmd_bound(args: argparse.Namespace) -> int:
    d, w = _load_input(args.pd, args.braid)
    report = bounds_report(d, w)
    payload = report_json_dict(report)
    if args.oracle:
        payload["s_oracle"] = None
        if d.is_connected and d.is_knot and len(d.crossings) <= args.max_crossings:
            payload["s_oracle"] = s_invariant(d, args.max_crossings)
        elif d.is_connected and d.is_knot:
            print(
                f"oracle skipped: {len(d.crossings)} crossings exceeds --max-crossings={args.max_crossings}",
                file=sys.stderr,
            )
    if args.csv:
        flat = dict(payload)
        flags = flat.pop("flags")
        flat.update(flags)
        flat.setdefault("s_oracle", None)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_BOUND_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerow({k: _csv_cell(flat.get(k)) for k in _BOUND_COLUMNS})
        _write_out(buf.getvalue(), args.out)
    else:
        _write_out(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    d, _ = _load_input(args.pd, args.braid)
    slice_ = build_slice(d, args.max_crossings)
    profile = filtration_profile(d, slice_=slice_)
    j2, j1 = profile_jumps(profile)
    s = s_invariant(d, slice_=slice_)
    if s != j2 + 1 or s != j1 - 1:
        raise ConsistencyError(f"s = {s} disagrees with filtration jumps ({j2}, {j1})")
    payload = {
        "s": s,
        "s_min": s - 1,
        "jumps": [j2, j1],
        "profile": [[j, dim] for j, dim in profile.items()],
        "dims": {"-1": slice_.dim(-1), "0": slice_.dim(0), "1": slice_.dim(1)},
    }
    _write_out(json.dumps(payload, indent=2), args.out)
    return 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_TABLE_COLUMNS = ["name", "U", "Delta", "s_lower", "s_upper", "s_oracle", "known_s", "status", "detail"]


def run_table(rows, oracle: bool, max_crossings: int):
    """Evaluate knot-table rows; one result dict per input row, input order."""
    results = []
    for row in rows:
        name = (row.get("name") or "").strip()
        out = {key: "" for key in _TABLE_COLUMNS}
        out["name"] = name
        known_s: Optional[int] = None
        try:
            raw_known = (row.get("known_s") or "").strip()
            if raw_known:
                known_s = int(raw_known)
                if known_s % 2:
                    raise ValidationError(f"known_s = {known_s} is odd; s is an even integer")
            pd_field = (row.get("pd") or "").strip()
            d = diagram_from_pd(parse_pd(pd_field))
            validate(d)
            if not d.is_knot or not d.is_connected:
                raise ValidationError(f"table entries must be knots; got {d.components} components")
            u, delta = bound_U(d), bound_Delta(d)
            out["U"], out["Delta"] = u, delta
            out["s_lower"], out["s_upper"] = u - 2 * delta, u
            s_oracle: Optional[int] = None
            if oracle and len(d.crossings) <= max_crossings:
                s_oracle = s_invariant(d, max_crossings)
                out["s_oracle"] = s_oracle
        except (ParseError, ValidationError, ConsistencyError, CrossingLimitError) as exc:
            out["status"], out["detail"] = "ERROR", str(exc)
            results.append(out)
            continue
        if known_s is not None:
            out["known_s"] = known_s

        status, detail = "SANDWICH_OK", ""
        if s_oracle is not None and not (u - 2 * delta <= s_oracle <= u):
            status, detail = "MISMATCH", f"sandwich_violation: s={s_oracle} outside [{u - 2 * delta}, {u}]"
        elif s_oracle is not None and known_s is not None and s_oracle != known_s:
            status, detail = "MISMATCH", f"oracle_vs_known: oracle={s_oracle} known={known_s}"
        elif known_s is not None and not (u - 2 * delta <= known_s <= u):
            status, detail = "MISMATCH", f"known_outside_window: known={known_s} window=[{u - 2 * delta}, {u}]"
        elif delta == 0:
            status = "TIGHT"
        out["status"], out["detail"] = status, detail
        results.append(out)
    return results


def bundled_table_path() -> str:
    return str(files("slicebound").joinpath("data/knots.csv"))


def cmd_table(args: argparse.Namespace) -> int:
    path = args.infile or bundled_table_path()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    results = run_table(rows, oracle=args.oracle, max_crossings=args.max_crossings)
    if args.json:
        text = json.dumps(results, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_TABLE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in results:
            writer.writerow({k: _csv_cell(r[k]) for k in _TABLE_COLUMNS})
        text = buf.getvalue()
    _write_out(text, args.out)
    bad = [r for r in results if r["status"] in ("MISMATCH", "ERROR")]
    for r in bad:
        print(f"{r['name'] or '<unnamed>'}: {r['status']} {r['detail']}", file=sys.stderr)
    return 1 if bad else 0


@dataclass
class FuzzSummary:
    """Aggregated property-suite results; formats to a stable text block."""

    count: int
    strands: int
    max_length: int
    seed: int
    oracle_limit: Optional[int]
    cases: int = 0
    knots: int = 0
    links: int = 0
    split: int = 0
    checked: dict[str, int] = field(default_factory=dict)
    passed: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, prop: str, ok: bool, context: str) -> None:
        self.checked[prop] = self.checked.get(prop, 0) + 1
        if ok:
            self.passed[prop] = self.passed.get(prop, 0) + 1
        else:
            self.failures.append(f"FAIL property={prop} {context}")

    @property
    def ok(self) -> bool:
        return not self.failures

    def text(self) -> str:
        oracle = "off" if self.oracle_limit is None else f"<={self.oracle_limit}"
        lines = [
            f"fuzz: count={self.count} strands<={self.strands} max_length={self.max_length} "
            f"seed={self.seed} oracle={oracle}",
            f"cases: {self.cases}  knots: {self.knots}  links: {self.links}  split: {self.split}",
        ]
        for prop in sorted(self.checked):
            lines.append(f"  {prop}: {self.passed.get(prop, 0)}/{self.checked[prop]}")
        lines.extend(self.failures)
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"


_FUZZ_PROPS = (
    "structure", "mirror_identity", "betti_equals_delta", "parity",
    "dominance", "link_reduction", "tightness", "sandwich",
)


def run_fuzz(
    count: int,
    strands: int,
    max_length: int,
    seed: int,
    oracle_limit: Optional[int] = None,
) -> FuzzSummary:
    """Seeded property campaign over random braid closures.

    Words are drawn with strand counts in [2, strands] and lengths in
    [0, max_length]; all derived data is a pure function of the arguments.
    The sandwich against the exact oracle runs only for knot closures within
    ``oracle_limit`` crossings (None disables it).
    """
    if count < 0 or strands < 2 or max_length < 0:
        raise ValidationError("fuzz needs count >= 0, strands >= 2, max_length >= 0")
    summary = FuzzSummary(count, strands, max_length, seed, oracle_limit)
    master = _splitmix64(seed & ((1 << 64) - 1))
    for case in range(count):
        s_i = 2 if strands == 2 else 2 + _uniform(master, strands - 1)
        length = _uniform(master, max_length + 1)
        word_seed = next(master)
        w = random_braid(s_i, length, word_seed)
        context = f"case={case} word={s_i}:{list(w.letters)} seed={word_seed}"
        d = braid_closure(w)
        summary.cases += 1
        connected = d.is_connected
        if not connected:
            summary.split += 1
        if d.is_knot:
            summary.knots += 1
        else:
            summary.links += 1

        try:
            validate(d)
            circles = oriented_resolution(d)
            structure_ok = circles.count == s_i and d.writhe == sum(
                1 if k > 0 else -1 for k in w.letters
            )
        except (ValidationError, ConsistencyError):
            structure_ok = False
        summary.record("structure", structure_ok, context)

        u, delta = bound_U(d), bound_Delta(d)
        m = mirror(d)
        summary.record(
            "mirror_identity",
            bound_U(m) + u == 2 * delta and bound_Delta(m) == delta,
            context,
        )

        graph = seifert_graph(d)
        parts = betti1_components(aux_graph(graph, circles))
        summary.record(
            "betti_equals_delta",
            delta == sum(parts) + 1 - len(parts),
            context,
        )

        try:
            bounds_report(d, w)
            tightness_ok = True
        except ConsistencyError:
            tightness_ok = False
        summary.record("tightness", tightness_ok, context)

        if connected and d.is_knot:
            summary.record("parity", u % 2 == 0, context)
            gk = genus_bound_knot(d)
            summary.record("dominance", gk >= classic_bennequin(d), context)
            summary.record("link_reduction", genus_bound_link(d) == gk, context)
            if oracle_limit is not None and len(d.crossings) <= oracle_limit:
                s = s_invariant(d, oracle_limit)
                summary.record("sandwich", u - 2 * delta <= s <= u, context)
    return summary


def cmd_fuzz(args: argparse.Namespace) -> int:
    oracle_limit = args.max_crossings if args.oracle else None
    summary = run_fuzz(args.count, args.strands, args.max_length, args.seed, oracle_limit)
    _write_out(summary.text(), args.out)
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
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
    handlers = {
        "bound": cmd_bound,
        "oracle": cmd_oracle,
        "table": cmd_table,
        "fuzz": cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # ParseError, ValidationError, CrossingLimitError, contract violations
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
