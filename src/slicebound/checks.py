"""The table and fuzz engines behind the ``table`` and ``fuzz`` commands,
and the two ways any command reaches the oracle: ``knot_s``, for the engines
and ``bound --oracle``, which runs it on ``simplify(d)``, and
``oracle_report``, for the ``oracle`` command, which never simplifies.

Side rule: ``_oracle_side`` picks whichever of the diagram and its mirror
has fewer negative crossings (the diagram itself on a tie), and both
``_drawn_s`` (behind ``knot_s``) and ``oracle_report`` build the slice of
that side.  The mirror's filtered Lee complex is the dual of the diagram's,
with degree ``i -> -i`` and grading ``q -> -q`` (Lee, arXiv
math/0210213), so ``s(mK) = -s(K)`` (Rasmussen, arXiv math/0402131) and
every field of the ``oracle`` payload maps back exactly: ``_drawn_s``
negates ``s``, and ``oracle_report`` also swaps the C^-1 and C^1
dimensions and reads the profile through
``dim F^j H^0(D) = 2 - dim F^{2-j} H^0(mD)``.  The bounds and the window
stay on the diagram as given.

Both engines and ``oracle_report`` return plain data for ``cli`` to format.
Whether the oracle refuses a diagram is decided in ``lee_oracle`` alone: a
refused table row leaves ``s_oracle`` blank and a refused fuzz case skips
the sandwich.

Garbage collection: a Lee slice and the work on it allocate tens of
thousands of tuples, lists and dicts and hold no reference cycle, so
reference counting frees all of them, yet CPython's cyclic collector starts
every 700 net allocations and walks the live ones: 79 collections inside
``build_slice`` in one ``oracle-mid`` round, 768 in one oracle call on a
14-crossing word.  ``_drawn_s`` and ``oracle_report`` therefore run a slice's
whole life, from ``build_slice`` to its last read, inside
``_collector_paused()``, and release the slice before the block ends, so a
collection that starts once the block ends finds no slice to walk.  No
other code pauses the collector.  ``gc.disable`` is process-wide: when two
threads run oracle calls at once, the first to finish turns the collector
back on while the other's slice is live, which costs time, never
correctness.

A paused loop almost never reaches a full (generation 2) collection, and
only a full collection empties CPython's free lists of tuples, lists and
dicts, so the peak RSS of a long in-process run crept: 150 ``table
--oracle`` calls in one process read 18.53 MB after call 20 and 19.40 MB
after call 150.  So every ``_FULL_COLLECTION_PERIOD``-th (100th) block
that found the collector on and ends without an exception runs one
``gc.collect()`` after ``gc.enable()``, once its slice is released.  That
puts back the full collections CPython makes on its own when nothing
pauses it, and the same loop reads 17.68 MB after call 10 and after call
150.  A younger collection does not help: with a generation 1 collection
every 20 blocks instead, the loop still crept from 17.95 to 19.20 MB.  A
block that ends on an exception is not counted, since the traceback still
holds its frames and whatever slice they reference.  The count is one
module-level variable, as the collector is process-wide; a lost update
from two threads only shifts the schedule.  A full collection walks every
tracked object of the process: about 15k objects and 2.5 ms in a
benchmark process, under 1% of ``table --oracle`` time (36 slices in about
140 ms) at one per 100 slices.  Its cost grows with the heap of the
program that hosts the oracle.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Iterator, Optional

from .bounds import bound_Delta, bound_U, bounds_report, classic_bennequin, genus_bound_knot, genus_bound_link
from .diagram import ConsistencyError, Diagram, ValidationError, mirror, simplify, validate
from .lee_oracle import CrossingLimitError, build_slice, filtration_profile, profile_jumps, s_invariant
from .notation import ParseError, braid_closure, parse_pd, random_braids
from .seifert import aux_graph, betti1_components

TABLE_COLUMNS = ["name", "U", "Delta", "s_lower", "s_upper", "s_oracle", "known_s", "status", "detail"]
_FULL_COLLECTION_PERIOD = 100

_paused_exits = 0  # blocks ended normally with the collector on, since the last full collection


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Turn CPython's cyclic garbage collector off for the block, and back
    on when it ends, also on an exception; a collector that was already off
    stays off, and the thresholds are left alone.  Every
    ``_FULL_COLLECTION_PERIOD``-th block that found the collector on and ends
    normally then runs one full collection.  Wrap a slice's whole life in it
    and release the slice inside (module docstring, Garbage collection)."""
    global _paused_exits
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
    if was_enabled:
        _paused_exits += 1
        if _paused_exits >= _FULL_COLLECTION_PERIOD:
            _paused_exits = 0
            gc.collect()


def bundled_table_path() -> str:
    return str(files("slicebound").joinpath("data/knots.csv"))


def _oracle_side(d: Diagram) -> tuple[Diagram, int]:
    """The diagram the oracle runs on for ``d``, and the sign of ``s``
    between the two: ``(mirror(d), -1)`` when ``d`` has more negative than
    positive crossings, else ``(d, 1)`` with ``d`` itself, so a tie keeps
    ``d``.

    The mirror has the same crossing count and its slice is the dual, so
    the two differentials together keep their entries, but C^-1 sits on
    C(n, n_minus - 1) cube vertices, fewer on the side with fewer negative
    crossings, and C^-2 on no more; their size sets the cost of streaming
    and verifying the ``d_-2`` relations.
    """
    if d.n_minus > d.n_plus:
        return mirror(d), -1
    return d, 1


def _drawn_s(d: Diagram, limit: int) -> int:
    """Rasmussen invariant of the knot ``d`` presents, computed on ``d`` as
    drawn: the slice of ``_oracle_side(d)`` lives inside ``_collector_paused``,
    and ``s`` times its sign is returned, as ``s(mK) = -s(K)``."""
    side, sign = _oracle_side(d)
    with _collector_paused():
        return sign * s_invariant(build_slice(side, limit))


def knot_s(d: Diagram, limit: int) -> int:
    """Rasmussen invariant of the knot ``d`` presents, computed by
    ``_drawn_s`` on ``simplify(d)``: ``s`` is a knot invariant, so the oracle
    may run on any diagram of the knot, and this one has at most as many
    crossings (``d`` itself when it has no kink or bigon).  ``limit``
    applies to the simplified diagram: a refusal concerns it, not ``d``."""
    return _drawn_s(simplify(d), limit)


def _checked_payload(s: int, profile: dict[int, int], dims: dict[str, int]) -> dict:
    """The ``oracle`` payload of ``s``, its profile and dimensions; raises
    ``ConsistencyError`` when ``s`` disagrees with the profile's jumps."""
    j2, j1 = profile_jumps(profile)
    if s != j2 + 1:
        raise ConsistencyError(f"s = {s} disagrees with filtration jumps ({j2}, {j1})")
    return {
        "s": s,
        "s_min": s - 1,
        "jumps": [j2, j1],
        "profile": [[j, dim] for j, dim in profile.items()],
        "dims": dims,
    }


def oracle_report(d: Diagram, limit: int) -> dict:
    """The ``oracle`` command's payload for ``d`` as given, never simplified:
    ``s``, ``s_min``, the filtration jumps, the profile and the dimensions
    of C^-1, C^0 and C^1.

    The slice of ``_oracle_side(d)`` is built, read and released inside
    ``_collector_paused``, and its own payload is checked.  When that side
    is the mirror, the payload is mapped back to ``d`` by duality (module
    docstring): ``s`` is negated, the C^-1 and C^1 dimensions swap, and at
    each grading ``j`` of C^0, the mirror's gradings negated,
    ``dim F^j H^0(d) = 2 - dim F^{2-j} H^0(mirror(d))``, where ``F^k`` is 0
    above the mirror's top grading; the jumps are re-read from the mapped
    profile and checked again.  Raises ``ConsistencyError`` when ``s``
    disagrees with the profile's jumps, and ``CrossingLimitError`` when
    ``d`` exceeds ``limit``.
    """
    side, sign = _oracle_side(d)
    with _collector_paused():
        slice_ = build_slice(side, limit)
        profile = filtration_profile(slice_)
        s = s_invariant(slice_)
        dims = {"-1": slice_.dim(-1), "0": slice_.dim(0), "1": slice_.dim(1)}
        del slice_  # freed inside the pause: no collection walks it
    payload = _checked_payload(s, profile, dims)
    if sign == 1:
        return payload
    levels = sorted(profile)  # ascending: F^k reads at the first level >= k
    mapped = {j: 2 - next((profile[k] for k in levels if k >= 2 - j), 0)
              for j in sorted((-k for k in profile), reverse=True)}
    return _checked_payload(-s, mapped, {"-1": dims["1"], "0": dims["0"], "1": dims["-1"]})


def run_table(rows, oracle_limit: Optional[int]):
    """Evaluate knot-table rows; one result dict per input row, input order.

    The window and the tightness decision are ``bounds_report``'s; the
    oracle runs at ``oracle_limit`` crossings (None disables it).
    """
    results = []
    for row in rows:
        name = (row.get("name") or "").strip()
        out = {key: "" for key in TABLE_COLUMNS}
        out["name"] = name
        known_s: Optional[int] = None
        s_oracle: Optional[int] = None
        try:
            raw_known = (row.get("known_s") or "").strip()
            if raw_known:
                try:
                    known_s = int(raw_known)
                except ValueError:
                    raise ValidationError(f"known_s = {raw_known!r} is not an integer") from None
                if known_s % 2:
                    raise ValidationError(f"known_s = {known_s} is odd; s is an even integer")
            d = parse_pd((row.get("pd") or "").strip()).diagram
            if not d.is_knot:
                raise ValidationError(f"table entries must be knots; got {d.components} components")
            report = bounds_report(d)
            lo, hi = report.s_lower, report.s_upper
            out["U"], out["Delta"], out["s_lower"], out["s_upper"] = report.U, report.Delta, lo, hi
            if oracle_limit is not None:
                with suppress(CrossingLimitError):  # a refused row leaves s_oracle blank
                    out["s_oracle"] = s_oracle = knot_s(d, oracle_limit)
        except (ParseError, ValidationError, ConsistencyError) as exc:
            out["status"], out["detail"] = "ERROR", str(exc)
            results.append(out)
            continue
        if known_s is not None:
            out["known_s"] = known_s

        status, detail = "SANDWICH_OK", ""
        if s_oracle is not None and not (lo <= s_oracle <= hi):
            status, detail = "MISMATCH", f"sandwich_violation: s={s_oracle} outside [{lo}, {hi}]"
        elif s_oracle is not None and known_s is not None and s_oracle != known_s:
            status, detail = "MISMATCH", f"oracle_vs_known: oracle={s_oracle} known={known_s}"
        elif known_s is not None and not (lo <= known_s <= hi):
            status, detail = "MISMATCH", f"known_outside_window: known={known_s} window=[{lo}, {hi}]"
        elif report.s_exact is not None:
            status = "TIGHT"
        out["status"], out["detail"] = status, detail
        results.append(out)
    return results


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
    The sandwich against the exact oracle runs only for knot closures whose
    simplified diagram (``knot_s``) the oracle accepts at ``oracle_limit``
    crossings (None disables it).  When ``simplify`` removes crossings and
    the oracle also accepts the closure as drawn, ``reduced_s`` checks that
    ``_drawn_s`` gives the same ``s`` on it.
    """
    summary = FuzzSummary(count, strands, max_length, seed, oracle_limit)
    for case, (w, word_seed) in enumerate(random_braids(count, strands, max_length, seed)):
        context = f"case={case} word={w.strands}:{list(w.letters)} seed={word_seed}"
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
            structure_ok = d.seifert_circles.count == w.strands and d.writhe == sum(
                1 if k > 0 else -1 for k in w.letters
            )
        except (ValidationError, ConsistencyError):
            structure_ok = False
        summary.record("structure", structure_ok, context)

        u, delta = bound_U(d), bound_Delta(d)
        m = mirror(d)
        summary.record("mirror_identity", bound_U(m) + u == 2 * delta and bound_Delta(m) == delta, context)

        parts = betti1_components(aux_graph(d.seifert_graph))
        # the sum alone is 1 - #nodes + #edges for any partition of the nodes;
        # the component count is what the union-find decides
        betti_ok = delta == sum(parts) + 1 - len(parts) and (len(parts) == 1) == connected
        summary.record("betti_equals_delta", betti_ok, context)

        try:
            bounds_report(d, w)
            tightness_ok = True
        except ConsistencyError:
            tightness_ok = False
        summary.record("tightness", tightness_ok, context)

        if d.is_knot:
            summary.record("parity", u % 2 == 0, context)
            gk = genus_bound_knot(d)
            summary.record("dominance", gk >= classic_bennequin(d), context)
            summary.record("link_reduction", genus_bound_link(d) == gk, context)
            if oracle_limit is not None:
                with suppress(CrossingLimitError):  # a refused case skips the sandwich
                    s = knot_s(d, oracle_limit)
                    summary.record("sandwich", u - 2 * delta <= s <= u, context)
                    if len(simplify(d).crossings) < len(d.crossings):
                        summary.record("reduced_s", _drawn_s(d, oracle_limit) == s, context)
    return summary
