"""Upper bound U, error width Delta, tightness detection, and genus bounds.

For a diagram D with Seifert graph T:

    U(D)     = #nodes(T) - 2 #components(T-) + writhe + 1
    Delta(D) = #nodes(T) - #components(T-) - #components(T+) + 1

U bounds the Rasmussen invariant s from above and U - 2 Delta from below for
connected knot diagrams; Delta vanishes exactly when the bound is tight, which
is guaranteed for positive, negative, and alternating diagrams and for
closures of braid words whose generators each keep a single sign
(``notation.braid_sign_condition``).  T and the component ids of T- and T+
are built once per diagram (``Diagram.seifert_graph``), and every bound here
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .diagram import ConsistencyError, Diagram, is_alternating, is_negative, is_positive, validate
from .notation import BraidWord, braid_sign_condition
from .seifert import DisconnectedDiagramError, component_count


def bound_U(d: Diagram) -> int:
    """Diagram-dependent upper bound for s; even for connected knot diagrams."""
    g = d.seifert_graph
    return g.node_count - 2 * component_count(g, -1) + d.writhe + 1


def bound_Delta(d: Diagram) -> int:
    """Error width of the bound; >= 0 for connected diagrams."""
    g = d.seifert_graph
    return g.node_count - component_count(g, -1) - component_count(g, +1) + 1


def _require_connected(d: Diagram, subject: str, knot_subject: Optional[str] = None) -> None:
    """Validate ``d``, then reject a split diagram, naming ``subject``, and,
    when ``knot_subject`` is given, a link, naming ``knot_subject``."""
    validate(d)
    if not d.is_connected:
        raise DisconnectedDiagramError(f"{subject} needs a connected diagram")
    if knot_subject is not None and not d.is_knot:
        raise ValueError(f"{knot_subject} is for knots; diagram has {d.components} components")


def s_window(d: Diagram, braid: Optional[BraidWord] = None) -> tuple[int, int, Optional[int]]:
    """(U - 2 Delta, U, exact) for a connected knot diagram.

    ``exact`` is U when Delta = 0; tightness classes imply Delta = 0 and are
    verified rather than trusted.  Rejects links and split diagrams.  The
    values are ``bounds_report``'s.
    """
    _require_connected(d, "s window", "s window")
    r = bounds_report(d, braid)
    return r.s_lower, r.s_upper, r.s_exact


def genus_bound_knot(d: Diagram) -> Fraction:
    """Slice-genus lower bound (writhe - #circles + 2 #components(T+) - 1)/2."""
    _require_connected(d, "genus bound", "knot genus bound")
    g = d.seifert_graph
    return Fraction(d.writhe - g.node_count + 2 * component_count(g, +1) - 1, 2)


def genus_bound_link(d: Diagram) -> Fraction:
    """Slice-genus lower bound for an r-component link diagram.

    Uses g*(L) = G(L) + 1/2 - r/2 with G the genus of a connected
    minimal-genus surface; reduces to the knot bound at r = 1.
    """
    _require_connected(d, "genus bound")
    g = d.seifert_graph
    r = d.components
    return Fraction(d.writhe - g.node_count + 2 * component_count(g, +1) - 2 * r + 1, 2)


def classic_bennequin(d: Diagram) -> Fraction:
    """Slice-Bennequin baseline (writhe - #circles + 1)/2 for comparison."""
    _require_connected(d, "genus bound", "classic bound")
    return Fraction(d.writhe - d.seifert_graph.node_count + 1, 2)


@dataclass(frozen=True)
class BoundsReport:
    """All computed bounds and flags for one diagram.

    For split diagrams the s fields and genus bounds are None (U - 2 Delta
    has no s meaning there and Delta may be negative); U and Delta are always
    the literal formula values.  s_exact is only ever claimed for knots.
    """

    U: int
    Delta: int
    s_lower: Optional[int]
    s_upper: Optional[int]
    s_exact: Optional[int]
    genus_bound_new: Optional[Fraction]
    genus_bound_classic: Optional[Fraction]
    positive: bool
    negative: bool
    alternating: bool
    braid_sign_condition: Optional[bool]
    connected: bool
    is_knot: bool


def bounds_report(d: Diagram, braid: Optional[BraidWord] = None) -> BoundsReport:
    """Evaluate every bound with per-field gating; raises only on invalid input."""
    validate(d)
    u = bound_U(d)
    delta = bound_Delta(d)
    flags = {
        "positive": is_positive(d),
        "negative": is_negative(d),
        "alternating": is_alternating(d),
        "braid_sign_condition": braid_sign_condition(braid) if braid is not None else None,
    }
    connected = d.is_connected
    knot = d.is_knot

    s_lower = s_upper = s_exact = None
    genus_new = genus_classic = None
    if connected:
        # a connected diagram in a tightness class must have Delta = 0; a
        # violation is a proved-theorem failure
        which = [k for k, v in flags.items() if v]
        if which and delta != 0:
            raise ConsistencyError(f"diagram is {'/'.join(which)} but Delta = {delta} != 0")
        s_lower, s_upper = u - 2 * delta, u
        genus_new = genus_bound_link(d)
        if knot:
            genus_classic = classic_bennequin(d)
            if delta == 0:
                s_exact = u

    return BoundsReport(
        U=u,
        Delta=delta,
        s_lower=s_lower,
        s_upper=s_upper,
        s_exact=s_exact,
        genus_bound_new=genus_new,
        genus_bound_classic=genus_classic,
        **flags,
        connected=connected,
        is_knot=knot,
    )


def report_json_dict(report: BoundsReport) -> dict:
    """Stable JSON object; field order fixed, rationals as exact strings."""
    return {
        "U": report.U,
        "Delta": report.Delta,
        "s_lower": report.s_lower,
        "s_upper": report.s_upper,
        "s_exact": report.s_exact,
        "genus_bound_new": None if report.genus_bound_new is None else str(report.genus_bound_new),
        "genus_bound_classic": None if report.genus_bound_classic is None else str(report.genus_bound_classic),
        "flags": {
            "positive": report.positive,
            "negative": report.negative,
            "alternating": report.alternating,
            "braid_sign_condition": report.braid_sign_condition,
            "connected": report.connected,
            "is_knot": report.is_knot,
        },
    }
