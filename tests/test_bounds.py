"""Upper bound, error width, sandwich window, genus bounds, and the report."""

from fractions import Fraction

import pytest

from slicebound import (
    BraidWord,
    Crossing,
    Diagram,
    DisconnectedDiagramError,
    SeifertGraph,
    ValidationError,
    bound_Delta,
    bound_U,
    bounds_report,
    braid_closure,
    classic_bennequin,
    diagram_from_pd,
    genus_bound_knot,
    genus_bound_link,
    mirror,
    parse_pd,
    random_braid,
    report_json_dict,
    s_window,
)

TREFOIL = braid_closure(BraidWord(2, (1, 1, 1)))
UNKNOT0 = braid_closure(BraidWord(1, ()))
MIXED = braid_closure(BraidWord(2, (1, 1, -1)))
FIG8 = diagram_from_pd(parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"))


def malformed():
    """A fresh diagram whose edges 1-4 each meet one crossing end only."""
    return Diagram((Crossing((1, 2, 3, 4), 1),))


class TestBoundU:
    def test_positive_trefoil(self):
        assert bound_U(TREFOIL) == 2  # 2 - 2*2 + 3 + 1

    def test_zero_crossing_unknot(self):
        assert bound_U(UNKNOT0) == 0  # 1 - 2*1 + 0 + 1

    def test_negative_trefoil(self):
        assert bound_U(mirror(TREFOIL)) == -2  # 2 - 2*1 - 3 + 1

    def test_parity_on_knot_closures(self):
        for seed in range(60):
            d = braid_closure(random_braid(4, 9, seed))
            if d.is_connected and d.is_knot:
                assert bound_U(d) % 2 == 0


class TestBoundDelta:
    def test_examples(self):
        assert bound_Delta(TREFOIL) == 0  # 2 - 2 - 1 + 1
        assert bound_Delta(MIXED) == 1  # 2 - 1 - 1 + 1
        assert bound_Delta(UNKNOT0) == 0

    def test_nonnegative_on_connected(self):
        for seed in range(60):
            d = braid_closure(random_braid(4, 9, seed))
            if d.is_connected:
                assert bound_Delta(d) >= 0

    def test_mirror_identities(self):
        for seed in range(60):
            d = braid_closure(random_braid(5, 10, seed))
            m = mirror(d)
            assert bound_U(d) + bound_U(m) == 2 * bound_Delta(d)
            assert bound_Delta(m) == bound_Delta(d)


class TestSWindow:
    def test_positive_trefoil_tight(self):
        assert s_window(TREFOIL, BraidWord(2, (1, 1, 1))) == (2, 2, 2)

    def test_unknot_with_slack(self):
        assert s_window(MIXED) == (0, 2, None)

    def test_figure_eight_alternating_tight(self):
        assert s_window(FIG8) == (0, 0, 0)

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            s_window(braid_closure(BraidWord(2, (1, 1))))

    def test_rejects_split(self):
        with pytest.raises(DisconnectedDiagramError):
            s_window(braid_closure(BraidWord(2, ())))

    def test_validates_first(self):
        with pytest.raises(ValidationError, match="edge 1"):
            s_window(malformed())


class TestGenusBounds:
    def test_knot_bound_validates_first(self):
        with pytest.raises(ValidationError, match="edge 1"):
            genus_bound_knot(malformed())

    def test_link_bound_validates_first(self):
        with pytest.raises(ValidationError, match="edge 1"):
            genus_bound_link(malformed())

    def test_classic_bound_validates_first(self):
        with pytest.raises(ValidationError, match="edge 1"):
            classic_bennequin(malformed())

    def test_positive_trefoil(self):
        assert genus_bound_knot(TREFOIL) == 1
        assert classic_bennequin(TREFOIL) == 1

    def test_torus_27(self):
        d = braid_closure(BraidWord(2, (1,) * 7))
        assert genus_bound_knot(d) == 3

    def test_zero_crossing(self):
        assert genus_bound_knot(UNKNOT0) == 0
        assert classic_bennequin(UNKNOT0) == 0

    def test_negative_trefoil_strict_improvement(self):
        m = mirror(TREFOIL)
        assert genus_bound_knot(m) == -1
        assert classic_bennequin(m) == -2

    def test_positive_hopf_link(self):
        d = braid_closure(BraidWord(2, (1, 1)))
        assert genus_bound_link(d) == Fraction(-1, 2)

    def test_two_crossing_unlink_diagram(self):
        d = braid_closure(BraidWord(2, (1, -1)))
        assert genus_bound_link(d) == Fraction(-3, 2)

    def test_link_bound_reduces_at_one_component(self):
        for seed in range(60):
            d = braid_closure(random_braid(4, 9, seed))
            if d.is_connected and d.is_knot:
                assert genus_bound_link(d) == genus_bound_knot(d)

    def test_dominance(self):
        for seed in range(60):
            d = braid_closure(random_braid(4, 9, seed))
            if d.is_connected and d.is_knot:
                assert genus_bound_knot(d) >= classic_bennequin(d)


GUARD_INPUTS = {"split": braid_closure(BraidWord(2, ())), "link": braid_closure(BraidWord(2, (1, 1)))}
GUARD_CASES = [
    (s_window, "split", DisconnectedDiagramError, "s window needs a connected diagram"),
    (s_window, "link", ValueError, "s window is for knots; diagram has 2 components"),
    (genus_bound_knot, "split", DisconnectedDiagramError, "genus bound needs a connected diagram"),
    (genus_bound_knot, "link", ValueError, "knot genus bound is for knots; diagram has 2 components"),
    (genus_bound_link, "split", DisconnectedDiagramError, "genus bound needs a connected diagram"),
    (classic_bennequin, "split", DisconnectedDiagramError, "genus bound needs a connected diagram"),
    (classic_bennequin, "link", ValueError, "classic bound is for knots; diagram has 2 components"),
]


class TestGuards:
    """The exact exception class and message of each bound's input guard."""

    @pytest.mark.parametrize("fn, kind, cls, message", GUARD_CASES,
                             ids=[f"{fn.__name__}-{kind}" for fn, kind, _, _ in GUARD_CASES])
    def test_exception_class_and_message(self, fn, kind, cls, message):
        with pytest.raises(cls) as info:
            fn(GUARD_INPUTS[kind])
        assert type(info.value) is cls
        assert str(info.value) == message


class TestBoundsReport:
    def test_positive_trefoil(self):
        r = bounds_report(TREFOIL, BraidWord(2, (1, 1, 1)))
        assert (r.U, r.Delta, r.s_exact) == (2, 0, 2)
        assert r.genus_bound_new == 1
        assert r.positive and not r.negative
        assert r.braid_sign_condition is True
        assert r.connected and r.is_knot

    def test_figure_eight(self):
        r = bounds_report(FIG8)
        assert (r.U, r.Delta, r.s_exact) == (0, 0, 0)
        assert r.alternating
        assert r.braid_sign_condition is None  # not a braid input

    def test_sign_condition_implies_tight(self):
        w = BraidWord(3, (1, -2, 1, -2))
        d = braid_closure(w)
        r = bounds_report(d, w)
        assert r.braid_sign_condition is True
        assert r.Delta == 0 and r.s_exact == r.U

    def test_split_input_gates_s_fields(self):
        r = bounds_report(braid_closure(BraidWord(3, (1, 1))))
        assert not r.connected
        assert r.s_lower is None and r.s_upper is None and r.s_exact is None
        assert r.genus_bound_new is None

    def test_connected_link_bounds_only(self):
        r = bounds_report(braid_closure(BraidWord(2, (1, 1))))
        assert r.connected and not r.is_knot
        assert r.s_exact is None
        assert (r.s_lower, r.s_upper) == (r.U - 2 * r.Delta, r.U)
        assert r.genus_bound_new == Fraction(-1, 2)
        assert r.genus_bound_classic is None

    def test_json_shape(self):
        payload = report_json_dict(bounds_report(TREFOIL))
        assert list(payload) == [
            "U", "Delta", "s_lower", "s_upper", "s_exact",
            "genus_bound_new", "genus_bound_classic", "flags",
        ]
        assert payload["genus_bound_new"] == "1"
        hop = report_json_dict(bounds_report(braid_closure(BraidWord(2, (1, 1)))))
        assert hop["genus_bound_new"] == "-1/2"

    def test_predicate_consistency_guard_is_quiet_on_valid_input(self):
        # positivity, negativity, alternation, sign condition all verified
        for seed in range(40):
            w = random_braid(4, 8, seed)
            bounds_report(braid_closure(w), w)

    def test_no_false_alarm_on_split_positive(self):
        # split positive closures have Delta != 0; the guard must not fire
        bounds_report(braid_closure(BraidWord(3, (1, 1))))


class TestResolveOnce:
    def test_bounds_report_resolves_the_diagram_once(self, resolution_masks):
        for w in (BraidWord(3, (-1, -2, 2, -2, -1, 1, -1, -1, 1, 2)), BraidWord(2, (1, 1, 1))):
            d = braid_closure(w)
            bounds_report(d, w)
            bounds_report(d, w)
            assert resolution_masks == [d.oriented_mask]
            resolution_masks.clear()
        d = Diagram(FIG8.crossings)  # fresh: nothing cached yet
        bounds_report(d)
        assert resolution_masks == [d.oriented_mask]

    def test_bounds_report_builds_one_seifert_graph(self, calls):
        graphs = calls(SeifertGraph, "__init__")
        bounds_report(Diagram(FIG8.crossings))
        assert len(graphs) == 1
