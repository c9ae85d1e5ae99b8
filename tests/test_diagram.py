"""Diagram model: validation, strands, mirror, and the tightness-class predicates."""

import csv
from collections import Counter
from functools import cached_property
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicebound.diagram
from slicebound import (
    BraidWord,
    ConsistencyError,
    Crossing,
    Diagram,
    SeifertCircles,
    ValidationError,
    braid_closure,
    braid_sign_condition,
    diagram_from_pd,
    is_alternating,
    is_negative,
    is_positive,
    mirror,
    parse_braid,
    parse_pd,
    pd_code,
    random_braid,
    simplify,
    validate,
)
from slicebound.checks import bundled_table_path
from slicebound.diagram import UnionFind

TREFOIL = braid_closure(BraidWord(2, (1, 1, 1)))
UNKNOT0 = braid_closure(BraidWord(1, ()))
FIG8 = diagram_from_pd(parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"))


class TestValidate:
    def test_good_diagrams(self):
        for d in (TREFOIL, UNKNOT0, FIG8):
            validate(d)
            validate(d)  # idempotent

    def test_checks_run_once_per_passing_diagram(self, calls):
        checks = calls(slicebound.diagram, "_check_structure")
        d = Diagram(FIG8.crossings)  # fresh: nothing cached yet
        validate(d)
        validate(d)
        assert len(checks) == 1

    def test_failing_diagram_raises_on_every_call(self, calls):
        checks = calls(slicebound.diagram, "_check_structure")
        bad = Diagram(())
        for _ in range(2):
            with pytest.raises(ValidationError, match="empty diagram"):
                validate(bad)
        assert len(checks) == 2

    def test_edge_used_three_times(self):
        bad = Diagram(
            (
                Crossing((1, 2, 3, 4), 1),
                Crossing((1, 2, 3, 4), 1),
                Crossing((1, 5, 6, 7), 1),
            )
        )
        with pytest.raises(ValidationError, match="edge 1"):
            validate(bad)

    def test_empty_diagram(self):
        with pytest.raises(ValidationError):
            validate(Diagram(()))

    def test_two_heads(self):
        # both crossings claim edge 2 as their under-strand exit
        bad = Diagram((Crossing((1, 3, 2, 4), 1), Crossing((3, 1, 2, 4), -1)))
        with pytest.raises(ValidationError):
            validate(bad)

    def test_crossing_needs_positive_edge_ids(self):
        with pytest.raises(ValidationError, match=r"^crossing needs 4 positive edge ids, got \(0, 1, 1, 0\)$"):
            parse_pd("X[0,1,1,0]")

    def test_crossing_sign_is_plus_or_minus_one(self):
        with pytest.raises(ValidationError, match="^crossing sign must be \\+1 or -1, got 2$"):
            Crossing((1, 2, 3, 4), 2)

    def test_a_crossing_on_one_seifert_circle_is_inconsistent(self):
        # a non-planar pair that ``validate`` accepts, built without the PD
        # parse and its planarity check
        d = Diagram((Crossing((2, 4, 3, 1), -1), Crossing((3, 2, 4, 1), 1)))
        validate(d)
        assert not d.is_planar
        with pytest.raises(ConsistencyError,
                           match="^crossing 0 smooths onto a single circle; orientation data invalid$"):
            d.seifert_circles


def _table_knots():
    with open(bundled_table_path(), newline="", encoding="utf-8") as fh:
        return [parse_pd(row["pd"]).diagram for row in csv.DictReader(fh)]


@st.composite
def _braid_closures(draw, max_letters=12):
    strands = draw(st.integers(1, 5))
    if strands == 1:
        return braid_closure(BraidWord(1, ()))
    letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    return braid_closure(BraidWord(strands, tuple(draw(st.lists(letter, max_size=max_letters)))))


def _successor(d):
    """Next edge along each oriented strand, read off the crossings'
    direction properties (a free loop maps to itself): the reference that
    ``Diagram.strands``, a walk over crossing slots, is checked against."""
    succ = {e: e for e in d.free_loops}
    for c in d.crossings:
        succ[c.under_in] = c.under_out
        succ[c.over_in] = c.over_out
    return succ


class TestStrands:
    @staticmethod
    def _assert_strands(d):
        strands = d.strands
        succ = _successor(d)
        flat = list(chain.from_iterable(strands))
        assert sorted(flat) == list(d.edge_ids) == sorted(succ)  # a partition of the edges
        assert [s[0] for s in strands] == sorted(s[0] for s in strands)
        for s in strands:
            assert s[0] == min(s)
            assert [succ[e] for e in s] == list(s[1:] + s[:1])
        assert d.components == len(strands)
        if not d.free_loops:
            label = {}
            for c, relabelled in zip(d.crossings, pd_code(d).crossings):
                label.update(zip(c.edges, relabelled))
            assert [label[e] for e in flat] == list(range(1, len(flat) + 1))

    @given(d=_braid_closures())
    def test_braid_closures(self, d):
        # the mirror rotates every tuple, so each over-strand leaves its
        # crossing at the other odd slot and the walk starts from there
        for side in (d, mirror(d)):
            self._assert_strands(side)

    def test_table_knots(self):
        knots = _table_knots()
        assert len(knots) == 36
        for d in knots:
            for side in (d, mirror(d)):
                self._assert_strands(side)
                assert side.strands == (tuple(range(1, len(d.edge_ids) + 1)),)  # a PD knot is one label run

    def test_free_loops_are_one_edge_strands(self):
        d = braid_closure(BraidWord(4, (1, -1)))
        assert d.free_loops == (3, 4)
        assert d.strands[2:] == ((3,), (4,))
        assert d.components == 4


def _resolution_reference(d, mask):
    """``Diagram.resolution`` by union-find over the smoothing pairs: the
    circles are the classes of the edge ids, numbered by minimum edge id."""
    index = {e: i for i, e in enumerate(d.edge_ids)}
    uf = UnionFind(len(index))
    for i, c in enumerate(d.crossings):
        a, b, cc, dd = c.edges
        for x, y in ((a, dd), (b, cc)) if mask >> i & 1 else ((a, b), (cc, dd)):
            uf.union(index[x], index[y])
    circle_of_root = {}
    circle_of_edge = {}
    reps = []
    for i, e in enumerate(d.edge_ids):
        root = uf.find(i)
        if root not in circle_of_root:
            circle_of_root[root] = len(reps)
            reps.append(e)
        circle_of_edge[e] = circle_of_root[root]
    return SeifertCircles(circle_of_edge, len(reps), tuple(reps))


class TestResolution:
    """The slot walk of ``Diagram.resolution`` against the union-find reference."""

    @staticmethod
    def _assert_every_mask(d):
        for mask in range(1 << len(d.crossings)):
            assert d.resolution(mask) == _resolution_reference(d, mask), mask

    @settings(max_examples=60, deadline=None)
    @given(d=_braid_closures(max_letters=8))
    def test_braid_closures_and_mirrors(self, d):
        self._assert_every_mask(d)
        self._assert_every_mask(mirror(d))

    def test_table_knots(self):
        for d in _table_knots():
            self._assert_every_mask(d)

    def test_free_loops_are_circles_of_their_own(self):
        d = braid_closure(BraidWord(4, (1, -1)))
        self._assert_every_mask(d)
        for mask in range(4):
            of = d.resolution(mask).circle_of_edge
            for loop in d.free_loops:
                assert [e for e in of if of[e] == of[loop]] == [loop]

    def test_kink_edge_fills_two_slots_of_one_crossing(self):
        d = braid_closure(BraidWord(2, (1,)))
        assert any(len(set(c.edges)) < 4 for c in d.crossings)
        self._assert_every_mask(d)
        assert [d.resolution(mask).count for mask in (0, 1)] == [2, 1]

    def test_an_edge_in_a_third_slot_is_refused(self):
        with pytest.raises(ValidationError, match="edge 1 fills more than two crossing slots"):
            Diagram((Crossing((1, 1, 1, 2), 1),)).resolution(0)


def _check_structure_reference(d):
    """``validate``'s structure checks from three per-edge tallies
    (incidences, strand heads and strand tails) instead of the slot table."""
    if not d.crossings and not d.free_loops:
        raise ValidationError("empty diagram: no crossings and no free loops")
    if len(set(d.free_loops)) != len(d.free_loops):
        raise ValidationError("duplicate free-loop edge id")
    incidences, heads, tails = {}, {}, {}
    for c in d.crossings:
        for e in c.edges:
            incidences[e] = incidences.get(e, 0) + 1
        for e_in, e_out in ((c.under_in, c.under_out), (c.over_in, c.over_out)):
            heads[e_out] = heads.get(e_out, 0) + 1
            tails[e_in] = tails.get(e_in, 0) + 1
    for e in d.free_loops:
        if e in incidences:
            raise ValidationError(f"edge {e} is both a free loop and a crossing edge")
    for e, n in incidences.items():
        if n != 2:
            raise ValidationError(f"edge {e} has {n} crossing incidences, expected 2")
    for e in incidences:
        if heads.get(e, 0) != 1:
            raise ValidationError(f"edge {e} is entered by {heads.get(e, 0)} strand passages, expected 1")
        if tails.get(e, 0) != 1:
            raise ValidationError(f"edge {e} starts {tails.get(e, 0)} strand passages, expected 1")


def _is_connected_reference(d):
    """``Diagram.is_connected`` by union-find over the edge ids, each
    crossing joining its four edges."""
    index = {e: i for i, e in enumerate(d.edge_ids)}
    uf = UnionFind(len(index))
    for c in d.crossings:
        for e in c.edges[1:]:
            uf.union(index[c.edges[0]], index[e])
    return uf.component_count() == 1


def _is_alternating_reference(d):
    """``is_alternating`` by counting each edge's under-strand slots: exactly
    one of its two incidences is at position 0 or 2."""
    under_slots = {}
    for c in d.crossings:
        for pos, e in enumerate(c.edges):
            under_slots[e] = under_slots.get(e, 0) + (pos in (0, 2))
    return all(n == 1 for n in under_slots.values())


def _faces_and_pieces(d):
    """(faces, pieces with crossings) of a diagram whose edges each fill two
    slots.  The faces are the union-find components of the corners: corner
    (i, p) lies between positions p and p + 1 of crossing i, and for an edge
    at positions (i, p) and (j, q) the corner before one end is on the face
    of the corner after the other."""
    ends = {}
    for i, c in enumerate(d.crossings):
        for p, e in enumerate(c.edges):
            ends.setdefault(e, []).append((i, p))
    n = len(d.crossings)
    corners, pieces = UnionFind(4 * n), UnionFind(n)
    for (i, p), (j, q) in ends.values():
        corners.union(4 * i + (p - 1) % 4, 4 * j + q)
        corners.union(4 * j + (q - 1) % 4, 4 * i + p)
        pieces.union(i, j)
    return corners.component_count(), pieces.component_count()


def _is_planar_reference(d):
    """``Diagram.is_planar`` by Euler's formula, V - E + F = 2 with E = 2V,
    summed over the pieces with crossings."""
    faces, pieces = _faces_and_pieces(d)
    return faces == len(d.crossings) + 2 * pieces


def _assert_faces(d):
    """``Diagram.faces`` against the corner reference: as many faces, every
    slot on exactly one, each face a cycle of the slot map from its smallest
    slot, and the faces in slot order."""
    faces = d.faces
    partner = d._slot_walk[1]
    assert len(faces) == _faces_and_pieces(d)[0]
    assert sorted(chain.from_iterable(faces)) == list(range(4 * len(d.crossings)))
    assert [face[0] for face in faces] == sorted(min(face) for face in faces)
    for face in faces:
        for s, t in zip(face, face[1:] + face[:1]):
            assert partner[4 * (s >> 2) + ((s + 1) & 3)] == t


def _refusal(check, d):
    """The ValidationError message ``check(d)`` raises, or None."""
    try:
        check(d)
    except ValidationError as exc:
        return str(exc)
    return None


@st.composite
def _crossing_tuples(draw):
    """Crossings over a small edge alphabet, with signs and free loops.
    Half the draws give every edge exactly two slots, so that orientation
    and the free loops decide validity."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        edges = draw(st.permutations([e for e in range(1, 2 * n + 1) for _ in range(2)]))
    else:
        edges = draw(st.lists(st.integers(1, 6), min_size=4 * n, max_size=4 * n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    loops = draw(st.lists(st.integers(1, 2 * n + 2), max_size=2))
    return Diagram(tuple(Crossing(tuple(edges[4 * i:4 * i + 4]), sign) for i, sign in enumerate(signs)),
                   tuple(loops))


class TestSlotTable:
    """The readers of ``Diagram._slot_walk`` against the per-edge references."""

    @settings(max_examples=400, deadline=None)
    @given(d=_crossing_tuples())
    def test_random_crossing_tuples(self, d):
        refusal = _refusal(slicebound.diagram._check_structure, d)
        expected = _refusal(_check_structure_reference, d)
        assert (refusal is None) == (expected is None)
        if max(Counter(chain.from_iterable(c.edges for c in d.crossings)).values(), default=0) <= 2:
            assert refusal == expected
        if expected is None:
            assert d.is_connected == _is_connected_reference(d)
            assert is_alternating(d) == _is_alternating_reference(d)
            assert d.is_planar == _is_planar_reference(d)
            _assert_faces(d)

    @staticmethod
    def _assert_readers(d):
        assert d.is_connected == _is_connected_reference(d)
        assert is_alternating(d) == _is_alternating_reference(d)
        assert d.is_planar and _is_planar_reference(d)
        _assert_faces(d)

    @given(d=_braid_closures())
    def test_braid_closures_and_mirrors(self, d):
        self._assert_readers(d)
        self._assert_readers(mirror(d))

    def test_table_knots(self):
        for d in _table_knots():
            self._assert_readers(d)

    def test_free_loops_and_a_kink(self):
        split = braid_closure(BraidWord(4, (1, -1)))
        kink = braid_closure(BraidWord(2, (1,)))
        for d in (split, kink):
            self._assert_readers(d)
        assert not split.is_connected and kink.is_connected

    @pytest.mark.parametrize("tuples, faces", [
        (((2, 4, 3, 1), (3, 2, 4, 1)), 2),
        (((2, 4, 1, 3), (4, 1, 3, 2)), 2),
        (((1, 4, 2, 5), (6, 3, 1, 4), (5, 2, 6, 3)), 3),
        (((1, 3, 2, 4), (2, 4, 1, 3)), 2),
    ])
    def test_virtual_codes_are_not_planar(self, tuples, faces):
        # one piece with n crossings: planar exactly with n + 2 faces; the
        # signs do not enter
        for sign in (1, -1):
            d = Diagram(tuple(Crossing(edges, sign) for edges in tuples))
            assert _faces_and_pieces(d) == (faces, 1) and faces < len(tuples) + 2
            assert not d.is_planar

    def test_split_diagram_is_planar_piece_by_piece(self):
        # two Hopf clasps side by side, and a free loop: 4 + 4 faces
        hopf = ((4, 1, 3, 2), (2, 3, 1, 4))
        d = Diagram(tuple(Crossing(tuple(e + 4 * k for e in edges), -1) for k in (0, 1) for edges in hopf),
                    (9,))
        validate(d)
        assert _faces_and_pieces(d) == (8, 2)
        assert d.is_planar and not d.is_connected

    def test_one_table_serves_every_reader(self, monkeypatch):
        walk = Diagram._slot_walk.func
        built = []

        def counting(d):
            built.append(d)
            return walk(d)

        table = cached_property(counting)
        table.__set_name__(Diagram, "_slot_walk")
        monkeypatch.setattr(Diagram, "_slot_walk", table)
        readers = (validate, lambda d: d.is_connected, lambda d: d.is_planar, is_alternating,
                   lambda d: d.resolution(0))
        for read in readers:  # each reader builds the table on a fresh diagram
            d = Diagram(FIG8.crossings)
            read(d)
            assert built == [d]
            built.clear()
        d = Diagram(FIG8.crossings)
        for read in readers:
            read(d)
        d.resolution(d.oriented_mask)
        assert built == [d]


class TestMirror:
    def test_trefoil(self):
        m = mirror(TREFOIL)
        assert m.writhe == -3
        assert all(c.sign == -1 for c in m.crossings)

    def test_involution(self):
        for seed in range(25):
            d = braid_closure(random_braid(4, 9, seed))
            assert mirror(mirror(d)) == d

    def test_unknot_fixed(self):
        assert mirror(UNKNOT0) == UNKNOT0

    def test_writhe_negated(self):
        for seed in range(25):
            d = braid_closure(random_braid(3, 8, seed))
            assert mirror(d).writhe == -d.writhe

    def test_preserves_strand_structure(self):
        for seed in range(10):
            d = braid_closure(random_braid(3, 7, seed))
            m = mirror(d)
            assert m.strands == d.strands
            assert _successor(m) == _successor(d)
            assert m.components == d.components


def _moves_left(d):
    """The faces ``simplify`` would remove: kinks, and bigons at two
    crossings whose edges keep one level (corner slots of opposite parity)."""
    return [face for face in d.faces if len(face) == 1 or (
        len(face) == 2 and face[0] >> 2 != face[1] >> 2 and (face[0] ^ face[1]) & 1)]


class TestSimplify:
    """``simplify`` removes Reidemeister I kinks and II bigons, read off the
    faces, until none is left."""

    @staticmethod
    def _assert_simplified(d):
        t = simplify(d)
        validate(t)
        assert t.is_planar and t.components == d.components and t.is_connected <= d.is_connected
        assert len(t.crossings) <= len(d.crossings) and not _moves_left(t)
        assert (t is d) == (not _moves_left(d))
        if not t.free_loops:  # a planar code that compiles back
            back = diagram_from_pd(pd_code(t))
            assert back.components == t.components and (back.writhe == t.writhe or not t.is_knot)
        return t

    @pytest.mark.parametrize("word, crossings", [
        ("5: [4,2,-4,3,-1,-2,4,-2,-4,3,-3,-4]", 0),
        ("4: [-3,-1,1,-3,-2,2,-2,-2,1,3,-2,3,2]", 8),
        ("4: [-1,1,-1,3,-1,1,-3,2,-3,2,-1,3,-2]", 0),
        ("5: [-1,3,-1,-2,-3,4,2,1,-2,-4,3,3,-3,4]", 9),
        ("5: [-3,-1,-1,-4,4,-4,1,4,2,2,3,-4,3,-2]", 6),
    ])
    def test_baseline_words(self, word, crossings):
        d = braid_closure(parse_braid(word))
        t = self._assert_simplified(d)
        assert len(t.crossings) == crossings and t.is_knot
        assert t.free_loops == (() if crossings else t.free_loops[:1])

    def test_only_the_kinked_table_row_simplifies(self):
        changed = [(d, simplify(d)) for d in _table_knots()]
        changed = [(len(d.crossings), t.crossings, len(t.free_loops)) for d, t in changed if t is not d]
        assert changed == [(1, (), 1)]

    def test_kinks_go(self):
        # PD input with one crossing and two kinks: the unknot as a free loop
        assert simplify(parse_pd("X[1,1,2,2]").diagram) == Diagram((), (1,))
        # a negative kink on the trefoil goes; the writhe changes by its sign
        t = simplify(braid_closure(BraidWord(3, (1, 1, 1, -2))))
        assert (len(t.crossings), t.writhe) == (3, 3)

    def test_a_clasp_stays(self):
        # the Hopf link: two bigons, each edge over at one corner and under at the other
        hopf = parse_pd("X[4,1,3,2] X[2,3,1,4]").diagram
        assert len(hopf.faces) == 4 and {len(face) for face in hopf.faces} == {2}
        assert simplify(hopf) is hopf

    def test_an_unlinked_bigon_splits_off_free_loops(self):
        t = simplify(braid_closure(BraidWord(2, (1, -1))))
        assert not t.crossings and len(t.free_loops) == 2

    @settings(max_examples=150, deadline=None)
    @given(d=_braid_closures(max_letters=16))
    def test_braid_closures_and_mirrors(self, d):
        self._assert_simplified(d)
        self._assert_simplified(mirror(d))


class TestSignPredicates:
    def test_trefoil_positive(self):
        assert is_positive(TREFOIL) and not is_negative(TREFOIL)

    def test_mirror_swaps(self):
        m = mirror(TREFOIL)
        assert is_negative(m) and not is_positive(m)

    def test_zero_crossing_both(self):
        assert is_positive(UNKNOT0) and is_negative(UNKNOT0)

    def test_swap_under_mirror_generally(self):
        for seed in range(20):
            d = braid_closure(random_braid(3, 6, seed))
            assert is_positive(d) == is_negative(mirror(d))


class TestAlternating:
    def test_figure_eight(self):
        assert is_alternating(FIG8)

    def test_torus_two_strand_closures_alternate(self):
        # closed 2-braids are the standard alternating torus diagrams
        assert is_alternating(TREFOIL)
        assert is_alternating(braid_closure(BraidWord(2, (1,) * 5)))

    def test_consecutive_over_passes(self):
        # a strand of the sigma1 sigma2 closure passes over twice in a row
        assert not is_alternating(braid_closure(BraidWord(3, (1, 2))))
        assert not is_alternating(braid_closure(BraidWord(3, (1, 1, 2))))

    def test_zero_crossing_vacuous(self):
        assert is_alternating(UNKNOT0)

    def test_mirror_invariant(self):
        for seed in range(20):
            d = braid_closure(random_braid(3, 7, seed))
            assert is_alternating(d) == is_alternating(mirror(d))


class TestBraidSignCondition:
    def test_single_sign_per_generator(self):
        assert braid_sign_condition(BraidWord(3, (1, -2, 1, -2)))

    def test_mixed_sign_fails(self):
        assert not braid_sign_condition(BraidWord(2, (1, -1)))

    def test_empty_vacuous(self):
        assert braid_sign_condition(BraidWord(2, ()))

    def test_flip_all_signs_invariant(self):
        for seed in range(25):
            w = random_braid(4, 9, seed)
            flipped = BraidWord(w.strands, tuple(-k for k in w.letters))
            assert braid_sign_condition(w) == braid_sign_condition(flipped)
