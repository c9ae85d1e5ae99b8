"""Exact oracle: complex construction, canonical cycles, s, filtration."""

import csv
import dataclasses
import functools
import gc
import random
import weakref
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slicebound.checks
import slicebound.cli
import slicebound.lee_oracle
from slicebound import (
    BraidWord,
    ConsistencyError,
    CrossingLimitError,
    Diagram,
    braid_closure,
    build_slice,
    canonical_cycles,
    diagram_from_pd,
    filtration_profile,
    mirror,
    parse_braid,
    parse_pd,
    profile_jumps,
    random_braid,
    random_braids,
    s_invariant,
    s_window,
    simplify,
)
from slicebound.lee_oracle import (
    _build_matrix,
    _check_slice,
    _column_echelon,
    _composes_to_zero,
    _crossing_order,
    _reduce_against,
    _row_order,
    _strip,
)

TREFOIL = braid_closure(BraidWord(2, (1, 1, 1)))
UNKNOT0 = braid_closure(BraidWord(1, ()))
KINK = diagram_from_pd(parse_pd("X[1,1,2,2]"))
MIXED = braid_closure(BraidWord(2, (1, 1, -1)))
FIG8 = diagram_from_pd(parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"))


def _positions(s, degree):
    """The index of each generator of ``degree``, in (vertex, label) order."""
    return list(chain.from_iterable(s.rows[degree].values()))


def _entries(col):
    """A fresh {row: +-1} dict of a signed row pair; no row may repeat."""
    plus, minus = col
    out = {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1)}
    assert len(out) == len(plus) + len(minus)
    return out


def _signed(entries):
    """The signed row pair of a {row: +-1} dict."""
    assert set(entries.values()) <= {1, -1}
    return (
        tuple(r for r, v in entries.items() if v == 1),
        tuple(r for r, v in entries.items() if v == -1),
    )


class TestBuildSlice:
    def test_zero_crossing_unknot(self):
        s = build_slice(UNKNOT0)
        assert s.dim(-1) == 0 and s.dim(1) == 0
        assert s.dim(0) == 2
        assert sorted(s.gradings[0]) == [-1, 1]

    def test_positive_diagram_has_no_incoming(self):
        s = build_slice(TREFOIL)
        assert s.dim(-1) == 0
        assert len(s.rows[0]) == 1  # only the oriented resolution

    def test_mixed_has_incoming_and_composes_to_zero(self):
        s = build_slice(MIXED)
        assert s.dim(-1) > 0
        # d_out . d_in = 0 and filtered columns are asserted at construction;
        # getting here means both checks passed
        assert any(_entries(col) for col in s.d_in)

    def test_columns_are_filtered(self):
        for d in (MIXED, FIG8):
            s = build_slice(d)
            for deg, cols in ((-1, s.d_in), (0, s.d_out)):
                for j, col in enumerate(cols):
                    for t in _entries(col):
                        assert s.gradings[deg + 1][t] >= s.gradings[deg][j]

    def test_crossing_limit(self):
        d = braid_closure(BraidWord(2, (1,) * 9))
        with pytest.raises(CrossingLimitError):
            build_slice(d, max_crossings=8)

    def test_rejects_links_and_split(self):
        with pytest.raises(ValueError):
            build_slice(braid_closure(BraidWord(2, (1, 1))))
        with pytest.raises(ValueError):
            build_slice(braid_closure(BraidWord(2, ())))

    def test_vertex_degrees(self):
        # a knot whose crossing order is not the identity, so that masks
        # listed in ascending order would fail
        d = _table_knots()[5]
        order = _order(d)
        assert order != sorted(order)
        _assert_vertex_order(build_slice(d), order)


class TestCanonicalCycles:
    def test_unknot_label(self):
        s_o, s_obar = canonical_cycles(build_slice(UNKNOT0))
        # a single circle labeled v_minus + v_plus: both coefficients +1
        assert sorted(s_o.coefficients.values()) == [1, 1]
        assert s_o.classes == (0,)
        assert s_obar.classes == (1,)

    def test_trefoil_adjacent_circles_opposite(self):
        s_o, s_obar = canonical_cycles(build_slice(TREFOIL))
        assert sorted(s_o.classes) == [0, 1]
        assert s_obar.classes == tuple(1 - c for c in s_o.classes)

    def test_min_grading_is_writhe_minus_circles(self):
        for d in (TREFOIL, FIG8, MIXED, KINK):
            s_o, _ = canonical_cycles(build_slice(d))
            # closedness and the minimum-grading identity are asserted at
            # construction; spot-check the value here too
            from slicebound import oriented_resolution

            assert s_o.min_q == d.writhe - oriented_resolution(d).count

    @pytest.mark.parametrize("d", [TREFOIL, FIG8], ids=["trefoil", "figure-eight"])
    def test_wrong_labeling_is_not_closed(self, d, monkeypatch):
        # adjacent Seifert circles in one class: neither labeling is a cycle
        monkeypatch.setattr(slicebound.lee_oracle, "two_coloring", lambda g: [0] * g.node_count)
        with pytest.raises(ConsistencyError, match="canonical cycle is not closed"):
            canonical_cycles(build_slice(d))

    def test_closedness_checked_on_random_knots(self):
        checked = 0
        for seed in range(60):
            d = braid_closure(random_braid(3, 6, seed))
            if d.is_connected and d.is_knot:
                canonical_cycles(build_slice(d))  # raises if either cycle is not closed
                checked += 1
        assert checked >= 10


class TestSInvariant:
    def test_unknot_presentations(self):
        assert s_invariant(build_slice(UNKNOT0)) == 0
        assert s_invariant(build_slice(KINK)) == 0
        assert s_invariant(build_slice(MIXED)) == 0

    def test_trefoils(self):
        assert s_invariant(build_slice(TREFOIL)) == 2
        assert s_invariant(build_slice(mirror(TREFOIL))) == -2
        atlas = diagram_from_pd(parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"))
        assert s_invariant(build_slice(atlas)) == -2

    def test_figure_eight(self):
        assert s_invariant(build_slice(FIG8)) == 0
        assert s_invariant(build_slice(mirror(FIG8))) == 0

    def test_torus_knots_positive(self):
        for q in (3, 5, 7, 9):
            d = braid_closure(BraidWord(2, (1,) * q))
            assert s_invariant(build_slice(d)) == q - 1

    def test_mirror_antisymmetry_random(self):
        checked = 0
        for seed in range(80):
            d = braid_closure(random_braid(3, 8, seed))
            if d.is_connected and d.is_knot:
                assert s_invariant(build_slice(mirror(d))) == -s_invariant(build_slice(d))
                checked += 1
            if checked >= 15:
                break
        assert checked >= 15

    def test_sandwich_random(self):
        checked = 0
        for seed in range(80):
            w = random_braid(4, 9, seed)
            d = braid_closure(w)
            if d.is_connected and d.is_knot and checked < 12:
                lo, hi, exact = s_window(d, w)
                s = s_invariant(build_slice(d))
                assert lo <= s <= hi
                if exact is not None:
                    assert s == exact
                checked += 1
        assert checked >= 10


class TestFiltrationProfile:
    def test_unknot(self):
        assert filtration_profile(build_slice(UNKNOT0)) == {1: 1, -1: 2}
        assert profile_jumps(filtration_profile(build_slice(UNKNOT0))) == (-1, 1)

    def test_positive_trefoil(self):
        prof = filtration_profile(build_slice(TREFOIL))
        assert prof == {5: 0, 3: 1, 1: 2}
        assert profile_jumps(prof) == (1, 3)

    def test_jump_gap_and_s_bracketing(self):
        for seed in range(60):
            d = braid_closure(random_braid(3, 6, seed))
            if d.is_connected and d.is_knot:
                prof = filtration_profile(build_slice(d))
                j2, j1 = profile_jumps(prof)
                assert j1 - j2 == 2
                assert s_invariant(build_slice(d)) == j2 + 1 == j1 - 1

    def test_profile_is_staircase(self):
        for d in (FIG8, MIXED, KINK):
            dims = list(filtration_profile(build_slice(d)).values())
            assert dims == sorted(dims)
            assert dims[-1] == 2

    def test_jumps_two_apart(self):
        with pytest.raises(ConsistencyError, match="^filtration jump gap is 4, expected 2$"):
            profile_jumps({1: 1, -3: 2})


class TestOnePass:
    def test_oracle_command_builds_and_echelons_once(self, monkeypatch, capsys):
        counts = {"build_slice": 0, "_column_echelon": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in counts:
            fn = getattr(slicebound.lee_oracle, name)
            for module in (slicebound.lee_oracle, slicebound.checks):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
        pd = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
        assert slicebound.cli.main(["oracle", "--pd", pd]) == 0
        assert '"s": 0' in capsys.readouterr().out
        assert counts == {"build_slice": 1, "_column_echelon": 1}

    def test_canonical_cycles_resolve_the_diagram_once(self, resolution_masks):
        d = Diagram(FIG8.crossings)  # fresh: nothing cached yet
        s = build_slice(d)
        canonical_cycles(s)
        assert resolution_masks.count(d.oriented_mask) == 1
        # every vertex of degrees -1, 0 and 1, and the one degree -2 vertex,
        # which the clearing resolves for its d_-2 relations, each once
        assert comb(len(d.crossings), d.n_minus - 2) == 1
        assert len(resolution_masks) == sum(map(len, s.rows.values())) + 1
        assert len(set(resolution_masks)) == len(resolution_masks)

    def test_shared_slice_gives_the_same_results(self):
        for d in (MIXED, FIG8, mirror(TREFOIL)):
            s = build_slice(d)
            assert s_invariant(s) == s_invariant(build_slice(d))
            assert filtration_profile(s) == filtration_profile(build_slice(d))


# --- elimination kernel against plain rational elimination ----------------


def _rational_reduce(vec, pivots):
    """Reduce ``vec`` over Q against ``{low: column}``; returns the residual."""
    v = {p: Fraction(x) for p, x in vec.items() if x}
    while v:
        low = min(v)
        piv = pivots.get(low)
        if piv is None:
            break
        f = v[low] / piv[low]
        for p, x in piv.items():
            w = v.get(p, 0) - f * x
            if w:
                v[p] = w
            else:
                v.pop(p, None)
    return v


def _rational_echelon(columns):
    pivots = {}
    for col in columns:
        red = _rational_reduce(col, pivots)
        if red:
            pivots[min(red)] = red
    return pivots


def _low(col):
    return min(col) if col else None


def _dict_echelon(columns):
    """(pivots, zero) of the integer echelon of the {row: int} dicts
    ``columns``, taken in turn: a copy of each is reduced by
    ``_reduce_against``, a nonzero reduction is stored ``_strip``ped at its
    low, and ``zero`` holds the indices of the columns that reduce to zero."""
    pivots, zero = {}, set()
    for j, col in enumerate(columns):
        red = _reduce_against(dict(col), pivots)
        if red:
            pivots[min(red)] = _strip(red)
        else:
            zero.add(j)
    return pivots, zero


def _assert_matches_rational(pivots, columns, extras):
    """``pivots`` has the lows of the rational echelon of the dicts
    ``columns``, each pivot primitive and in their span; each dict of
    ``extras`` reduces against it to the rational low, and a pivot those
    reductions read keeps its entries."""
    reference = _rational_echelon(columns)
    assert set(pivots) == set(reference)
    for low, piv in pivots.items():
        assert _low(piv) == low
        g = 0
        for v in piv.values():
            g = gcd(g, v)
        assert g == 1  # stored pivots are primitive
        assert not _rational_reduce(piv, reference)  # and lie in the span
    entries = {low: dict(piv.items()) for low, piv in pivots.items()}
    for vec in extras:
        got = _reduce_against(dict(vec), pivots)
        assert _low(got) == _low(_rational_reduce(vec, reference))
        assert all(isinstance(v, int) for v in got.values())
    assert pivots == entries


_ROWS = 7
_vectors = st.lists(
    st.integers(-4, 4), min_size=_ROWS, max_size=_ROWS
).map(lambda entries: {p: x for p, x in enumerate(entries) if x})
# signed row pairs over the same rows: few rows, so that lows collide
_row_pairs = st.lists(
    st.dictionaries(st.integers(0, _ROWS - 1), st.sampled_from((1, -1)), max_size=_ROWS),
    max_size=10,
).map(lambda cols: [_signed(col) for col in cols])


class TestEliminationKernel:
    @settings(max_examples=300, deadline=None)
    @given(columns=st.lists(_vectors, max_size=10), extras=st.lists(_vectors, max_size=4))
    @example(columns=[{0: 2, 1: 1}, {0: 3, 2: 1}], extras=[{0: 5, 1: 1, 2: 1}])
    # an empty column has no low, and a column whose low is new but which is
    # not primitive is stored stripped
    @example(columns=[{}], extras=[{0: 1}])
    @example(columns=[{3: 2, 5: 4}], extras=[{3: 1, 5: 1}])
    @example(columns=[{0: 1, 2: 1}, {1: 2, 4: -6}], extras=[{1: 1, 2: 1}])
    def test_matches_rational_elimination(self, columns, extras):
        before = [dict(col) for col in columns]
        pivots, _ = _dict_echelon(columns)
        assert columns == before  # the caller's columns are left unchanged
        _assert_matches_rational(pivots, columns, extras)

    @settings(max_examples=300, deadline=None)
    @given(columns=_row_pairs, extras=st.lists(_vectors, max_size=4))
    # an empty column and an extra that reads a view pivot; a column at a
    # taken low that reads one
    @example(columns=[((), ()), ((0, 1), ())], extras=[{0: 2, 1: 1}])
    @example(columns=[((0, 2), ()), ((0,), (1,))], extras=[{0: 3, 2: 1}])
    def test_row_pairs_match_rational_elimination(self, columns, extras):
        pivots = _column_echelon(columns)
        _assert_matches_rational(pivots, [_entries(col) for col in columns], extras)


# --- the zero-composition test against the exact product ------------------


def _product(outer, col):
    """outer . col for {row: value} columns, each entry accumulated with
    ``dict.get``; zeros dropped."""
    out = {}
    for t, c in col.items():
        for u, e in outer[t].items():
            out[u] = out.get(u, 0) + c * e
    return {u: v for u, v in out.items() if v}


_units = st.dictionaries(st.integers(0, 5), st.sampled_from((1, -1)), max_size=4)
# three columns, or three columns each followed by its twin three places on,
# so that a +1 and a -1 entry of ``col`` at a pair of twins cancel
_outers = st.lists(_units, min_size=3, max_size=3).flatmap(
    lambda cols: st.sampled_from((cols + [{}, {}, {}], cols + cols))
)


class TestComposesToZero:
    @settings(max_examples=300, deadline=None)
    @given(outer=_outers, col=_units)
    # twins with opposite signs in ``col`` cancel; with equal signs they double
    @example(outer=[{0: 1, 2: -1}, {}, {}, {0: 1, 2: -1}, {}, {}], col={0: 1, 3: -1})
    @example(outer=[{0: 1, 2: -1}, {}, {}, {0: 1, 2: -1}, {}, {}], col={0: 1, 3: 1})
    def test_matches_the_exact_product(self, outer, col):
        signed = [_signed(c) for c in outer]
        assert _composes_to_zero(signed, _signed(col)) == (not _product(outer, col))


# --- pivot order and clearing against the ascending-tie, uncleared oracle --


def _inverse(pos):
    """The (vertex, label) index of each row, given the row of each index."""
    index = [0] * len(pos)
    for i, p in enumerate(pos):
        index[p] = i
    return index


def _reference(d, s):
    """(s, profile, rank d_in) with grading ties broken by ascending index
    and the prefix ranks of every d_out column, none skipped.

    The slice's rows of C^0 and C^1 are first mapped back to (vertex, label)
    indices through ``rows``; the reference then applies its own order.
    """
    pos0, pos1 = _positions(s, 0), _positions(s, 1)
    index0, index1 = _inverse(pos0), _inverse(pos1)
    q0 = [s.gradings[0][p] for p in pos0]
    order = sorted(range(len(q0)), key=lambda i: (q0[i], i))
    pos = [0] * len(q0)
    for p, i in enumerate(order):
        pos[i] = p

    def ascending(col):
        return {pos[index0[row]]: v for row, v in col.items()}

    in_pivots, _ = _dict_echelon(ascending(_entries(col)) for col in s.d_in)
    s_o, _ = canonical_cycles(s)
    reduced = _reduce_against(ascending(s_o.coefficients), in_pivots)
    low_grades = [q0[order[low]] for low in in_pivots]
    d_out = [{index1[row]: v for row, v in _entries(s.d_out[pos0[i]]).items()} for i in range(len(q0))]
    cols = sorted(range(len(q0)), key=lambda j: (-q0[j], j))
    # the columns of a prefix that reduce to zero span its kernel
    _, zero = _dict_echelon(d_out[j] for j in cols)
    profile = {}
    idx = 0
    for level in sorted(set(q0), reverse=True):
        while idx < len(cols) and q0[cols[idx]] >= level:
            idx += 1
        im = sum(1 for g in low_grades if g >= level)
        profile[level] = sum(1 for k in zero if k < idx) - im
    return q0[order[min(reduced)]] + 1, profile, len(in_pivots)


def _same_cycle(perm, a, b):
    """True when ``a`` and ``b`` lie in one cycle of the permutation ``perm``."""
    i = perm[a]
    while i != a and i != b:
        i = perm[i]
    return i == b


@st.composite
def _braid_knots(draw, max_crossings=7):
    """Knot closures of at most ``max_crossings`` crossings, built, not
    filtered: free letters, then one closing letter +-i for each adjacent
    strand pair i - 1, i that still lies in two cycles of the strand
    permutation.  Each closing letter merges two cycles, so the closure has
    one component."""
    strands = draw(st.integers(2, 4))
    letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    letters = draw(st.lists(letter, max_size=max_crossings - (strands - 1)))
    perm = list(range(strands))
    for k in letters:
        perm[abs(k) - 1], perm[abs(k)] = perm[abs(k)], perm[abs(k) - 1]
    for i in range(1, strands):
        if not _same_cycle(perm, i - 1, i):
            letters.append(draw(st.sampled_from((i, -i))))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
    d = braid_closure(BraidWord(strands, tuple(letters)))
    assert d.is_connected and d.is_knot and len(d.crossings) <= max_crossings
    return d


class TestPivotOrderAndClearing:
    @settings(max_examples=60, deadline=None)
    @given(d=_braid_knots())
    @example(d=MIXED)
    @example(d=FIG8)
    @example(d=mirror(TREFOIL))
    def test_matches_uncleared_ascending_tie_reference(self, d):
        s = build_slice(d)
        got = (s_invariant(s), filtration_profile(s), len(s.din_echelon))
        assert got == _reference(d, s)

        # every cleared d_out column reduces to zero against the columns
        # walked before it, in the order filtration_profile walks them: from
        # the top row of C^0 down, descending grading with ties by ascending
        # (vertex, label) index
        q0 = s.gradings[0]
        index0 = _inverse(_positions(s, 0))
        by_index = [q0[p] for p in _positions(s, 0)]
        walk = range(len(q0) - 1, -1, -1)
        assert [index0[row] for row in walk] == sorted(range(len(q0)), key=lambda j: (-by_index[j], j))
        _, zero = _dict_echelon(_entries(s.d_out[row]) for row in walk)
        assert {k for k, row in enumerate(walk) if row in s.din_echelon} <= zero

    def test_tie_order_keeps_din_fill_low(self):
        # a count, not a timing: ascending ties give 32.2 nonzeros per pivot
        d = braid_closure(BraidWord(3, (-1, -2, 2, -2, -1, 1, -1, -1, 1, 2)))
        pivots = build_slice(d).din_echelon
        assert len(pivots) == 2468
        assert sum(len(col) for col in pivots.values()) / len(pivots) <= 12


# --- the filtration profile against its definition ------------------------


def _definition_profile(s):
    """dim F^j H^0 at each grading j of C^0, over Q, from the definition:
    dim(F^j cap ker d_0) - (rank d_-1 - rank P_{<j} d_-1), where F^j is
    spanned by the generators of grading >= j and P_{<j} keeps only the rows
    of grading below j."""
    q0 = s.gradings[0]
    d_in = [_entries(col) for col in s.d_in]
    rank_in = len(_rational_echelon(d_in))
    profile = {}
    for j in sorted(set(q0), reverse=True):
        top = [i for i, g in enumerate(q0) if g >= j]
        ker = len(top) - len(_rational_echelon(_entries(s.d_out[i]) for i in top))
        below = ({t: v for t, v in col.items() if q0[t] < j} for col in d_in)
        profile[j] = ker - (rank_in - len(_rational_echelon(below)))
    return profile


class TestFiltrationProfileDefinition:
    def test_table_knots_up_to_seven_crossings(self):
        knots = [d for d in _table_knots() if len(d.crossings) <= 7]
        assert len(knots) == 15
        for d in knots:
            s = build_slice(d)
            assert filtration_profile(s) == _definition_profile(s)

    @settings(max_examples=40, deadline=None)
    @given(d=_braid_knots(max_crossings=6))
    @example(d=MIXED)
    @example(d=KINK)
    def test_braid_knots(self, d):
        s = build_slice(d)
        assert filtration_profile(s) == _definition_profile(s)


# --- clearing against the full echelon ------------------------------------

ORACLE_MID_WORDS = (
    "3: [-1,-2,2,-2,-1,1,-1,-1,1,2]",
    "2: [1,1,-1,-1,1,1,-1,1,-1]",
    "2: [-1,-1,1,-1,-1,1,1,-1,1]",
    "4: [-3,3,-2,3,3,-3,-1,-2,2]",
    "4: [-2,3,3,1,-2,2,2,-3,-2]",
)


def _zero_columns(columns):
    """The indices of the signed row pair ``columns`` that the echelon,
    nothing skipped, reduces to zero."""
    return _dict_echelon(map(_entries, columns))[1]


class TestClearing:
    @staticmethod
    def _assert_clearing_is_exact(d):
        s = build_slice(d)
        pivots, zero = _dict_echelon(map(_entries, s.d_in))
        assert s.din_echelon == pivots
        assert s.cleared <= zero
        # the cleared set is the top index of every d_-2 column, none lost
        sources = tuple(m for m in range(1 << len(d.crossings)) if m.bit_count() == d.n_minus - 2)
        circles = {m: d.resolution(m) for m in s.rows[-1]}
        rows = {m: range(off, off + (1 << circles[m].count)) for m, off in _offsets(s.rows[-1], circles).items()}
        assert s.cleared == {max(_entries(r)) for r in _build_matrix(d, sources, rows, circles, {})}

    @settings(max_examples=60, deadline=None)
    @given(d=_braid_knots())
    @example(d=MIXED)
    @example(d=FIG8)
    @example(d=mirror(TREFOIL))
    def test_braid_knots(self, d):
        self._assert_clearing_is_exact(d)

    def test_table_knots(self):
        for d in _table_knots():
            self._assert_clearing_is_exact(d)

    @pytest.mark.parametrize("word", ORACLE_MID_WORDS)
    def test_oracle_mid_knots(self, word):
        self._assert_clearing_is_exact(braid_closure(parse_braid(word)))

    def test_cleared_and_reduced_counts(self, calls):
        # counts, not timings: without clearing the echelon takes all 5292
        # columns, and without the untouched-column path it reduces each
        # column it takes
        s = build_slice(braid_closure(parse_braid(ORACLE_MID_WORDS[0])))
        taken = calls(slicebound.lee_oracle, "_add_column")
        reduced = calls(slicebound.lee_oracle, "_reduce_against")
        assert len(s.din_echelon) == 2468
        assert (s.dim(-1), len(s.cleared), len(taken), len(reduced)) == (5292, 2748, 2544, 197)

    def test_few_d_in_columns_reduce_to_zero(self):
        # a count, not a timing: in the given crossing numbering the echelon
        # reduces 1570 uncleared columns of these five slices to zero
        zero = 0
        for word in ORACLE_MID_WORDS:
            s = build_slice(braid_closure(parse_braid(word)))
            zero += len(_zero_columns([col for j, col in enumerate(s.d_in) if j not in s.cleared]))
        assert zero <= 300


class TestCompositeShortcut:
    """``_check_slice`` tests d_out . d_in = 0 only on the d_in columns that
    no verified relation clears.  Cross-checked against the full test: the
    composite vanishes on every d_in column, cleared ones included, and each
    cleared column j is the top of the first relation r streamed with that
    top, the one ``_check_slice`` verifies, whose other terms lie at smaller
    indices, so d_in[j] = -r_j sum_{i<j} r_i d_in[i]."""

    @pytest.fixture
    def streamed(self, monkeypatch):
        """The relations handed to ``_check_slice`` while the test runs."""
        seen = []
        check = slicebound.lee_oracle._check_slice

        def checking(s, relations=()):
            relations = list(relations)
            seen.append(relations)
            return check(s, relations)

        monkeypatch.setattr(slicebound.lee_oracle, "_check_slice", checking)
        return seen

    @staticmethod
    def _assert_shortcut_is_exact(d, streamed):
        streamed.clear()
        s = build_slice(d)
        (relations,) = streamed
        # no relations: the composite is tested on every d_in column
        assert _check_slice(s) == frozenset()
        first = {}
        for r in relations:
            first.setdefault(max(r[0] + r[1]), r)
        assert first.keys() == s.cleared
        d_in = [_entries(col) for col in s.d_in]
        for j, r in first.items():
            rel = _entries(r)
            assert all(i < j for i in rel if i != j)
            rest = {i: c for i, c in rel.items() if i != j}
            assert _product(d_in, rest) == {u: -rel[j] * v for u, v in d_in[j].items()}
        return s

    def test_table_knots_and_mirrors(self, streamed):
        knots = _table_knots()
        assert len(knots) == 36
        for d in knots:
            for side in (d, mirror(d)):
                self._assert_shortcut_is_exact(side, streamed)

    @pytest.mark.parametrize("word", ORACLE_MID_WORDS)
    def test_oracle_mid_knots(self, word, streamed):
        s = self._assert_shortcut_is_exact(braid_closure(parse_braid(word)), streamed)
        assert s.cleared

    def test_the_stream_repeats_tops(self, streamed):
        # counts: every d_-2 column is streamed, and the ones whose top is
        # already cleared are dropped unread
        cleared = sum(len(build_slice(braid_closure(parse_braid(word))).cleared) for word in ORACLE_MID_WORDS)
        assert (sum(map(len, streamed)), cleared) == (10944, 6896)


# --- the vertex order the slice is built in -------------------------------


def _identity_order(d, given):
    return list(range(len(d.crossings)))


def _permuted(d, order):
    """``d`` with its crossings listed in ``order``: crossing k of the copy
    is crossing ``order[k]`` of ``d``."""
    return Diagram(tuple(d.crossings[i] for i in order), d.free_loops)


def _order(d):
    """The crossing order ``build_slice`` takes for ``d``."""
    n = len(d.crossings)
    return _crossing_order(d, {m: d.resolution(m) for m in range(1 << n) if m.bit_count() == d.n_minus - 1})


def _weighted(mask, order):
    """``mask`` read with crossing ``order[k]`` worth 2^k."""
    return sum(1 << k for k, i in enumerate(order) if mask >> i & 1)


def _invariants(s):
    """What no crossing numbering may change: s, the profile, the dims,
    rank d_in and the multiset of the gradings of its echelon lows."""
    return (
        s_invariant(s),
        filtration_profile(s),
        (s.dim(-1), s.dim(0), s.dim(1)),
        len(s.din_echelon),
        Counter(s.gradings[0][low] for low in s.din_echelon),
    )


def _naive_scores(d):
    """count(u | 1 << i) - count(u) summed over the degree -1 vertices u
    without crossing i, each circle count from ``Diagram.resolution``."""
    n = len(d.crossings)
    masks = [m for m in range(1 << n) if m.bit_count() == d.n_minus - 1]
    return [
        sum(d.resolution(u | 1 << i).count - d.resolution(u).count for u in masks if not u >> i & 1)
        for i in range(n)
    ]


def _assert_vertex_order(s, order):
    """Each degree lists every mask of its weight, ascending with crossing
    ``order[k]`` worth 2^k."""
    n = len(s.diagram.crossings)
    for degree, masks in s.rows.items():
        weight = s.diagram.n_minus + degree
        assert sorted(masks) == [m for m in range(1 << n) if m.bit_count() == weight]
        weights = [_weighted(m, order) for m in masks]
        assert weights == sorted(weights)


def _assert_zero_columns_off_top_merge(s, order):
    """Every d_in column that the full echelon reduces to zero and whose
    vertex u lacks the top crossing t = ``order[-1]`` sits where flipping t
    merges two circles of u: no relation can clear it, which is why the top
    crossing should split."""
    d = s.diagram
    if not d.crossings:
        return
    t = 1 << order[-1]
    zero = _zero_columns(s.d_in)
    for u, block in s.rows[-1].items():
        if not u & t and zero.intersection(block):
            assert d.resolution(u | t).count < d.resolution(u).count


def _renumbered_reference(d, order):
    """The slice of ``d`` with its crossings renumbered in ``order`` and then
    built in that numbering, masks ascending: for the order of
    ``_crossing_order``, the vertex order of ``build_slice(d)`` with each
    mask translated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slicebound.lee_oracle, "_crossing_order", _identity_order)
        return build_slice(_permuted(d, order))


def _magnitudes(echelon):
    return {low: sorted((row, abs(v)) for row, v in col.items()) for low, col in echelon.items()}


class TestCrossingOrder:
    @staticmethod
    def _assert_numbering_invariant(d, rng):
        """The slice of ``d`` and of ``d`` under a random crossing
        permutation, each built in its own order and in the order given,
        agree on every invariant, and each keeps the diagram passed in."""
        n = len(d.crossings)
        permuted = _permuted(d, rng.sample(range(n), n))
        built = [(d, build_slice(d), _order(d)), (permuted, build_slice(permuted), _order(permuted))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slicebound.lee_oracle, "_crossing_order", _identity_order)
            built += [(diagram, build_slice(diagram), range(n)) for diagram in (d, permuted)]
        expected = _invariants(built[0][1])
        for diagram, s, order in built:
            assert s.diagram is diagram
            assert _invariants(s) == expected
            _assert_vertex_order(s, order)
            _assert_zero_columns_off_top_merge(s, order)

    @settings(max_examples=40, deadline=None)
    @given(d=_braid_knots(), seed=st.integers(0, 2**32 - 1))
    @example(d=MIXED, seed=0)
    @example(d=FIG8, seed=0)
    @example(d=mirror(TREFOIL), seed=0)
    def test_braid_knots(self, d, seed):
        self._assert_numbering_invariant(d, random.Random(seed))

    def test_table_knots(self):
        rng = random.Random(1)
        for d in _table_knots():
            self._assert_numbering_invariant(d, rng)

    @pytest.mark.parametrize("word", ORACLE_MID_WORDS)
    def test_oracle_mid_knots(self, word):
        self._assert_numbering_invariant(braid_closure(parse_braid(word)), random.Random(word))

    @staticmethod
    def _assert_matches_renumbered_reference(d):
        """Vertex order in the input numbering builds the slice of the
        renumbered copy: the same vertices under the translated masks, each
        at the same indices, the same gradings and cleared columns, and the
        same echelon lows with the same absolute coefficients (cube edge
        signs are taken in each slice's own numbering)."""
        order = _order(d)
        s, ref = build_slice(d), _renumbered_reference(d, order)
        assert s.diagram is d
        for degree in (-1, 0, 1):
            assert [_weighted(m, order) for m in s.rows[degree]] == list(ref.rows[degree])
            assert list(s.rows[degree].values()) == list(ref.rows[degree].values())
        assert s.gradings == ref.gradings
        assert s.cleared == ref.cleared
        assert _magnitudes(s.din_echelon) == _magnitudes(ref.din_echelon)

    def test_table_knots_match_the_renumbered_reference(self):
        for d in _table_knots():
            self._assert_matches_renumbered_reference(d)

    @pytest.mark.parametrize("word", ORACLE_MID_WORDS)
    def test_oracle_mid_knots_match_the_renumbered_reference(self, word):
        self._assert_matches_renumbered_reference(braid_closure(parse_braid(word)))

    @settings(max_examples=40, deadline=None)
    @given(d=_braid_knots())
    @example(d=FIG8)
    @example(d=mirror(TREFOIL))
    def test_order_sorts_by_the_naive_score(self, d):
        n = len(d.crossings)
        given = {m: d.resolution(m) for m in range(1 << n) if m.bit_count() == d.n_minus - 1}
        order = _crossing_order(d, given)
        scores = _naive_scores(d)
        assert order == sorted(range(n), key=lambda i: (scores[i], i))
        assert order == _crossing_order(d, dict(reversed(given.items())))  # deterministic
        if n:
            assert scores[order[-1]] == max(scores)
        s = build_slice(d)
        assert s.diagram is d
        _assert_vertex_order(s, order)

    @pytest.mark.parametrize("word", ["1: []", "2: [1]", "2: [1,1,1]", "3: [1,2,1,2]"])
    def test_no_degree_minus_one_vertex_keeps_the_given_order(self, word):
        d = braid_closure(parse_braid(word))
        assert d.n_minus == 0
        assert _crossing_order(d, {}) == list(range(len(d.crossings)))
        s = build_slice(d)
        assert s.diagram is d
        _assert_vertex_order(s, range(len(d.crossings)))

    def test_one_negative_crossing(self):
        # the only degree -1 vertex is the empty mask, and flipping the one
        # crossing of 2: [-1] splits the one circle of its 0-smoothing
        d = braid_closure(parse_braid("2: [-1]"))
        assert _naive_scores(d) == [1]
        assert _crossing_order(d, {0: d.resolution(0)}) == [0]
        s = build_slice(d)
        assert s.diagram is d and s_invariant(s) == 0


# --- table-driven cube construction against the accumulate-style builder ---


def _reference_grade(labels, k, mask, n_plus, n_minus):
    return (k - 2 * labels.bit_count()) + mask.bit_count() + n_plus - 2 * n_minus


def _reference_build_matrix(d, sources, src_offsets, tgt_offsets, circles):
    """The cube differential built label by label and circle by circle, each
    entry accumulated with ``dict.get``."""
    n = len(d.crossings)
    total = sum(1 << circles[m].count for m in sources)
    cols = [dict() for _ in range(total)]
    for m in sources:
        ca = circles[m]
        base = src_offsets[m]
        for i in range(n):
            if m >> i & 1:
                continue
            m2 = m | 1 << i
            if m2 not in tgt_offsets:
                continue
            sign = -1 if (m & ((1 << i) - 1)).bit_count() % 2 else 1
            cb = circles[m2]
            tbase = tgt_offsets[m2]
            a, b, _, _ = d.crossings[i].edges
            src_a = ca.circle_of_edge[a]
            if cb.count == ca.count - 1:
                src_c = ca.circle_of_edge[d.crossings[i].edges[2]]
                tgt_of = [cb.circle_of_edge[rep] for rep in ca.reps]
                merged = tgt_of[src_a]
                for label in range(1 << ca.count):
                    out = 0
                    merged_bit = 0
                    for j in range(ca.count):
                        bit = label >> j & 1
                        if j == src_a or j == src_c:
                            merged_bit ^= bit
                        elif bit:
                            out |= 1 << tgt_of[j]
                    out |= merged_bit << merged
                    col = cols[base + label]
                    tgt = tbase + out
                    col[tgt] = col.get(tgt, 0) + sign
            else:
                assert cb.count == ca.count + 1
                t1 = cb.circle_of_edge[a]
                t2 = cb.circle_of_edge[b]
                tgt_of = [cb.circle_of_edge[rep] if j != src_a else -1 for j, rep in enumerate(ca.reps)]
                for label in range(1 << ca.count):
                    out = 0
                    for j in range(ca.count):
                        if j != src_a and label >> j & 1:
                            out |= 1 << tgt_of[j]
                    col = cols[base + label]
                    if label >> src_a & 1:
                        terms = (out | 1 << t1 | 1 << t2, out)
                    else:
                        terms = (out | 1 << t2, out | 1 << t1)
                    for out_label in terms:
                        tgt = tbase + out_label
                        col[tgt] = col.get(tgt, 0) + sign
    return cols


def _offsets(masks, circles):
    """{mask: (vertex, label) index of its label 0} for vertices ``masks``,
    each carrying 2^circles labels, in the order given."""
    offsets, total = {}, 0
    for m in masks:
        offsets[m] = total
        total += 1 << circles[m].count
    return offsets


def _index_gradings(d, s):
    """degree -> q of each generator in (vertex, label) order, circles found
    with ``Diagram.resolution``."""
    grades = {}
    for degree, masks in s.rows.items():
        counts = [d.resolution(m).count for m in masks]
        grades[degree] = tuple(
            _reference_grade(label, k, m, d.n_plus, d.n_minus)
            for m, k in zip(masks, counts)
            for label in range(1 << k)
        )
    return grades


def _at_rows(values, pos):
    """``values`` listed by (vertex, label) index, re-listed by row."""
    out = [None] * len(values)
    for value, p in zip(values, pos):
        out[p] = value
    return out


def _table_knots():
    with open(slicebound.checks.bundled_table_path(), newline="", encoding="utf-8") as fh:
        return [parse_pd(row["pd"]).diagram for row in csv.DictReader(fh)]


class TestTableDrivenConstruction:
    @staticmethod
    def _assert_matches_reference(d):
        s = build_slice(d)
        circles = {m: d.resolution(m) for masks in s.rows.values() for m in masks}
        grades = _index_gradings(d, s)
        pos0, pos1 = _positions(s, 0), _positions(s, 1)
        offsets = {degree: _offsets(masks, circles) for degree, masks in s.rows.items()}
        assert s.gradings[-1] == grades[-1]
        assert list(s.gradings[0]) == _at_rows(grades[0], pos0)
        assert list(s.gradings[1]) == _at_rows(grades[1], pos1)
        d_in = _reference_build_matrix(d, tuple(s.rows[-1]), offsets[-1], offsets[0], circles)
        d_out = _reference_build_matrix(d, tuple(s.rows[0]), offsets[0], offsets[1], circles)
        assert [_entries(col) for col in s.d_in] == [{pos0[t]: v for t, v in col.items()} for col in d_in]
        assert [_entries(col) for col in s.d_out] == _at_rows(
            [{pos1[t]: v for t, v in col.items()} for col in d_out], pos0
        )

    @settings(max_examples=60, deadline=None)
    @given(d=_braid_knots())
    @example(d=MIXED)
    @example(d=FIG8)
    @example(d=mirror(TREFOIL))
    @example(d=KINK)  # a merge of 2 circles into 1
    @example(d=mirror(KINK))  # a split from a 1-circle vertex: two 2-entry gathers
    def test_braid_knots_match_the_accumulating_builder(self, d):
        self._assert_matches_reference(d)

    def test_table_knots_match_the_accumulating_builder(self):
        knots = _table_knots()
        assert len(knots) == 36
        for d in knots:
            self._assert_matches_reference(d)

    def test_a_flip_that_keeps_the_circle_count_is_inconsistent(self):
        # in a planar diagram flipping one crossing merges or splits; here the
        # kink's target vertex 1 is handed the circles of vertex 0
        circles = {0: KINK.resolution(0), 1: KINK.resolution(0)}
        with pytest.raises(ConsistencyError, match="^resolution change at crossing 0 is not a merge or split; "
                                                   "diagram data is not planar$"):
            list(_build_matrix(KINK, (0,), {}, circles, {}))


class TestGathers:
    """Each distinct label table is built once per slice, and the one
    ``gathers`` dict that the three builds of a slice share gives the same
    columns as a fresh dict per ``_build_matrix`` call."""

    # counts, not timings: one table per (vertex, flipped crossing) built
    # 9408 tables on the oracle-mid words and 11787 on the table knots

    def test_label_tables_on_the_oracle_mid_words(self, calls):
        tables = calls(slicebound.lee_oracle, "_label_table")
        for word in ORACLE_MID_WORDS:
            build_slice(braid_closure(parse_braid(word)))
        assert len(tables) <= 450

    def test_label_tables_on_the_table_knots(self, calls):
        knots = _table_knots()
        tables = calls(slicebound.lee_oracle, "_label_table")
        for d in knots:
            build_slice(d)
        assert len(tables) <= 800

    @staticmethod
    def _assert_sharing_changes_nothing(d):
        shared = build_slice(d)
        build = slicebound.lee_oracle._build_matrix
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slicebound.lee_oracle, "_build_matrix", lambda *args: build(*args[:-1], {}))
            fresh = build_slice(d)
        assert shared.d_in == fresh.d_in
        assert shared.d_out == fresh.d_out
        assert shared.gradings == fresh.gradings
        assert shared.rows == fresh.rows
        assert shared.cleared == fresh.cleared

    @settings(max_examples=40, deadline=None)
    @given(d=_braid_knots())
    @example(d=KINK)
    @example(d=TREFOIL)  # n_minus = 0: no d_in, d_out alone
    def test_shared_gathers_match_fresh_ones(self, d):
        for side in (d, mirror(d)):
            self._assert_sharing_changes_nothing(side)


BASELINE_12A = "5: [4,2,-4,3,-1,-2,4,-2,-4,3,-3,-4]"


def _dict_column_echelon(d, s):
    """(d_in echelon, cleared) of the dict-column construction.

    ``_reference_build_matrix`` builds d_in, keyed by the slice's C^0 rows,
    and every d_-2 relation.  The first relation for each new top index is
    checked exactly, unit entries and a zero product with d_in, and the
    echelon takes the uncleared columns as integer dicts.
    """
    sources = tuple(m for m in range(1 << len(d.crossings)) if m.bit_count() == d.n_minus - 2)
    circles = {m: d.resolution(m) for m in chain(sources, s.rows[-1], s.rows[0])}
    offsets = {degree: _offsets(s.rows[degree], circles) for degree in (-1, 0)}
    pos0 = _positions(s, 0)
    d_in = [
        {pos0[t]: v for t, v in col.items()}
        for col in _reference_build_matrix(d, tuple(s.rows[-1]), offsets[-1], offsets[0], circles)
    ]
    cleared = set()
    for r in _reference_build_matrix(d, sources, _offsets(sources, circles), offsets[-1], circles):
        j = max(r)
        if j not in cleared:
            assert set(r.values()) <= {1, -1}
            assert not _product(d_in, r)
            cleared.add(j)
    echelon, _ = _dict_echelon(col for j, col in enumerate(d_in) if j not in cleared)
    return echelon, cleared


class TestDictColumnEquivalence:
    """The slice's signed row pairs against the dict-column construction:
    the same cleared columns, and the same d_in echelon, every low and every
    column."""

    @staticmethod
    def _assert_equivalent(d):
        s = build_slice(d)
        echelon, cleared = _dict_column_echelon(d, s)
        assert s.cleared == cleared
        assert s.din_echelon.keys() == echelon.keys()
        for low, col in echelon.items():
            assert s.din_echelon[low] == col

    def test_table_knots(self):
        knots = _table_knots()
        assert len(knots) == 36
        for d in knots:
            self._assert_equivalent(d)

    @pytest.mark.parametrize("word", ORACLE_MID_WORDS + (BASELINE_12A,))
    def test_braid_words(self, word):
        self._assert_equivalent(braid_closure(parse_braid(word)))

    @pytest.mark.parametrize("word", ORACLE_MID_WORDS + (BASELINE_12A,))
    def test_the_bench_tracer_reads_the_reference_counts(self, word):
        # bench/tracing.py reads every pivot the echelon returns through
        # len and values: rank, nonzeros, max fill and max coefficient bits
        def observed(pivots):
            cols = list(pivots.values())
            fill = [len(col) for col in cols]
            bits = max(abs(v).bit_length() for col in cols for v in col.values())
            return len(cols), sum(fill), max(fill), bits

        d = braid_closure(parse_braid(word))
        s = build_slice(d)
        echelon, _ = _dict_column_echelon(d, s)
        assert observed(s.din_echelon) == observed(echelon)


class _ReadLows(dict):
    """Pivots that record, in ``read``, the low of every pivot that
    ``_reduce_against`` looks up and finds."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, low, default=None):
        piv = super().get(low, default)
        if piv is not None:
            self.read.add(low)
        return piv


def _lazy_reference(columns, extras=()):
    """(pivots, untouched lows, reduced count) of the all-dict echelon of the
    signed row pairs ``columns``, after each dict of ``extras`` is reduced
    against it: the lows of the columns taken without reduction, and how
    many columns were reduced; ``pivots.read`` holds every low read."""
    pivots, untouched, reduced = _ReadLows(), set(), 0
    for pair in columns:
        col = _entries(pair)
        if not col:
            continue
        low = min(col)
        if low not in pivots:
            pivots[low] = col
            untouched.add(low)
            continue
        reduced += 1
        red = _reduce_against(col, pivots)
        if red:
            pivots[min(red)] = _strip(red)
    for vec in extras:
        _reduce_against(dict(vec), pivots)
    return pivots, untouched, reduced


class TestLazyPivots:
    """A column that an echelon takes without reduction stays a view of its
    stored row pair until a reduction reads it: counted, not timed."""

    def test_din_pivots_are_dicts_only_where_reduced_or_read(self, calls):
        s = build_slice(braid_closure(parse_braid(ORACLE_MID_WORDS[0])))
        as_dict = calls(slicebound.lee_oracle, "_as_dict")
        filtration_profile(s)
        s_invariant(s)
        built = len(as_dict)
        s_o, _ = canonical_cycles(s)
        ref, untouched, reduced = _lazy_reference(
            [col for j, col in enumerate(s.d_in) if j not in s.cleared], [s_o.coefficients]
        )
        assert s.din_echelon == ref
        dicts = {low for low, col in s.din_echelon.items() if type(col) is dict}
        read = untouched & ref.read
        assert dicts == (ref.keys() - untouched) | read
        assert (len(ref), len(dicts), len(read), reduced) == (2468, 463, 342, 197)
        # the profile adds its own dicts, counted in the test below
        assert built - 209 == reduced + len(read)

    def test_the_profile_builds_a_dict_only_for_a_column_reduced_or_read(self, calls):
        s = build_slice(braid_closure(parse_braid(ORACLE_MID_WORDS[0])))
        in_pivots = s.din_echelon
        built = calls(slicebound.lee_oracle, "_as_dict")
        filtration_profile(s)
        walked = [s.d_out[row] for row in reversed(range(s.dim(0))) if row not in in_pivots]
        ref, untouched, reduced = _lazy_reference(walked)
        assert len(built) == reduced + len(untouched & ref.read) == 209
        assert len(ref) == 1376

    def test_dicts_per_oracle_mid_round(self, calls, capsys):
        # one round of the oracle-mid workload: bound --oracle and oracle on
        # each word; an echelon that built a dict of every column it took
        # built 17670; this one builds 1833
        built = calls(slicebound.lee_oracle, "_as_dict")
        for word in ORACLE_MID_WORDS:
            assert slicebound.cli.main(["bound", "--braid", word, "--oracle"]) == 0
            assert slicebound.cli.main(["oracle", "--braid", word]) == 0
        capsys.readouterr()
        assert len(built) <= 1870

    def test_views_read_as_their_dicts(self):
        s = build_slice(braid_closure(parse_braid(ORACLE_MID_WORDS[1])))
        views = [col for col in s.din_echelon.values() if type(col) is not dict]
        assert views
        for view in views:
            entries = _entries(view.pair)
            assert view == entries and entries == view
            assert dict(view.items()) == entries and list(view) == list(entries)
            assert sorted(view.values()) == sorted(entries.values()) and len(view) == len(entries)
            assert all(view[row] == v for row, v in entries.items())
            with pytest.raises(KeyError):
                view[-1]


class TestReleasedResolutions:
    def test_degree_zero_and_one_resolutions_die_before_the_first_relation(self, monkeypatch):
        d = braid_closure(parse_braid(ORACLE_MID_WORDS[0]))
        d.seifert_circles  # cached on the diagram, so it outlives any slice
        resolve = Diagram.resolution
        refs = []

        def tracked(self, mask):
            circles = resolve(self, mask)
            if mask.bit_count() - self.n_minus in (0, 1):
                refs.append(weakref.ref(circles))
            return circles

        check = slicebound.lee_oracle._check_slice
        alive = []

        def checking(s, relations=()):
            def first_read():
                alive.append(sum(ref() is not None for ref in refs))
                yield from relations

            return check(s, first_read())

        monkeypatch.setattr(Diagram, "resolution", tracked)
        monkeypatch.setattr(slicebound.lee_oracle, "_check_slice", checking)
        s = build_slice(d)
        # every degree 0 and 1 vertex but the oriented resolution
        assert len(refs) == len(s.rows[0]) - 1 + len(s.rows[1])
        assert alive == [0]


class TestRowNumbering:
    def test_c0_and_c1_are_numbered_by_filtration_row(self):
        for d in (MIXED, FIG8, mirror(TREFOIL), _table_knots()[-1]):
            s = build_slice(d)
            grades = _index_gradings(d, s)
            for degree in (0, 1):
                q = s.gradings[degree]
                assert list(q) == sorted(q)
                assert _positions(s, degree) == _row_order(grades[degree])[0]
                assert all(q[p] == g for p, g in zip(_positions(s, degree), grades[degree]))

    @example(q=())
    @example(q=(3,) * 40)
    @given(q=st.lists(st.integers(-12, 12), max_size=200).map(tuple))
    def test_row_order_matches_the_keyed_sort(self, q):
        order = sorted(range(len(q)), key=lambda i: (q[i], -i))
        assert _row_order(q) == (_inverse(order), order)

    def test_c_minus_one_is_not_permuted(self):
        s = build_slice(FIG8)
        grades = _index_gradings(FIG8, s)[-1]
        assert list(grades) != sorted(grades)  # so a sorted C^-1 would show
        assert s.gradings[-1] == grades
        assert len(s.d_in) == len(grades)
        assert _positions(s, -1) == list(range(len(grades)))


# --- the structural check catches corrupted differentials -----------------


class TestCheckSliceMutations:
    """Each corruption of a built slice raises in ``_check_slice``, and the
    message names the check that caught it."""

    @pytest.fixture(scope="class")
    def fig8(self):
        s = build_slice(FIG8)
        assert s.dim(-1) and s.dim(1)
        return s

    @staticmethod
    def _entry(s):
        """A d_in column j and a target t of it whose d_out column is nonempty."""
        return next((j, t) for j, col in enumerate(s.d_in) for t in _entries(col) if _entries(s.d_out[t]))

    @staticmethod
    def _with_column(s, matrix, j, col):
        cols = list(getattr(s, matrix))
        cols[j] = col
        return dataclasses.replace(s, **{matrix: tuple(cols)})

    def _with_row_repeated(self, s, matrix, same_half):
        """The slice with one entry's row named again: in its own half (an
        entry 2) or in the other half (an entry 0)."""
        j, t = self._entry(s)
        if matrix == "d_out":
            j, t = t, next(iter(_entries(s.d_out[t])))
        plus, minus = getattr(s, matrix)[j]
        if (t in plus) == same_half:
            plus += (t,)
        else:
            minus += (t,)
        return self._with_column(s, matrix, j, (plus, minus))

    def test_built_slice_passes(self, fig8):
        _check_slice(fig8)

    def test_flipped_d_out_sign(self, fig8):
        _, t = self._entry(fig8)
        col = _entries(fig8.d_out[t])
        u = next(iter(col))
        col[u] = -col[u]
        with pytest.raises(ConsistencyError, match=r"d_out \. d_in != 0"):
            _check_slice(self._with_column(fig8, "d_out", t, _signed(col)))

    def test_deleted_d_in_entry(self, fig8):
        j, t = self._entry(fig8)
        col = _entries(fig8.d_in[j])
        del col[t]
        with pytest.raises(ConsistencyError, match=r"d_out \. d_in != 0"):
            _check_slice(self._with_column(fig8, "d_in", j, _signed(col)))

    @pytest.mark.parametrize("matrix", ["d_in", "d_out"])
    def test_entry_two(self, fig8, matrix):
        # a row named twice in one half is the signed-row form of entry 2
        with pytest.raises(ConsistencyError, match="non-unit"):
            _check_slice(self._with_row_repeated(fig8, matrix, same_half=True))

    @pytest.mark.parametrize("matrix", ["d_in", "d_out"])
    def test_row_in_both_halves(self, fig8, matrix):
        # a row named once in each half is the signed-row form of entry 0
        with pytest.raises(ConsistencyError, match="non-unit"):
            _check_slice(self._with_row_repeated(fig8, matrix, same_half=False))

    def test_entry_moved_within_its_grading(self, fig8):
        j, t = self._entry(fig8)
        q0 = fig8.gradings[0]
        col = _entries(fig8.d_in[j])
        t2 = next(i for i, q in enumerate(q0)
                  if q == q0[t] and i not in col and _entries(fig8.d_out[i]) != _entries(fig8.d_out[t]))
        col[t2] = col.pop(t)
        with pytest.raises(ConsistencyError, match=r"d_out \. d_in != 0"):
            _check_slice(self._with_column(fig8, "d_in", j, _signed(col)))

    def test_entry_moved_to_an_unfiltered_grading(self, fig8):
        j, t = self._entry(fig8)
        q0 = fig8.gradings[0]
        src_q = fig8.gradings[-1][j]
        col = _entries(fig8.d_in[j])
        t2 = next(i for i, q in enumerate(q0) if q - src_q not in (0, 4) and i not in col)
        col[t2] = col.pop(t)
        with pytest.raises(ConsistencyError, match=f"not filtered: {src_q} -> {q0[t2]}$"):
            _check_slice(self._with_column(fig8, "d_in", j, _signed(col)))

    def test_cleared_is_not_read(self, fig8):
        # a slice that claims every column cleared, checked with no relations:
        # the composite is still tested on every d_in column
        j, t = self._entry(fig8)
        col = _entries(fig8.d_in[j])
        del col[t]
        s = self._with_column(fig8, "d_in", j, _signed(col))
        s = dataclasses.replace(s, cleared=frozenset(range(fig8.dim(-1))))
        with pytest.raises(ConsistencyError, match=r"d_out \. d_in != 0"):
            _check_slice(s)

    def test_unfiltered_message_names_the_first_entry_in_column_order(self, fig8):
        j, _ = self._entry(fig8)
        q0 = fig8.gradings[0]
        src_q = fig8.gradings[-1][j]
        plus, minus = fig8.d_in[j]
        # the +1 rows come first in column order, then the -1 rows
        bad = [i for i, q in enumerate(q0) if q - src_q not in (0, 4)]
        first, last = bad[0], bad[-1]
        assert q0[first] != q0[last]
        col = (plus + (first,), minus + (last,))
        with pytest.raises(ConsistencyError, match=f"not filtered: {src_q} -> {q0[first]}$"):
            _check_slice(self._with_column(fig8, "d_in", j, col))

    @pytest.mark.parametrize("matrix", ["d_in", "d_out"])
    def test_unfiltered_entry_after_a_repeated_row_is_reported(self, fig8, matrix):
        # the column's first row named again at its head, so the repeat
        # comes first in column order and the unfiltered entry last: the
        # column still reports the unfiltered entry
        j, t = self._entry(fig8)
        src_deg = -1
        if matrix == "d_out":
            j, src_deg = t, 0
        plus, minus = getattr(fig8, matrix)[j]
        src_q = fig8.gradings[src_deg][j]
        tgt_q = fig8.gradings[src_deg + 1]
        bad = next(i for i, q in enumerate(tgt_q) if q - src_q not in (0, 4) and i not in plus + minus)
        col = (((plus + minus)[0],) + plus, minus + (bad,))
        with pytest.raises(ConsistencyError, match=f"not filtered: {src_q} -> {tgt_q[bad]}$"):
            _check_slice(self._with_column(fig8, matrix, j, col))


class TestOracleReadMutations:
    """Each corruption of a built slice raises in the check of the oracle
    read that meets it: ``s_invariant``, ``canonical_cycles`` or
    ``filtration_profile``, each on a fresh slice, so no echelon is shared."""

    @pytest.fixture(scope="class")
    def fig8(self):
        return build_slice(FIG8)

    @staticmethod
    def _with_d_in_cycles(s, cycles):
        """The slice with the signed row pair of each of ``cycles`` appended
        to d_in, so that each is a boundary."""
        return dataclasses.replace(s, d_in=s.d_in + tuple(_signed(c.coefficients) for c in cycles))

    @staticmethod
    def _with_c0_gradings(s, shift):
        q0 = s.gradings[0]
        return dataclasses.replace(s, gradings={**s.gradings, 0: tuple(q + shift(q) for q in q0)})

    def test_canonical_class_is_a_boundary(self, fig8):
        s_o, _ = canonical_cycles(fig8)
        with pytest.raises(ConsistencyError, match="^canonical class vanishes in homology$"):
            s_invariant(self._with_d_in_cycles(fig8, [s_o]))

    def test_odd_s(self, fig8):
        low = min(fig8.gradings[0])
        s = self._with_c0_gradings(fig8, lambda q: int(q > low))
        with pytest.raises(ConsistencyError, match="^s = 1 is odd"):
            s_invariant(s)

    def test_shifted_canonical_cycle_grading(self, fig8):
        s = self._with_c0_gradings(fig8, lambda q: 2)
        with pytest.raises(ConsistencyError, match="^canonical cycle minimum grading -1 != -3$"):
            canonical_cycles(s)

    def test_profile_without_boundaries(self, fig8):
        s = dataclasses.replace(fig8, d_in=(), gradings={**fig8.gradings, -1: ()})
        with pytest.raises(ConsistencyError, match="^filtration profile is not a 0/1/2 staircase: 4 at 1$"):
            filtration_profile(s)

    def test_profile_with_both_canonical_classes_bounding(self, fig8):
        s = self._with_d_in_cycles(fig8, canonical_cycles(fig8))
        with pytest.raises(ConsistencyError, match="^dim H\\^0 = 0, expected 2 for a knot$"):
            filtration_profile(s)


def _twice(terms):
    return f"rows {sorted(t for t, k in Counter(terms).items() if k > 1)} repeat"


def _reference_check(s, relations=()):
    """``_check_slice`` by the per-column rule: every filter test of a
    column, then a set of its rows; the composites as exact products."""
    for src_deg, cols in ((-1, s.d_in), (0, s.d_out)):
        src_q = s.gradings[src_deg]
        tgt_q = s.gradings[src_deg + 1]
        for q, (plus, minus) in zip(src_q, cols):
            terms = plus + minus
            for t in terms:
                if tgt_q[t] - q not in (0, 4):
                    raise ConsistencyError(f"differential is not filtered: {q} -> {tgt_q[t]}")
            if len(set(terms)) < len(terms):
                raise ConsistencyError(f"differential has a non-unit entry: {_twice(terms)}")
    d_in = [_entries(col) for col in s.d_in]
    d_out = [_entries(col) for col in s.d_out]
    cleared = set()
    for r in relations:
        terms = r[0] + r[1]
        j = max(terms)
        if j in cleared:
            continue
        if len(set(terms)) < len(terms):
            raise ConsistencyError(f"clearing relation has a non-unit entry: {_twice(terms)}")
        if _product(d_in, _entries(r)):
            raise ConsistencyError("clearing relation: d_in . d_-2 != 0")
        cleared.add(j)
    for j, col in enumerate(d_in):
        if j not in cleared and _product(d_out, col):
            raise ConsistencyError("d_out . d_in != 0")
    return frozenset(cleared)


def _outcome(check, s, relations):
    try:
        return "passes", check(s, relations)
    except ConsistencyError as e:
        return "raises", str(e)


@functools.cache
def _corruptible(name):
    """The built slice of FIG8 or TREFOIL, and its d_-2 relations."""
    d = {"figure-eight": FIG8, "trefoil": TREFOIL}[name]
    s = build_slice(d)
    circles = {m: d.resolution(m) for m in s.rows[-1]}
    sources = tuple(m for m in range(1 << len(d.crossings)) if m.bit_count() == d.n_minus - 2)
    return s, tuple(_build_matrix(d, sources, s.rows[-1], circles, {}))


class TestCheckSliceReference:
    """Random corruptions of built slices and their relations: ``_check_slice``
    raises exactly the message of the per-column reference, or passes with
    the same cleared set where the reference passes."""

    def test_relations_reach_the_reference(self):
        s, relations = _corruptible("figure-eight")
        assert relations and _reference_check(s, relations) == _check_slice(s, relations) == build_slice(FIG8).cleared

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_column_reference(self, data):
        s, relations = _corruptible(data.draw(st.sampled_from(("figure-eight", "trefoil"))))
        mats = {"d_in": list(s.d_in), "d_out": list(s.d_out), "relations": list(relations)}
        target = {"d_in": s.gradings[0], "d_out": s.gradings[1], "relations": s.gradings[-1]}
        which = j = None
        for _ in range(data.draw(st.integers(1, 3))):
            # each corruption after the first may hit the column before it again
            if which is None or not data.draw(st.booleans()):
                which = data.draw(st.sampled_from([m for m, cols in mats.items() if any(map(any, cols))]))
                j = data.draw(st.sampled_from([j for j, col in enumerate(mats[which]) if any(col)]))
            halves = [list(half) for half in mats[which][j]]
            if not any(halves):
                continue
            h = data.draw(st.sampled_from([h for h in (0, 1) if halves[h]]))
            i = data.draw(st.integers(0, len(halves[h]) - 1))
            t = halves[h][i]
            kind = data.draw(st.sampled_from(("own half", "other half", "other grading", "deleted")))
            if kind == "deleted":
                del halves[h][i]
            elif kind == "other grading":
                q = target[which]
                halves[h][i] = data.draw(st.sampled_from([u for u in range(len(q)) if q[u] != q[t]]))
            else:
                dest = h if kind == "own half" else 1 - h
                halves[dest].insert(data.draw(st.integers(0, len(halves[dest]))), t)
            mats[which][j] = tuple(map(tuple, halves))
        corrupted = dataclasses.replace(s, d_in=tuple(mats["d_in"]), d_out=tuple(mats["d_out"]))
        rels = [r for r in mats["relations"] if any(r)]  # an emptied relation has no top index
        assert _outcome(_check_slice, corrupted, rels) == _outcome(_reference_check, corrupted, rels)


class TestClearingMutations:
    """A corrupted d_-2 relation raises in ``build_slice``, and the message
    names the clearing check."""

    @staticmethod
    def _build_with_first_relation(monkeypatch, corrupt):
        """Build FIG8 with ``corrupt`` applied to the first d_-2 relation,
        handed over as a pair of lists [plus rows, minus rows]."""
        build = slicebound.lee_oracle._build_matrix

        def building(d, sources, *args):
            cols = build(d, sources, *args)
            if sources and sources[0].bit_count() == d.n_minus - 2:
                first = [list(half) for half in next(cols)]
                corrupt(first)
                cols = chain([tuple(map(tuple, first))], cols)
            return cols

        monkeypatch.setattr(slicebound.lee_oracle, "_build_matrix", building)
        return build_slice(Diagram(FIG8.crossings))

    @staticmethod
    def _half_of_min(col):
        """The index of the half holding the relation's lowest row, and that row."""
        t = min(col[0] + col[1])
        return (0 if t in col[0] else 1), t

    def test_intact_relations_pass(self, monkeypatch):
        s = self._build_with_first_relation(monkeypatch, lambda col: None)
        assert s.cleared

    def test_flipped_sign(self, monkeypatch):
        def flip(col):
            half, t = self._half_of_min(col)
            col[half].remove(t)
            col[1 - half].append(t)

        with pytest.raises(ConsistencyError, match=r"clearing relation: d_in \. d_-2 != 0"):
            self._build_with_first_relation(monkeypatch, flip)

    def test_entry_two(self, monkeypatch):
        def double(col):
            half, t = self._half_of_min(col)
            col[half].append(t)

        with pytest.raises(ConsistencyError, match="clearing relation has a non-unit entry"):
            self._build_with_first_relation(monkeypatch, double)

    def test_row_in_both_halves(self, monkeypatch):
        def cancel(col):
            half, t = self._half_of_min(col)
            col[1 - half].append(t)

        with pytest.raises(ConsistencyError, match="clearing relation has a non-unit entry"):
            self._build_with_first_relation(monkeypatch, cancel)

    def test_only_the_first_relation_of_a_top_is_read(self):
        s = build_slice(FIG8)
        circles = {m: FIG8.resolution(m) for m in s.rows[-1]}
        sources = tuple(m for m in range(1 << len(FIG8.crossings)) if m.bit_count() == FIG8.n_minus - 2)
        r = next(_build_matrix(FIG8, sources, s.rows[-1], circles, {}))
        # the same top, the lowest row's sign flipped: d_in . r' != 0
        half, t = self._half_of_min(r)
        flipped = [list(h) for h in r]
        flipped[half].remove(t)
        flipped[1 - half].append(t)
        r2 = tuple(map(tuple, flipped))
        top = max(r[0] + r[1])
        assert max(r2[0] + r2[1]) == top
        assert _check_slice(s, [r, r2]) == {top}
        with pytest.raises(ConsistencyError, match=r"clearing relation: d_in \. d_-2 != 0"):
            _check_slice(s, [r2, r])

    @staticmethod
    def _build_with_first_cleared_column(monkeypatch, corrupt):
        """Build FIG8 with ``corrupt`` applied to its d_in column min(cleared),
        one that only the relations vouch for, handed over as a pair of lists
        [plus rows, minus rows]."""
        j = min(build_slice(FIG8).cleared)
        build = slicebound.lee_oracle._build_matrix

        def building(d, sources, *args):
            cols = build(d, sources, *args)
            if sources and sources[0].bit_count() == d.n_minus - 1:
                cols = list(cols)
                col = [list(half) for half in cols[j]]
                corrupt(col)
                cols[j] = tuple(map(tuple, col))
            return cols

        monkeypatch.setattr(slicebound.lee_oracle, "_build_matrix", building)
        return build_slice(Diagram(FIG8.crossings))

    def test_d_in_is_checked_before_the_relations_read_it(self, monkeypatch):
        # a d_in column that clearing reads, with one row named twice: the
        # slice check reports the entry 2, not a failed relation
        def double(col):
            half = 0 if col[0] else 1
            col[half].append(col[half][0])

        with pytest.raises(ConsistencyError, match="differential has a non-unit entry"):
            self._build_with_first_cleared_column(monkeypatch, double)

    def test_deleted_entry_of_a_cleared_column(self, monkeypatch):
        # the composite is not tested on a cleared column: its relation is
        def delete(col):
            half = 0 if col[0] else 1
            del col[half][0]

        with pytest.raises(ConsistencyError, match=r"clearing relation: d_in \. d_-2 != 0"):
            self._build_with_first_cleared_column(monkeypatch, delete)

    def test_flipped_sign_in_a_cleared_column(self, monkeypatch):
        def flip(col):
            half = 0 if col[0] else 1
            col[1 - half].append(col[half].pop(0))

        with pytest.raises(ConsistencyError, match=r"clearing relation: d_in \. d_-2 != 0"):
            self._build_with_first_cleared_column(monkeypatch, flip)


# --- the cyclic collector is paused for each slice's life -----------------


@contextmanager
def _collector_off():
    """The collector off for the block, after a collection of what the
    test runner left behind."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestCollectorPause:
    """``_drawn_s`` (behind ``knot_s``) and ``oracle_report``, the two oracle
    sessions of ``checks``, run each slice's whole life with the cyclic collector paused
    (``checks._collector_paused``), which rests on the slice holding no
    reference cycle, and leave the collector and its thresholds as they
    found them."""

    @pytest.mark.parametrize("argv", [["oracle", "--braid", "3: [-1,-2,2,-2,-1,1,-1,-1,1,2]"],
                                      ["table", "--oracle"]])
    def test_no_collection_runs_while_a_slice_lives(self, argv, monkeypatch, capsys):
        # a slice lives from the call of build_slice until its last
        # reference goes; a collection that starts in that span walks it
        build = slicebound.lee_oracle.build_slice
        building = []
        slices = []

        def tracked(*args, **kwargs):
            building.append(True)
            try:
                s = build(*args, **kwargs)
            finally:
                building.pop()
            slices.append(weakref.ref(s))
            return s

        for module in (slicebound.lee_oracle, slicebound.checks, slicebound.cli):
            if getattr(module, "build_slice", None) is build:
                monkeypatch.setattr(module, "build_slice", tracked)
        started = []

        def record(phase, info):
            if phase == "start" and (building or any(ref() is not None for ref in slices)):
                started.append(info["generation"])

        gc.callbacks.append(record)
        try:
            code = slicebound.cli.main(argv)
        finally:
            gc.callbacks.remove(record)
        assert code == 0, capsys.readouterr().err
        assert slices and all(ref() is None for ref in slices)
        assert started == []

    def test_the_oracle_paths_leave_no_cyclic_garbage(self):
        knot_s = slicebound.checks.knot_s
        knots = _table_knots()
        words = [parse_braid(word) for word in ORACLE_MID_WORDS]
        with _collector_off():
            for d in knots + [braid_closure(w) for w in words]:
                s = build_slice(d)
                filtration_profile(s)
                s_invariant(s)
                del s
                assert gc.collect() == 0
            for w in words:
                knot_s(braid_closure(w), 12)
                assert gc.collect() == 0
            with pytest.raises(CrossingLimitError):
                slicebound.checks._drawn_s(braid_closure(words[0]), 9)
            assert gc.collect() == 0

    @staticmethod
    def _oracle_runs(monkeypatch, capsys):
        """Run ``knot_s`` and the ``oracle`` command to a normal return, to a
        refusal and to a ``ConsistencyError`` raised in ``_check_slice``;
        yields after each run."""
        knot_s = slicebound.checks.knot_s
        assert knot_s(FIG8, 12) == 0
        yield
        assert slicebound.cli.main(["oracle", "--braid", "2: [1,1,1]"]) == 0
        yield
        with pytest.raises(CrossingLimitError):
            knot_s(FIG8, 3)
        yield
        assert slicebound.cli.main(["oracle", "--braid", "2: [1,1,1]", "--max-crossings", "2"]) == 2
        yield

        def failing(s, relations=()):
            raise ConsistencyError("injected")

        monkeypatch.setattr(slicebound.lee_oracle, "_check_slice", failing)
        with pytest.raises(ConsistencyError, match="injected"):
            knot_s(Diagram(FIG8.crossings), 12)
        yield
        assert slicebound.cli.main(["oracle", "--braid", "2: [1,1,1]"]) == 1
        assert "injected" in capsys.readouterr().err
        yield

    def test_the_collector_is_on_again_after_every_exit(self, monkeypatch, capsys):
        threshold = gc.get_threshold()
        assert gc.isenabled()
        runs = 0
        for _ in self._oracle_runs(monkeypatch, capsys):
            assert gc.isenabled()
            assert gc.get_threshold() == threshold
            runs += 1
        assert runs == 6

    def test_a_collector_the_caller_turned_off_stays_off(self, monkeypatch, capsys):
        threshold = gc.get_threshold()
        runs = 0
        with _collector_off():
            for _ in self._oracle_runs(monkeypatch, capsys):
                assert not gc.isenabled()
                assert gc.get_threshold() == threshold
                runs += 1
        assert runs == 6


class TestMirrorSide:
    """``_drawn_s``, the side rule behind ``knot_s``, builds the slice of the
    diagram as drawn or of its mirror, whichever has fewer negative
    crossings (the diagram on a tie), and negates ``s`` for the mirror, by
    s(mK) = -s(K).  Cross-checked against the oracle on both sides of every
    diagram of the corpus; where ``simplify`` changes the diagram,
    ``knot_s`` must give the same ``s``."""

    @staticmethod
    def _cross_check(diagrams, built, limit=10):
        """Check every diagram; returns how many ``_drawn_s`` ran on the mirror."""
        mirrored = 0
        for d in diagrams:
            s = slicebound.checks._drawn_s(d, limit)
            (side,) = [args[0] for args in built]
            built.clear()
            assert side.n_minus <= side.n_plus
            assert (side is d) == (d.n_minus <= d.n_plus)
            mirrored += side is not d
            assert s == s_invariant(build_slice(d, limit)) == -s_invariant(build_slice(mirror(d), limit))
            if simplify(d) is not d:
                assert slicebound.checks.knot_s(d, limit) == s
                built.clear()
        return mirrored

    def test_table_rows_and_their_mirrors(self, calls):
        built = calls(slicebound.checks, "build_slice")
        knots = _table_knots()
        ties = sum(d.n_minus == d.n_plus for d in knots)
        assert self._cross_check(knots, built) == 16
        assert self._cross_check([mirror(d) for d in knots], built) == len(knots) - ties - 16

    def test_oracle_mid_words(self, calls):
        built = calls(slicebound.checks, "build_slice")
        assert self._cross_check([braid_closure(parse_braid(w)) for w in ORACLE_MID_WORDS], built) == 3

    def test_random_braid_knots(self, calls):
        built = calls(slicebound.checks, "build_slice")
        knots = [d for d in (braid_closure(w) for w, _ in random_braids(300, 4, 10, 7))
                 if d.is_knot and d.is_connected and len(d.crossings) <= 10]
        assert len(knots) == 110
        mirrored = self._cross_check(knots, built)
        assert 0 < mirrored < len(knots) and any(d.n_minus == d.n_plus for d in knots)


def _direct_report(d, limit=10):
    """The ``oracle`` payload read off the slice of ``d`` as given, with no
    side rule: the full computation ``oracle_report`` must agree with."""
    s = build_slice(d, limit)
    profile = filtration_profile(s)
    j2, j1 = profile_jumps(profile)
    value = s_invariant(s)
    return {
        "s": value,
        "s_min": value - 1,
        "jumps": [j2, j1],
        "profile": [[j, dim] for j, dim in profile.items()],
        "dims": {"-1": s.dim(-1), "0": s.dim(0), "1": s.dim(1)},
    }


class TestOracleReportSide:
    """``oracle_report`` builds the slice of ``_oracle_side(d)``, the same
    side ``knot_s`` takes, and maps a mirror's payload back to ``d`` by
    duality.  Cross-checked against the payload of the slice of ``d`` as
    given on both sides of every diagram of the corpus."""

    @staticmethod
    def _cross_check(diagrams, built):
        """Check every diagram; returns how many reports ran on the mirror."""
        mirrored = 0
        for d in diagrams:
            report = slicebound.checks.oracle_report(d, 10)
            (side,) = [args[0] for args in built]
            built.clear()
            assert (side is d) == (d.n_minus <= d.n_plus)
            mirrored += side is not d
            assert report == _direct_report(d)
            assert list(report) == ["s", "s_min", "jumps", "profile", "dims"]
            assert list(report["dims"]) == ["-1", "0", "1"]
        return mirrored

    def test_table_rows_and_their_mirrors(self, calls):
        built = calls(slicebound.checks, "build_slice")
        knots = _table_knots()
        ties = sum(d.n_minus == d.n_plus for d in knots)
        assert self._cross_check(knots + [mirror(d) for d in knots], built) == len(knots) - ties

    def test_oracle_mid_words(self, calls):
        built = calls(slicebound.checks, "build_slice")
        assert self._cross_check([braid_closure(parse_braid(w)) for w in ORACLE_MID_WORDS], built) == 3

    def test_random_braid_knots(self, calls):
        built = calls(slicebound.checks, "build_slice")
        knots = [d for d in (braid_closure(w) for w, _ in random_braids(300, 4, 11, 7))
                 if d.is_knot and d.is_connected and len(d.crossings) <= 9]
        assert len(knots) == 74
        assert self._cross_check(knots, built) == 34

    def test_a_tie_passes_the_input_object(self, calls):
        built = calls(slicebound.checks, "build_slice")
        assert FIG8.n_minus == FIG8.n_plus == 2
        assert slicebound.checks.oracle_report(FIG8, 10)["s"] == 0
        (side,) = [args[0] for args in built]
        assert side is FIG8

    def test_the_negative_trefoil_reports_its_own_fields(self, calls):
        built = calls(slicebound.checks, "build_slice")
        d = braid_closure(BraidWord(2, (-1, -1, -1)))
        report = slicebound.checks.oracle_report(d, 10)
        (side,) = [args[0] for args in built]
        assert side is not d and side.n_minus == 0
        assert report == {
            "s": -2,
            "s_min": -3,
            "jumps": [-3, -1],
            "profile": [[-1, 1], [-3, 2], [-5, 2]],
            "dims": {"-1": 6, "0": 4, "1": 0},
        }
