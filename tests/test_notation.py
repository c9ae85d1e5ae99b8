"""Parsers, printers, braid closures, and the seeded fuzzer."""

import csv

import pytest
from hypothesis import given
from hypothesis import strategies as st

import slicebound.diagram
import slicebound.notation
from slicebound import (
    BraidWord,
    ParseError,
    PdCode,
    ValidationError,
    braid_closure,
    braid_text,
    diagram_from_pd,
    mirror,
    parse_braid,
    parse_pd,
    pd_code,
    pd_text,
    random_braid,
    random_braids,
    simplify,
    validate,
)
from slicebound.checks import bundled_table_path

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


class TestParseBraid:
    def test_direct_encoding(self):
        assert parse_braid("2: [1,1,1]") == BraidWord(2, (1, 1, 1))
        assert parse_braid("3: [1,-2,1,-2]") == BraidWord(3, (1, -2, 1, -2))

    def test_empty_word(self):
        assert parse_braid("4: []") == BraidWord(4, ())

    def test_whitespace_insensitive(self):
        assert parse_braid("  3 :  [ 1 , -2 ]  ") == BraidWord(3, (1, -2))

    def test_strand_count_at_least_one(self):
        with pytest.raises(ValidationError, match="^strand count must be >= 1, got 0$"):
            BraidWord(0)

    def test_letter_zero_rejected(self):
        with pytest.raises(ValidationError):
            parse_braid("2: [0]")

    def test_letter_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_braid("2: [2]")

    def test_malformed(self):
        for text in ("", "2 [1]", "x: [1]", "2: [1,,2]", "2: 1,1"):
            with pytest.raises(ParseError):
                parse_braid(text)

    @given(
        strands=st.integers(min_value=1, max_value=6),
        letters=st.lists(st.integers(min_value=-5, max_value=5), max_size=12),
    )
    def test_round_trip(self, strands, letters):
        letters = tuple(k for k in letters if k != 0 and abs(k) < strands)
        w = BraidWord(strands, letters)
        assert parse_braid(braid_text(w)) == w


class TestParsePd:
    def test_trefoil(self):
        code = parse_pd(TREFOIL_PD)
        assert len(code.crossings) == 3
        d = diagram_from_pd(code)
        assert d.is_knot
        assert d.writhe == -3  # the classic code is the negative trefoil

    def test_bracketed_form(self):
        assert parse_pd("PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]") == parse_pd(TREFOIL_PD)

    def test_whitespace_and_commas(self):
        assert parse_pd("X[1,4,2,5]X[3,6,4,1]X[5,2,6,3]") == parse_pd(TREFOIL_PD)

    def test_empty_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_pd("")

    def test_garbage_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_pd("X[1,4,2,5] Y[1,2]")

    def test_kink_is_coherent(self):
        # the only consistent reading is the positive curl on the unknot
        d = diagram_from_pd(parse_pd("X[1,1,2,2]"))
        assert len(d.crossings) == 1
        assert d.crossings[0].sign == 1
        assert d.is_knot

    def test_label_count_violation(self):
        with pytest.raises(ValidationError):
            parse_pd("X[1,1,1,2]")

    def test_incoherent_cycles(self):
        # edge 1 is entered by two passages; no reading is coherent
        with pytest.raises(ValidationError):
            parse_pd("X[2,4,1,5] X[3,6,4,1] X[5,2,6,3]")

    def test_component_must_be_a_consecutive_label_run(self):
        # a coherent diagram (validate accepts it) whose one component reads
        # 1, 3, 2, 4, 5, 6: not a consecutive run
        with pytest.raises(ValidationError, match="consecutive label run"):
            parse_pd("X[1,5,3,4] X[2,1,4,6] X[5,2,6,3]")

    @pytest.mark.parametrize("text", [
        "X[2,4,3,1] X[3,2,4,1]",  # else a crossing smooths onto one Seifert circle
        "X[2,4,1,3] X[4,1,3,2]",  # else alternating with Delta = 1
        "X[1,4,2,5] X[6,3,1,4] X[5,2,6,3]",  # else a window and an s are reported
        "X[1,3,2,4] X[2,4,1,3]",
    ])
    def test_a_code_that_is_not_planar_is_refused(self, text):
        # each passes ``validate`` and the label-run rule
        with pytest.raises(ValidationError,
                           match="^PD code is not planar: its crossings do not fit together on a sphere$"):
            parse_pd(text)

    def test_table_rows_and_their_mirrors_parse(self):
        with open(bundled_table_path(), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 36
        for row in rows:
            d = parse_pd(row["pd"]).diagram
            for side in (d, mirror(d)):
                assert parse_pd(pd_text(pd_code(side))).diagram.is_planar

    def test_no_crossings_in_brackets(self):
        with pytest.raises(ParseError, match="^PD text contains no crossings$"):
            parse_pd("PD[]")

    def test_parsed_diagram_is_validated_once(self, calls):
        checks = calls(slicebound.diagram, "_check_structure")
        d = parse_pd(TREFOIL_PD).diagram
        validate(d)
        validate(d)
        assert len(checks) == 1

    def test_clasp_over_two_edge_component_is_deterministic(self):
        # a 2-edge circle passing twice over another 2-edge circle: both
        # sign readings are grammatical; the parse picks one and sticks with it
        d = diagram_from_pd(parse_pd("X[1,3,2,4] X[2,3,1,4]"))
        assert d.components == 2
        assert d.writhe in (-2, 0, 2)
        assert d == diagram_from_pd(parse_pd("X[1,3,2,4] X[2,3,1,4]"))
        # the earlier crossing takes the wrap 4 -> 3, out along b: positive;
        # the bounds read the same under either reading, only the signs differ
        assert [c.sign for c in d.crossings] == [1, -1]

    def test_print_round_trip(self):
        code = parse_pd(TREFOIL_PD)
        assert parse_pd(pd_text(code)) == code

    def test_figure_eight_signs(self):
        d = diagram_from_pd(parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"))
        assert d.writhe == 0
        assert d.n_plus == 2 and d.n_minus == 2


def _wrap_moved(code, by):
    """``code`` with the labels of each component, a run lo..hi, rotated
    along the run by ``by(length)``, so its wrap hi -> lo falls elsewhere."""
    label = {}
    for strand in code.diagram.strands:
        for k, e in enumerate(strand):
            label[e] = strand[(k + by(len(strand))) % len(strand)]
    return PdCode(tuple(tuple(label[e] for e in t) for t in code.crossings))


MOVES = (lambda n: 1, lambda n: n // 2)


class TestMovedWrap:
    """PD signs do not depend on where each component's labels wrap."""

    @staticmethod
    def _closures():
        closures = [braid_closure(w) for w, _ in random_braids(1000, 5, 16, 7)]
        return [d for d in closures if not d.free_loops]

    def test_knots_keep_their_signs(self):
        with open(bundled_table_path(), newline="", encoding="utf-8") as fh:
            rows = [parse_pd(row["pd"]).diagram for row in csv.DictReader(fh)]
        knots = [d for d in self._closures() if d.is_knot] + rows
        assert len(knots) == 285
        for d in knots:
            for side in (d, mirror(d)):
                for by in MOVES:
                    moved = diagram_from_pd(_wrap_moved(pd_code(side), by))
                    assert [c.sign for c in moved.crossings] == [c.sign for c in side.crossings]

    def test_links_take_the_documented_choice(self):
        # on a 2-edge component {i, i+1} that is over at both of its
        # crossings, the earlier one runs i+1 -> i; the text cannot tell
        # which way the component runs, so only its two crossings may flip
        ambiguous = 0
        for d in self._closures():
            if d.is_knot:
                continue
            for side in (d, mirror(d)):
                for by in MOVES:
                    code = _wrap_moved(pd_code(side), by)
                    moved = diagram_from_pd(code)
                    flipped = {i for i, (c, e) in enumerate(zip(moved.crossings, side.crossings))
                               if c.sign != e.sign}
                    for strand in moved.strands:
                        over = [i for i, t in enumerate(code.crossings) if sorted(t[1::2]) == list(strand)]
                        if len(over) == 2:  # strand is (i, i+1), over at both crossings
                            ambiguous += 1
                            first, then = (moved.crossings[i] for i in over)
                            assert (first.over_out, then.over_out) == strand  # out along i, then i+1
                            assert len(flipped & set(over)) in (0, 2)
                            flipped -= set(over)
                    assert not flipped
        assert ambiguous == 122 * len(MOVES)


class TestBraidClosure:
    def test_builds_each_crossing_once(self, calls):
        made = calls(slicebound.notation, "Crossing")
        letters = 0
        for seed in range(20):
            w = random_braid(4, 12, seed)
            d = braid_closure(w)
            letters += len(w.letters)
            assert [(c.edges, c.sign) for c in d.crossings] == made[len(made) - len(w.letters):]
        assert letters and len(made) == letters

    def test_trefoil(self):
        d = braid_closure(BraidWord(2, (1, 1, 1)))
        assert len(d.crossings) == 3
        assert all(c.sign == 1 for c in d.crossings)
        assert d.writhe == 3
        assert d.components == 1

    def test_empty_word_is_unlink(self):
        d = braid_closure(BraidWord(1, ()))
        assert not d.crossings
        assert d.free_loops == (1,)
        assert d.components == 1

    def test_two_strand_identity_perm(self):
        d = braid_closure(BraidWord(2, (1, -1)))
        assert len(d.crossings) == 2
        assert d.writhe == 0
        assert d.components == 2

    def test_unused_strand_gives_free_loop(self):
        d = braid_closure(BraidWord(3, (1, 1)))
        assert d.free_loops == (3,)
        assert not d.is_connected

    def test_writhe_is_letter_sign_sum(self):
        for seed in range(20):
            w = random_braid(4, 7, seed)
            assert braid_closure(w).writhe == sum(1 if k > 0 else -1 for k in w.letters)

    def test_free_loops_have_no_pd_code(self):
        with pytest.raises(ValidationError, match="^crossingless components cannot be expressed as PD text$"):
            pd_code(braid_closure(BraidWord(3, (1, 1))))

    def test_closure_round_trips_through_pd(self):
        # sign sequences are pinned for knots; link codes with doubly-covered
        # 2-edge components admit two readings, so only structure is asserted
        knots = 0
        for seed in range(40):
            w = random_braid(3, 6, seed)
            d = braid_closure(w)
            if d.free_loops:
                continue
            d2 = diagram_from_pd(pd_code(d))
            assert d2.components == d.components
            assert d2.writhe == d.writhe or not d.is_knot
            if d.is_knot:
                assert [c.sign for c in d2.crossings] == [c.sign for c in d.crossings]
                knots += 1
        assert knots >= 10


class TestReduceBraid:
    """Braid closures through ``simplify``: every move of the old word
    reduction (free and cyclic reduction, far commutation, Markov
    destabilisation) is an R2 bigon or an R1 kink of the closure, so each
    word shrinks at least as far.  Each case pins (crossings, writhe,
    components) of the simplified closure; R2 keeps the writhe and R1
    changes it by the kink's sign."""

    @staticmethod
    def _simplified(strands, letters):
        d = braid_closure(BraidWord(strands, letters))
        t = simplify(d)
        validate(t)
        assert t.is_planar and t.components == d.components
        return len(t.crossings), t.writhe, t.components

    def test_free_reduction(self):
        # the bigon 2, -2 goes and strand 3 closes into a free loop
        assert self._simplified(3, (1, 2, -2, 1, 1)) == (3, 3, 2)

    def test_free_reduction_cascades(self):
        assert self._simplified(3, (1, 1, 2, 1, -1, -2, 1)) == (3, 3, 2)

    def test_cyclic_reduction(self):
        assert self._simplified(3, (-2, 1, 1, 1, 2)) == (3, 3, 2)

    def test_destabilises_the_last_strand(self):
        # sigma_2 once: a kink of the closure
        assert self._simplified(3, (1, 1, 2, 1)) == (3, 3, 1)
        assert self._simplified(3, (1, -2, 1, 1)) == (3, 3, 1)

    def test_destabilises_the_first_strand(self):
        assert self._simplified(3, (2, 2, -1, 2)) == (3, 3, 1)
        assert self._simplified(4, (3, 2, 3, 2, 1, 2)) == (5, 5, 2)

    def test_stabilised_unknot_reduces_to_one_strand(self):
        for strands, letters in ((4, (1, -2, 3)), (2, (1,))):
            assert self._simplified(strands, letters) == (0, 0, 1)
            assert len(simplify(braid_closure(BraidWord(strands, letters))).free_loops) == 1

    def test_empty_words_are_fixed(self):
        for w in (BraidWord(1, ()), BraidWord(3, ())):
            d = braid_closure(w)
            assert simplify(d) is d

    def test_torus_word_is_unchanged(self):
        d = braid_closure(BraidWord(2, (1,) * 13))
        assert simplify(d) is d

    def test_no_far_commutation(self):
        # 1 and 3 commute, which exposes 3, -3: a bigon of the closure that
        # word moves without far commutation never reached
        assert self._simplified(4, (1, 2, 3, 1, -3, 2, 1, 2)) == (6, 6, 4)

    def test_ends_at_a_fixed_point(self):
        for w, _ in random_braids(200, 5, 12, 42):
            d = braid_closure(w)
            once = simplify(d)
            assert simplify(once) is once
            assert (once is d) == (len(once.crossings) == len(d.crossings))

    def test_keeps_connected_knots(self):
        knots = shrunk = 0
        for w, _ in random_braids(300, 5, 12, 42):
            d = braid_closure(w)
            t = simplify(d)
            validate(t)
            assert t.is_planar and t.components == d.components and len(t.crossings) <= len(d.crossings)
            if d.is_knot and d.is_connected:
                assert t.is_knot and t.is_connected
                knots += 1
                shrunk += t is not d
        assert knots >= 50 and shrunk >= knots // 2


class TestRandomBraid:
    def test_zero_length(self):
        assert random_braid(2, 0, 7) == BraidWord(2, ())

    def test_deterministic(self):
        assert random_braid(3, 5, 42) == random_braid(3, 5, 42)
        assert random_braid(5, 40, 1) == random_braid(5, 40, 1)

    def test_range_contract(self):
        w = random_braid(4, 12, 1)
        assert all(1 <= abs(k) <= 3 for k in w.letters)
        assert len(w.letters) == 12

    def test_seeds_differ(self):
        assert random_braid(3, 10, 1) != random_braid(3, 10, 2)

    def test_all_letters_reachable(self):
        seen = set()
        for seed in range(40):
            seen.update(random_braid(3, 8, seed).letters)
        assert seen == {1, -1, 2, -2}

    def test_validation(self):
        with pytest.raises(ValidationError):
            random_braid(1, 5, 0)
        with pytest.raises(ValidationError):
            random_braid(3, -1, 0)

    def test_corpus_range_is_checked_when_iteration_starts(self):
        corpus = random_braids(-1, 5, 12, 42)
        with pytest.raises(ValidationError, match="^fuzz needs count >= 0, strands >= 2, max_length >= 0$"):
            next(corpus)
