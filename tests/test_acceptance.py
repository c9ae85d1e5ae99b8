"""Acceptance suite: the end-to-end guarantees, exact integers throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here is zero-tolerance: bounds and oracle values are
integers or exact rationals, so assertions are equalities, never approx.
"""

import csv
from fractions import Fraction

from slicebound import (
    BraidWord,
    aux_graph,
    betti1,
    betti1_components,
    bound_Delta,
    bound_U,
    braid_closure,
    build_slice,
    canonical_cycles,
    classic_bennequin,
    diagram_from_pd,
    filtration_profile,
    genus_bound_knot,
    genus_bound_link,
    is_alternating,
    mirror,
    oriented_resolution,
    parse_braid,
    parse_pd,
    profile_jumps,
    random_braid,
    s_invariant,
    seifert_graph,
)
from slicebound.cli import bundled_table_path, run_table

# chirality-matched braid presentations of table knots (see test_table_data)
BRAID_PRESENTATIONS = {
    "3_1": "2: [-1,-1,-1]",
    "4_1": "3: [1,-2,1,-2]",
    "5_1": "2: [-1,-1,-1,-1,-1]",
    "5_2": "3: [-1,-1,-1,-2,1,-2]",
    "6_2": "3: [1,1,1,-2,1,-2]",
    "6_3": "3: [1,1,-2,1,-2,-2]",
    "7_1": "2: [1,1,1,1,1,1,1]",
    "8_18": "3: [1,-2,1,-2,1,-2,1,-2]",
    "8_19": "3: [-1,-2,-1,-2,-1,-2,-1,-2]",
}


def load_table():
    with open(bundled_table_path(), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def corpus_1000():
    """1000 seeded random braid closures, <= 5 strands, <= 12 crossings."""
    out = []
    for i in range(1000):
        strands = 2 + i % 4
        length = i % 13
        word = random_braid(strands, length, seed=i)
        out.append((word, braid_closure(word)))
    return out


CORPUS = corpus_1000()


def test_criterion_1_sandwich_on_bundled_table():
    rows = load_table()
    assert len(rows) == 36
    results = run_table(rows, oracle_limit=12)
    for r in results:
        assert r["status"] in ("TIGHT", "SANDWICH_OK"), (r["name"], r["status"], r["detail"])
        assert r["s_lower"] <= r["s_oracle"] <= r["s_upper"]
        assert r["s_oracle"] == r["known_s"]
    print("criterion 1 PASS: U - 2*Delta <= s_oracle <= U on all 36 bundled knots, exact")


def test_criterion_2_alternating_tightness():
    checked = 0
    for row in load_table():
        d = diagram_from_pd(parse_pd(row["pd"]))
        if not is_alternating(d):
            continue
        assert bound_Delta(d) == 0, row["name"]
        assert bound_U(d) == s_invariant(build_slice(d)), row["name"]
        checked += 1
    assert checked >= 30
    print(f"criterion 2 PASS: Delta = 0 and U = s_oracle on all {checked} alternating table diagrams")


def test_criterion_3_positive_torus_tightness():
    for q in (3, 5, 7, 9):
        d = braid_closure(BraidWord(2, (1,) * q))
        assert bound_U(d) == q - 1
        assert bound_Delta(d) == 0
        assert s_invariant(build_slice(d)) == q - 1
        assert genus_bound_knot(d) == Fraction(q - 1, 2)
        assert genus_bound_link(d) == Fraction(q - 1, 2)
    print("criterion 3 PASS: T(2,q) closures tight with s = q - 1, genus bound (q-1)/2, q in {3,5,7,9}")


def test_criterion_4_mirror_identity_corpus():
    for word, d in CORPUS:
        m = mirror(d)
        assert bound_U(d) + bound_U(m) == 2 * bound_Delta(d), word
        assert bound_Delta(m) == bound_Delta(d), word
    print("criterion 4 PASS: U(D) + U(mirror) = 2*Delta and Delta(mirror) = Delta on 1000 closures, exact")


def test_criterion_5_betti_number_proposition():
    connected = split = 0
    for word, d in CORPUS:
        g = seifert_graph(d)
        G = aux_graph(g, oriented_resolution(d))
        if d.is_connected:
            assert bound_Delta(d) == betti1(G), word
            connected += 1
        else:
            parts = betti1_components(G)
            assert bound_Delta(d) == sum(parts) + 1 - len(parts), word
            split += 1
    assert connected + split == 1000
    print(f"criterion 5 PASS: Delta = b1(G) exactly on {connected} connected closures "
          f"(+ per-component form on {split} split ones)")


def test_criterion_6_dominance_with_strict_case():
    knots = 0
    for word, d in CORPUS:
        if d.is_connected and d.is_knot:
            assert genus_bound_knot(d) >= classic_bennequin(d), word
            knots += 1
    assert knots >= 100
    neg_trefoil = mirror(braid_closure(BraidWord(2, (1, 1, 1))))
    assert genus_bound_knot(neg_trefoil) == -1
    assert classic_bennequin(neg_trefoil) == -2
    print(f"criterion 6 PASS: new genus bound >= classic on {knots} knot closures; "
          "strict on the negative trefoil (-1 > -2)")


def test_criterion_7_oracle_internal_consistency():
    # d_out . d_in = 0, filtered columns, and closed canonical cycles are
    # asserted inside every construction; build a battery to exercise them
    battery = []
    for row in load_table():
        d = diagram_from_pd(parse_pd(row["pd"]))
        battery.append((row["name"], d))
    checked_pairs = 0
    for name, d in battery:
        build_slice(d)
        canonical_cycles(build_slice(d))
        prof = filtration_profile(build_slice(d))
        j2, j1 = profile_jumps(prof)
        assert j1 - j2 == 2, name
        assert s_invariant(build_slice(d)) == j2 + 1 == j1 - 1, name
        if len(d.crossings) <= 7:
            assert s_invariant(build_slice(mirror(d))) == -s_invariant(build_slice(d)), name
            checked_pairs += 1
    assert checked_pairs >= 15
    print(f"criterion 7 PASS: boundary checks, jump gap 2, and s(mirror) = -s "
          f"on {checked_pairs} table knots <= 7 crossings")


def test_criterion_8_diagram_independence():
    by_name = {r["name"]: r for r in load_table()}
    for name, braid_txt in BRAID_PRESENTATIONS.items():
        knot_s = s_invariant(build_slice(diagram_from_pd(parse_pd(by_name[name]["pd"]))))
        braid_s = s_invariant(build_slice(braid_closure(parse_braid(braid_txt))))
        assert knot_s == braid_s == int(by_name[name]["known_s"]), name
    print(f"criterion 8 PASS: s agrees between PD and braid presentations for "
          f"{len(BRAID_PRESENTATIONS)} knots")


def test_criterion_9_parity_and_unknots():
    evens = 0
    for row in load_table():
        d = diagram_from_pd(parse_pd(row["pd"]))
        assert bound_U(d) % 2 == 0, row["name"]
        evens += 1
    for word, d in CORPUS:
        if d.is_connected and d.is_knot:
            assert bound_U(d) % 2 == 0, word
            evens += 1
    unknots = (
        braid_closure(BraidWord(1, ())),
        diagram_from_pd(parse_pd("X[1,1,2,2]")),
        braid_closure(BraidWord(2, (1, 1, -1))),
    )
    for d in unknots:
        assert s_invariant(build_slice(d)) == 0
    print(f"criterion 9 PASS: U even on {evens} connected knot diagrams; "
          "s = 0 on all three unknot presentations")


def test_criterion_10_link_corollary():
    hopf = braid_closure(BraidWord(2, (1, 1)))
    assert genus_bound_link(hopf) == Fraction(-1, 2)
    knot_cases = 0
    for word, d in CORPUS:
        if d.is_connected and d.is_knot and knot_cases < 100:
            assert genus_bound_link(d) == genus_bound_knot(d), word
            knot_cases += 1
    assert knot_cases == 100
    print("criterion 10 PASS: link bound -1/2 on the positive Hopf closure and "
          "reduces to the knot bound on 100 knot closures")
