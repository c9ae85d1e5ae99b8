"""Seifert circles, the signed graph, subgraph components, auxiliary graph."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicebound import (
    BraidWord,
    ConsistencyError,
    DisconnectedDiagramError,
    SeifertGraph,
    aux_graph,
    betti1,
    betti1_components,
    bound_Delta,
    braid_closure,
    component_count,
    diagram_from_pd,
    mirror,
    oriented_resolution,
    parse_pd,
    random_braid,
    seifert_graph,
    two_coloring,
)
from slicebound.cli import bundled_table_path

TREFOIL = braid_closure(BraidWord(2, (1, 1, 1)))
UNKNOT0 = braid_closure(BraidWord(1, ()))
MIXED = braid_closure(BraidWord(2, (1, 1, -1)))
FIG8 = diagram_from_pd(parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"))


def _circles(edge_ids, joins):
    """(circle_of_edge, count) of the graph on ``edge_ids`` with edges
    ``joins``, found by depth-first search; circle ids by minimum edge id."""
    adj = {e: [] for e in edge_ids}
    for x, y in joins:
        adj[x].append(y)
        adj[y].append(x)
    circle_of_edge = {}
    count = 0
    for start in sorted(adj):  # ascending: a circle is first met at its minimum
        if start in circle_of_edge:
            continue
        stack = [start]
        while stack:
            e = stack.pop()
            if e not in circle_of_edge:
                circle_of_edge[e] = count
                stack.extend(adj[e])
        count += 1
    return circle_of_edge, count


def _seifert_reference(d):
    """Seifert's rule from orientation alone: at each crossing the incoming
    under-strand continues along the outgoing over-strand and the incoming
    over-strand along the outgoing under-strand."""
    joins = []
    for c in d.crossings:
        joins.append((c.under_in, c.over_out))
        joins.append((c.over_in, c.under_out))
    return _circles(d.edge_ids, joins)


def _table_diagrams():
    with open(bundled_table_path(), newline="", encoding="utf-8") as fh:
        return [(row["name"], diagram_from_pd(parse_pd(row["pd"]))) for row in csv.DictReader(fh)]


@st.composite
def _braid_closures(draw):
    strands = draw(st.integers(2, 5))
    letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    return braid_closure(BraidWord(strands, tuple(draw(st.lists(letter, max_size=12)))))


class TestOrientedResolution:
    def test_braid_closures_have_strand_circles(self):
        for strands in (2, 3, 4, 5):
            for seed in range(5):
                d = braid_closure(random_braid(strands, 8, seed))
                assert oriented_resolution(d).count == strands

    def test_zero_crossing_unknot(self):
        assert oriented_resolution(UNKNOT0).count == 1

    def test_figure_eight_three_circles(self):
        assert oriented_resolution(FIG8).count == 3

    @settings(max_examples=150, deadline=None)
    @given(d=_braid_closures())
    def test_matches_orientation_rule_on_braid_closures(self, d):
        circles = oriented_resolution(d)
        assert (circles.circle_of_edge, circles.count) == _seifert_reference(d)

    def test_matches_orientation_rule_on_table(self):
        for name, d in _table_diagrams():
            circles = oriented_resolution(d)
            assert (circles.circle_of_edge, circles.count) == _seifert_reference(d), name
            reps = [min(e for e, c in circles.circle_of_edge.items() if c == k)
                    for k in range(circles.count)]
            assert circles.reps == tuple(reps), name

    def test_every_cube_vertex_count(self):
        six = dict(_table_diagrams())["6_1"]
        link = braid_closure(BraidWord(3, (1, -2, 1, 2, -1, -2)))
        for d in (UNKNOT0, TREFOIL, MIXED, FIG8, six, link):
            for mask in range(1 << len(d.crossings)):
                joins = []
                for i, c in enumerate(d.crossings):
                    a, b, cc, dd = c.edges
                    joins += [(a, dd), (b, cc)] if mask >> i & 1 else [(a, b), (cc, dd)]
                assert d.resolution(mask).count == _circles(d.edge_ids, joins)[1]

    def test_circle_ids_canonical(self):
        circ = oriented_resolution(TREFOIL)
        by_circle = {}
        for e, c in circ.circle_of_edge.items():
            by_circle.setdefault(c, []).append(e)
        mins = [min(v) for _, v in sorted(by_circle.items())]
        assert mins == sorted(mins)


class TestSeifertGraph:
    def test_positive_trefoil(self):
        g = seifert_graph(TREFOIL)
        assert g.node_count == 2
        assert len(g.edges) == 3
        assert all(sign == 1 for _, _, sign, _ in g.edges)
        assert all(u != v for u, v, _, _ in g.edges)

    def test_mixed_signs(self):
        g = seifert_graph(MIXED)
        assert g.node_count == 2
        assert sorted(sign for _, _, sign, _ in g.edges) == [-1, 1, 1]

    def test_figure_eight(self):
        g = seifert_graph(FIG8)
        assert g.node_count == 3
        assert sorted(sign for _, _, sign, _ in g.edges) == [-1, -1, 1, 1]

    def test_node_count_matches_circles(self):
        for seed in range(15):
            d = braid_closure(random_braid(4, 9, seed))
            assert seifert_graph(d).node_count == oriented_resolution(d).count


class TestComponentCount:
    def test_trefoil(self):
        g = seifert_graph(TREFOIL)
        assert component_count(g, -1) == 2  # no negative edges: isolated nodes
        assert component_count(g, +1) == 1

    def test_mixed(self):
        g = seifert_graph(MIXED)
        assert component_count(g, -1) == 1
        assert component_count(g, +1) == 1

    def test_mirror_swaps_roles(self):
        for seed in range(15):
            d = braid_closure(random_braid(4, 8, seed))
            g, gm = seifert_graph(d), seifert_graph(mirror(d))
            assert component_count(g, +1) == component_count(gm, -1)
            assert component_count(g, -1) == component_count(gm, +1)

    def test_rejects_a_sign_other_than_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="keep_sign"):
            component_count(seifert_graph(TREFOIL), 0)


class TestAuxGraph:
    def test_positive_trefoil_tree(self):
        g = seifert_graph(TREFOIL)
        G = aux_graph(g, oriented_resolution(TREFOIL))
        assert G.node_count == 3
        assert len(G.edges) == 2
        assert betti1(G) == 0

    def test_mixed_has_cycle(self):
        g = seifert_graph(MIXED)
        G = aux_graph(g, oriented_resolution(MIXED))
        assert G.node_count == 2
        assert len(G.edges) == 2
        assert betti1(G) == 1

    def test_zero_crossing_unknot(self):
        g = seifert_graph(UNKNOT0)
        G = aux_graph(g, oriented_resolution(UNKNOT0))
        assert G.node_count == 2
        assert len(G.edges) == 1
        assert betti1(G) == 0

    def test_edge_count_is_circle_count(self):
        for seed in range(15):
            d = braid_closure(random_braid(3, 7, seed))
            G = aux_graph(seifert_graph(d), oriented_resolution(d))
            assert len(G.edges) == oriented_resolution(d).count

    def test_betti_matches_delta_connected(self):
        for seed in range(40):
            d = braid_closure(random_braid(4, 9, seed))
            G = aux_graph(seifert_graph(d), oriented_resolution(d))
            if d.is_connected:
                assert betti1(G) == bound_Delta(d)
            else:
                with pytest.raises(DisconnectedDiagramError):
                    betti1(G)
                parts = betti1_components(G)
                assert bound_Delta(d) == sum(parts) + 1 - len(parts)

    def test_split_reports_per_component(self):
        d = braid_closure(BraidWord(2, ()))  # 2-component unlink
        G = aux_graph(seifert_graph(d), oriented_resolution(d))
        assert betti1_components(G) == [0, 0]

    def test_circles_of_another_diagram_are_refused(self):
        # the trefoil closure has 2 Seifert circles, the figure-eight 3
        with pytest.raises(ValueError, match="^circles and graph come from different diagrams$"):
            aux_graph(TREFOIL.seifert_graph, FIG8.seifert_circles)


class TestTwoColoring:
    def test_adjacent_circles_get_opposite_classes(self):
        for seed in range(20):
            d = braid_closure(random_braid(4, 9, seed))
            g = seifert_graph(d)
            color = two_coloring(g)
            for u, v, _, _ in g.edges:
                assert color[u] != color[v]

    def test_pd_inputs(self):
        g = seifert_graph(FIG8)
        color = two_coloring(g)
        for u, v, _, _ in g.edges:
            assert color[u] != color[v]

    def test_an_odd_cycle_is_inconsistent(self):
        # the Seifert graph of a planar diagram is bipartite; a triangle is not
        triangle = SeifertGraph(3, ((0, 1, 1, 0), (1, 2, 1, 1), (0, 2, 1, 2)))
        with pytest.raises(ConsistencyError, match="^Seifert graph is not bipartite; diagram data is not planar$"):
            two_coloring(triangle)
