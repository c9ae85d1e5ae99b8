"""Seifert circles, the signed Seifert graph, and the auxiliary circle graph.

Smoothing every crossing coherently with orientation partitions the edges
into Seifert circles.  The Seifert graph has one node per circle and one
signed edge per crossing; removing + (resp. -) edges gives the subgraphs
whose component counts drive the bounds.  Circles, graph and the component
ids of both signed subgraphs are found once per diagram, in ``diagram``
(``Diagram.seifert_circles``, ``Diagram.seifert_graph``), whose
``UnionFind``, ``SeifertCircles`` and ``SeifertGraph`` are re-exported here.
The circles come from ``Diagram.resolution``'s walk over crossing slots;
``UnionFind`` finds the signed-subgraph components and, in
``betti1_components``, the components of the auxiliary graph.
The auxiliary graph joins each circle's negative-subgraph component to its
positive-subgraph component; its first Betti number equals the error width
of the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import ConsistencyError, Diagram, SeifertCircles, SeifertGraph, UnionFind


class DisconnectedDiagramError(ValueError):
    """Operation needs a connected diagram; caller should go per-component."""


@dataclass(frozen=True)
class AuxGraph:
    """One node per component of each signed subgraph, one edge per circle."""

    node_count: int
    edges: tuple[tuple[int, int], ...]


def oriented_resolution(d: Diagram) -> SeifertCircles:
    """Seifert circles: smooth every crossing compatibly with orientation.

    This is ``d.seifert_circles``, computed once per diagram.
    """
    return d.seifert_circles


def seifert_graph(d: Diagram) -> SeifertGraph:
    """One signed edge per crossing between the two circles it touches.

    This is ``d.seifert_graph``, built once per diagram.
    """
    return d.seifert_graph


def component_count(g: SeifertGraph, keep_sign: int) -> int:
    """Components of the subgraph keeping only edges of one sign (all nodes kept)."""
    if keep_sign not in (1, -1):
        raise ValueError(f"keep_sign must be +1 or -1, got {keep_sign}")
    return len(set(g.plus_component_ids if keep_sign > 0 else g.minus_component_ids))


def aux_graph(g: SeifertGraph, circles: SeifertCircles) -> AuxGraph:
    """Join each circle's negative-subgraph component to its positive one.

    Nodes: components of the minus-subgraph followed by components of the
    plus-subgraph; one edge per Seifert circle.
    """
    if circles.count != g.node_count:
        raise ValueError("circles and graph come from different diagrams")
    minus, plus = g.minus_component_ids, g.plus_component_ids
    n_minus = max(minus) + 1
    n_plus = max(plus) + 1
    edges = tuple((minus[c], n_minus + plus[c]) for c in range(g.node_count))
    return AuxGraph(n_minus + n_plus, edges)


def betti1(g: AuxGraph) -> int:
    """First Betti number 1 - #nodes + #edges of a connected auxiliary graph.

    Raises DisconnectedDiagramError for split diagrams; use
    betti1_components for per-piece values there.
    """
    parts = betti1_components(g)
    if len(parts) != 1:
        raise DisconnectedDiagramError(
            f"auxiliary graph has {len(parts)} components; per-component b1 = {parts}"
        )
    return parts[0]


def betti1_components(g: AuxGraph) -> list[int]:
    """First Betti numbers of the auxiliary graph's connected components."""
    uf = UnionFind(g.node_count)
    for u, v in g.edges:
        uf.union(u, v)
    b1: dict[int, int] = {}  # root -> 1 - #nodes + #edges of its component
    for node in range(g.node_count):
        r = uf.find(node)
        b1[r] = b1.get(r, 1) - 1
    for u, _ in g.edges:
        b1[uf.find(u)] += 1
    return [b1[r] for r in sorted(b1)]


def two_coloring(g: SeifertGraph) -> list[int]:
    """2-color the Seifert graph (adjacent circles get opposite classes).

    The graph is bipartite for every genuine planar diagram; the coloring
    picks out the canonical generator labels for the Lee complex.  Isolated
    or per-component choices are normalized so the circle with the smallest
    id in each piece gets class 0.
    """
    adj: dict[int, list[int]] = {i: [] for i in range(g.node_count)}
    for u, v, _, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * g.node_count
    for start in range(g.node_count):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for other in adj[node]:
                if color[other] == -1:
                    color[other] = 1 - color[node]
                    stack.append(other)
                elif color[other] == color[node]:
                    raise ConsistencyError(
                        "Seifert graph is not bipartite; diagram data is not planar"
                    )
    return color
