"""Oriented link diagram model and elementary combinatorial queries.

A diagram is a set of signed crossings over abstract edge ids plus optional
crossingless components (free loops).  Each crossing stores its four edge ids
counterclockwise starting at the incoming under-strand edge, so orientation
data is carried by the tuples themselves:

    (a, b, c, d)   under-strand runs a -> c
                   over-strand runs d -> b at a positive crossing,
                                    b -> d at a negative crossing

Slot 4i+p is position p of crossing i, and ``Diagram._slot_walk`` is the
one incidence table: the edge at each slot and the slot at the other end of
that edge.  Everything that asks which slots an edge fills reads it:
``validate`` (two slots per edge, each edge entered at exactly one),
``Diagram.strands``, the one walk of the strand cycles, straight on through
each crossing from slot 4i+p to 4i+(p^2) (components, PD export and the PD
label-run rule read it), ``Diagram._pieces`` (crossings joined along
edges; ``Diagram.is_connected`` and ``Diagram.is_planar`` count them),
``Diagram.faces`` (walked from slot to slot; ``Diagram.is_planar``, the
planarity check of PD input, counts them), ``is_alternating`` (every
edge joins an even, under-strand slot to an odd, over-strand one),
``simplify`` (Reidemeister I and II moves, found among the faces) and
``Diagram.resolution``, the one routine that smooths the crossings and
numbers the resulting circles by walking slots: the smoothing of crossing i
joins slot 4i+p to 4i+(p^1) or 4i+(p^3).  ``UnionFind`` serves
``Diagram._pieces``, the strands that ``simplify`` joins, the
signed-subgraph components of the Seifert graph,
``seifert.betti1_components`` and ``seifert.two_coloring``.  The oriented
resolution (the Seifert circles) and the signed Seifert graph on it are
cached on the diagram like its other derived quantities, so every bound
reads one structure.  Braid words, and ``braid_sign_condition`` with
them, live in ``notation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain


class ValidationError(ValueError):
    """A diagram (or parsed value) violates a structural invariant."""


class ConsistencyError(RuntimeError):
    """An internal cross-check that is a proved theorem failed; indicates a bug."""


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def component_count(self) -> int:
        return sum(1 for i in range(len(self.parent)) if self.find(i) == i)


@dataclass(frozen=True)
class SeifertCircles:
    """Partition of the edges into the circles of one resolution.

    Circle ids are assigned by increasing minimum edge id, so output is
    deterministic across runs and implementations; ``reps`` lists each
    circle's minimum edge id.
    """

    circle_of_edge: dict[int, int]
    count: int
    reps: tuple[int, ...]


@dataclass(frozen=True)
class SeifertGraph:
    """Signed multigraph on Seifert circles: one edge per crossing.

    The subgraphs T- and T+ keep every node and only the edges of one sign;
    the component id of each node in them is computed once per graph.
    """

    node_count: int
    edges: tuple[tuple[int, int, int, int], ...]  # (u, v, sign, crossing index)

    def _component_ids(self, keep_sign: int) -> tuple[int, ...]:
        uf = UnionFind(self.node_count)
        for u, v, sign, _ in self.edges:
            if sign == keep_sign:
                uf.union(u, v)
        roots: dict[int, int] = {}
        return tuple(roots.setdefault(uf.find(node), len(roots)) for node in range(self.node_count))

    @cached_property
    def minus_component_ids(self) -> tuple[int, ...]:
        """Component of each node in T-, ids by increasing minimum node."""
        return self._component_ids(-1)

    @cached_property
    def plus_component_ids(self) -> tuple[int, ...]:
        """Component of each node in T+, ids by increasing minimum node."""
        return self._component_ids(+1)


@dataclass(frozen=True)
class Crossing:
    """One crossing: edge ids counterclockwise from the incoming under-strand."""

    edges: tuple[int, int, int, int]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValidationError(f"crossing sign must be +1 or -1, got {self.sign}")
        if len(self.edges) != 4 or any(e < 1 for e in self.edges):
            raise ValidationError(f"crossing needs 4 positive edge ids, got {self.edges}")

    @property
    def under_in(self) -> int:
        return self.edges[0]

    @property
    def under_out(self) -> int:
        return self.edges[2]

    @property
    def over_in(self) -> int:
        return self.edges[3] if self.sign > 0 else self.edges[1]

    @property
    def over_out(self) -> int:
        return self.edges[1] if self.sign > 0 else self.edges[3]


@dataclass(frozen=True)
class Diagram:
    """Oriented diagram of a knot or link.

    ``free_loops`` lists one edge id per crossingless component, so closures
    of trivial braid words round-trip.  Derived quantities are cached; the
    value itself is immutable and safe to share between tasks.
    """

    crossings: tuple[Crossing, ...]
    free_loops: tuple[int, ...] = ()

    @cached_property
    def n_plus(self) -> int:
        return sum(1 for c in self.crossings if c.sign > 0)

    @cached_property
    def n_minus(self) -> int:
        return len(self.crossings) - self.n_plus

    @property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self._slot_walk[2])

    @cached_property
    def strands(self) -> tuple[tuple[int, ...], ...]:
        """The edge ids of each component in strand order, each from its
        minimum edge, components ordered by minimum edge; a free loop is a
        strand of one edge.  The walk starts at the slot where the minimum
        edge begins (4i+2 on the under-strand, 4i+2-sign on the over-strand)
        and runs along each edge to its other slot, then straight on through
        that crossing (p -> p^2), until it is back at the start."""
        edges, partner, starts = self._slot_walk
        seen: set[int] = set()
        strands = []
        for e, s in starts:  # ascending, so a new start is its strand's minimum
            if e in seen:
                continue
            strand = [e]
            if s >= 0:
                if s & 3 not in (2, 2 - self.crossings[s >> 2].sign):
                    s = partner[s]
                t = partner[s] ^ 2
                while t != s:
                    strand.append(edges[t])
                    t = partner[t] ^ 2
            seen.update(strand)
            strands.append(tuple(strand))
        return tuple(strands)

    @property
    def components(self) -> int:
        """Number of link components."""
        return len(self.strands)

    @cached_property
    def _pieces(self) -> int:
        """The number of pieces of the 4-valent picture that hold crossings:
        the union-find over the crossings joins the two ends of every edge
        (slot s lies on crossing s >> 2).  Each face keeps to one piece and
        every edge lies on a face, so the pieces along the faces are these."""
        _, partner, _ = self._slot_walk
        uf = UnionFind(len(self.crossings))
        for s, t in enumerate(partner):
            uf.union(s >> 2, t >> 2)
        return uf.component_count()

    @cached_property
    def is_connected(self) -> bool:
        """True when the underlying 4-valent picture is a single piece: the
        ``_pieces`` with crossings and the free loops, each a piece of its own."""
        return self._pieces + len(self.free_loops) == 1

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of the slot map s -> partner of the next slot
        counterclockwise at s's crossing, each from its smallest slot, in slot
        order.  Slot 4i+p is the face's corner between positions p and p+1 of
        crossing i, left along the edge at 4i+((p+1)&3).  Free loops have none.
        """
        _, partner, _ = self._slot_walk
        seen = [False] * len(partner)
        faces = []
        for start in range(len(partner)):
            face = []
            s = start
            while not seen[s]:
                seen[s] = True
                face.append(s)
                s = partner[4 * (s >> 2) + ((s + 1) & 3)]
            if face:
                faces.append(tuple(face))
        return tuple(faces)

    @cached_property
    def is_planar(self) -> bool:
        """True when the crossings' counterclockwise orders embed the diagram
        in the plane: by Euler's formula with E = 2V, when every piece with
        crossings has crossings + 2 ``faces`` (fewer means a surface of higher
        genus, a virtual diagram), counted over the ``_pieces``.
        """
        return len(self.faces) == len(self.crossings) + 2 * self._pieces

    @cached_property
    def oriented_mask(self) -> int:
        """Cube vertex of the oriented resolution: bits set at the negative crossings."""
        return sum(1 << i for i, c in enumerate(self.crossings) if c.sign < 0)

    @cached_property
    def _slot_walk(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The diagram's one incidence table, over crossing slots (slot 4i+p
        is position p of crossing i): the edge id at each slot, the slot at
        the other end of the same edge (the slot itself for an edge with one
        incidence), and (edge id, one of its slots) by ascending edge id,
        with slot -1 for a free loop.

        Its readers: ``validate``'s structure checks, ``edge_ids``, the
        strand walk of ``strands``, ``_pieces``, the face walk of
        ``faces``, ``is_alternating``, ``simplify`` and the circle walk of
        ``resolution``.  A walk ends only if ``partner`` is an involution,
        so an edge in a third slot raises here: a mirror image, for one, is
        resolved without passing through ``validate``.
        """
        edges = tuple(chain.from_iterable(c.edges for c in self.crossings))
        partner = list(range(len(edges)))
        slot_of: dict[int, int] = {}
        for s, e in enumerate(edges):
            t = slot_of.setdefault(e, s)
            if partner[t] != t:
                raise ValidationError(f"edge {e} fills more than two crossing slots")
            partner[s], partner[t] = t, s
        starts = {**dict.fromkeys(self.free_loops, -1), **slot_of}
        return edges, tuple(partner), tuple(sorted(starts.items()))

    def resolution(self, mask: int) -> SeifertCircles:
        """Circles of cube vertex ``mask``, ids by increasing minimum edge id.

        Bit i set smooths crossing i into the pairing {a,d},{b,c}, bit i clear
        into {a,b},{c,d}: slot 4i+p is joined to slot 4i+(p^3) or 4i+(p^1).
        A circle is walked from one slot of its minimum edge: across the
        smoothing to the next slot, along that slot's edge to the slot at its
        other end, and so on until the walk is back where it began.  Circles
        are started from the unvisited edges in ascending id order; free
        loops are circles of their own.
        """
        edges, partner, starts = self._slot_walk
        circle_of_edge: dict[int, int] = {}
        reps: list[int] = []
        for e, start in starts:
            if e in circle_of_edge:
                continue
            circle = len(reps)
            reps.append(e)
            if start < 0:
                circle_of_edge[e] = circle
                continue
            s = start
            while True:
                t = s ^ 3 if mask >> (s >> 2) & 1 else s ^ 1
                circle_of_edge[edges[t]] = circle
                s = partner[t]
                if s == start:
                    break
        return SeifertCircles(circle_of_edge, len(reps), tuple(reps))

    @cached_property
    def seifert_circles(self) -> SeifertCircles:
        """Seifert circles: the resolution at ``oriented_mask``.

        There the incoming under-edge joins the outgoing over-edge and vice
        versa, so every crossing must touch two distinct circles.
        """
        circles = self.resolution(self.oriented_mask)
        of = circles.circle_of_edge
        for i, c in enumerate(self.crossings):
            if of[c.under_in] == of[c.under_out]:
                raise ConsistencyError(
                    f"crossing {i} smooths onto a single circle; orientation data invalid"
                )
        return circles

    @cached_property
    def seifert_graph(self) -> SeifertGraph:
        """One signed edge per crossing between the two circles it touches."""
        of = self.seifert_circles.circle_of_edge
        edges = tuple(
            (of[c.under_in], of[c.under_out], c.sign, i) for i, c in enumerate(self.crossings)
        )
        return SeifertGraph(self.seifert_circles.count, edges)

    @cached_property
    def _validated(self) -> bool:
        """True once ``validate``'s checks have passed; a failure raises and caches nothing."""
        _check_structure(self)
        return True

    @property
    def is_knot(self) -> bool:
        """One component; a valid diagram with one component is connected:
        its one strand passes every crossing, and a lone free loop is one
        piece."""
        return self.components == 1


def validate(d: Diagram) -> None:
    """Check all structural invariants, reporting the first offender.

    The checks run once per diagram: after they pass this returns at once,
    and a diagram that fails raises ValidationError naming the offending
    edge or crossing on every call.
    """
    d._validated  # reading the cached property runs the checks


def _check_structure(d: Diagram) -> None:
    if not d.crossings and not d.free_loops:
        raise ValidationError("empty diagram: no crossings and no free loops")
    if len(set(d.free_loops)) != len(d.free_loops):
        raise ValidationError("duplicate free-loop edge id")

    edges, partner, _ = d._slot_walk  # raises for an edge in a third slot
    crossing_edges = set(edges)
    for e in d.free_loops:
        if e in crossing_edges:
            raise ValidationError(f"edge {e} is both a free loop and a crossing edge")
    for s, t in enumerate(partner):
        if s == t:
            raise ValidationError(f"edge {edges[s]} has 1 crossing incidences, expected 2")

    # Strand continuity: every crossing edge is entered (as under_out, slot
    # 4i+2, or over_out, slot 4i+2-sign) at exactly one of its two slots, so
    # it is left at the other and every strand walk passes each edge once.
    entered = [False] * len(edges)
    for i, c in enumerate(d.crossings):
        entered[4 * i + 2] = entered[4 * i + 2 - c.sign] = True
    for s, t in enumerate(partner):
        if s < t and entered[s] == entered[t]:
            raise ValidationError(f"edge {edges[s]} is entered by {2 * entered[s]} strand passages, expected 1")


def mirror(d: Diagram) -> Diagram:
    """Mirror image: every crossing switched, writhe negated, circles kept.

    With the shadow fixed and over/under exchanged, the tuple rotates so the
    old over-in edge becomes the incoming under-strand.
    """
    flipped = []
    for c in d.crossings:
        a, b, cc, dd = c.edges
        if c.sign > 0:
            flipped.append(Crossing((dd, a, b, cc), -1))
        else:
            flipped.append(Crossing((b, cc, dd, a), +1))
    return Diagram(tuple(flipped), d.free_loops)


def simplify(d: Diagram) -> Diagram:
    """A diagram of the same link with no Reidemeister I kink or II bigon,
    or ``d`` itself when it has none.

    Repeatedly removes the first such face in ``faces`` order.  A face with
    one corner is a kink; a face with two corners is an R2 bigon when its
    edge fills slots of equal parity at both, on one level (a clasp has
    opposite parity and stays), which puts them at two crossings.  The face's
    crossings go: the union-find over slots joins each of their slots to the
    other end of its edge and to the slot straight across (p -> p^2), each
    joined strand keeps one of its edge ids, and one left with no slot
    becomes a free loop.  R2 keeps the writhe; R1 changes it by the kink's sign.
    """
    while True:
        for face in d.faces:
            gone = {face[0] >> 2, face[-1] >> 2}
            if len(face) == 1 or (len(face) == 2 and (face[0] ^ face[1]) & 1):
                break
        else:
            return d
        edges, partner, _ = d._slot_walk
        uf = UnionFind(len(edges))
        for s in range(len(edges)):
            if s >> 2 in gone:
                uf.union(s, partner[s])
                uf.union(s, s ^ 2)
        label = [edges[uf.find(s)] for s in range(len(edges))]
        kept = tuple(Crossing(tuple(label[4 * i:4 * i + 4]), c.sign)
                     for i, c in enumerate(d.crossings) if i not in gone)
        d = Diagram(kept, d.free_loops + tuple(sorted(set(label).difference(*(c.edges for c in kept)))))


def is_positive(d: Diagram) -> bool:
    """True iff the diagram has no negative crossings (0 crossings counts)."""
    return d.n_minus == 0


def is_negative(d: Diagram) -> bool:
    """True iff the diagram has no positive crossings (0 crossings counts)."""
    return d.n_plus == 0


def is_alternating(d: Diagram) -> bool:
    """True iff crossings alternate over/under along every strand.

    Equivalent slot-parity criterion: every edge joins an under-strand slot
    (positions 0 and 2 of a tuple, so an even slot) to an over-strand slot
    (an odd one), i.e. each ``_slot_walk`` partner pair has one slot of each
    parity.  Crossingless components are vacuously alternating.  No
    reducedness check is made; nugatory crossings are evaluated literally.
    """
    _, partner, _ = d._slot_walk
    return all((s ^ t) & 1 for s, t in enumerate(partner))
