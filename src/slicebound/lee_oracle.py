"""Exact Rasmussen-invariant oracle via the filtered Lee complex.

Only the homological slice -1, 0, 1 of the cube of resolutions is built: the
degree-0 homology of the Lee complex of a knot diagram is 2-dimensional, and
the invariant is read off the quantum filtration level of the canonical
degree-0 cycles inside C^0 / im(d_-1).

Conventions (calibrated so the 0-crossing unknot has gradings {-1, +1} and
s(unknot) = 0):

* cube vertex v is a bitmask over the crossings of the diagram, bit i for
  crossing i as the input numbers them (the vertex order is separate, see
  Vertex order below), and its circles are ``Diagram.resolution(v)``: bit
  i = 1 takes the smoothing pairing {a,d},{b,c} at crossing i, bit 0 takes
  {a,b},{c,d}; circle ids go by minimum edge id;
* homological degree of v is |v| - n_minus; the oriented resolution sits at
  ``Diagram.oriented_mask``, bits set exactly at negative crossings, and is
  the diagram's cached ``seifert_circles``;
* a generator labels each circle of its resolution with v_plus or v_minus;
  q = (#v_plus - #v_minus) + |v| + n_plus - 2 n_minus;
* the differential merges with v_minus * v_minus = v_plus (so a merge XORs
  label bits) and splits with Delta(v_plus) = v_plus v_minus + v_minus v_plus,
  Delta(v_minus) = v_minus v_minus + v_plus v_plus, all unit coefficients
  times the cube edge sign (-1)^(set bits below the flipped one).

Label tables: the edge map m -> m | 1 << i sends the labels of m through
one XOR table of target labels (a merge) or two (a split).  The target
circle of each circle of m fixes a merge's table; a split's is fixed by that
and by the circle through crossing i with the two circles it splits into.
``_build_matrix`` keys the tables by those circle ids and keeps one
``itemgetter`` per distinct key, built on first use, in a dict that
``build_slice`` makes for its three builds and drops with them: a table is
built once per slice and never carried from one slice to the next.  On the
36 table knots the slices build 771 tables, where one per (vertex, flipped
crossing) made 11787.

Unit-entry invariant: every entry of ``d_in`` and ``d_out`` is +1 or -1,
and a column is stored as a signed row pair (``Column``): the rows of its
+1 entries and the rows of its -1 entries, as two tuples.  The +-1 rule
holds by representation; what could break it is a row named twice, which
would stand for an entry 2 (twice in one half) or 0 (once in each).  A
label's terms under one edge map are distinct, and different flipped
crossings reach different target vertices, so no two terms of a column ever
meet.  ``_check_slice`` verifies on every slice, in this order, that every
column of ``d_in`` and ``d_out`` is filtered and repeats no row, that the
first clearing relation of each top index has distinct rows and
d_in . r = 0, and that d_out . d_in = 0 on the ``d_in`` columns no relation
cleared.  The two zero tests are ``_composes_to_zero``, which compares the
sorted targets of the +1 and -1 paths through the composite column and
needs unit entries, so no relation reads a ``d_in`` column before its rows
are checked distinct.  Rows are checked distinct without a set per column:
each differential gets one list ``last`` over its target rows, holding the
index of the last column that named each row, which the loop that tests
every entry's grading also reads and writes; a column finds its own index
there only at a row it names twice.  The relations share one such list over
C^-1, keyed by their ordinal in the stream.  The messages and their order
are those of a set per column: a column with a repeated row and an
unfiltered entry reports the unfiltered one.

Coefficients are exact: matrices live over the integers, and every
elimination step leaves an integer column that is a nonzero rational multiple
of its reduction over the rationals, which is equivalent to working over the
rationals.  Stored pivots are primitive: every column has unit entries, so
one whose low has no pivot yet is stored as built, any other is reduced and
gcd-stripped; a working column is stripped after each non-unit rescale.

Generators of C^0 and C^1 are numbered by filtration row, once, when the
slice is built: ascending quantum grading, ties by descending (vertex, label)
index (``_row_order``).  Both differentials, the gradings and the canonical
cycles are stored in that numbering, which is the one the elimination uses;
``LeeComplexSlice.rows`` maps each generator to its index.
Only the gradings of echelon lows and the prefix ranks at grading boundaries
are read, and both are invariants of the spans, so the tie rule cannot change
``s`` or the profile; it governs fill-in, and with it the cost of every
elimination.  C^-1 keeps (vertex, label) order: its generators number the
columns of ``d_in``, which the echelon takes in that order, and the column
order governs fill-in too.

Clearing: a vector r with d_in . r = 0 whose last nonzero entry is at index j
writes column j of ``d_in`` as a combination of earlier columns, so the
echelon would reduce it to zero; skipping it changes no pivot, hence not
``s``, the profile or rank d_in.  The columns of d_-2 : C^-2 -> C^-1 are such
relations.  ``build_slice`` streams every column of d_-2 through the one
matrix builder, which resolves each degree -2 vertex as it reaches it, into
``_check_slice``; degree -2 is never stored, neither its columns nor its
resolutions, and only the degree -1 resolutions, its targets, are kept
while it streams.  ``_check_slice`` is the one record of what is cleared: it
verifies the first relation of each top index exactly as it arrives, drops
a relation whose top is already cleared without reading it further, and
returns the top indices of the verified ones, which ``build_slice`` stores
as ``LeeComplexSlice.cleared`` and the ``d_in`` echelon skips;
``_check_slice`` never reads it from a slice.  The same relations prove
d_out . d_in = 0 on the cleared columns, by induction on the column index:
r has unit entries, so d_in[j] = -+ sum_{i<j} r_i d_in[i], and each column
i < j is either tested directly or cleared before j.  So the composite is
tested only on the uncleared columns (2544 of the 5292 on the 10-crossing
word of ``oracle-mid``).

Vertex order: every degree lists its vertices in ascending order of the
weight that gives the k-th crossing of ``_crossing_order`` the value 2^k
(``_vertices``).  A relation's top index then always lies in the block of a
C^-1 vertex that contains the last crossing t of that order, so which
crossing comes last decides how much of ker d_in (which is im d_-2: Lee
homology of a knot lives in degree 0) the clearing reaches.  A column of a
block without t reduces to zero only where flipping t merges two circles
(``_crossing_order`` says why), so ``build_slice`` resolves the degree -1
vertices first and ``_crossing_order`` puts last a crossing whose flip
splits a circle at the most of them.  Masks and cube edge signs keep the
input's crossing numbering: sign rules under which every square
anticommutes differ by one sign per vertex, so the elimination takes the
same steps, up to sign, in any numbering.  The order changes only the cost:
on the five ``oracle-mid`` words the echelon reduces 246 uncleared columns
to zero instead of 1570 in ascending mask order.

The slice is the one handle for every read: ``build_slice`` is the only entry
that takes a diagram or a crossing limit, and ``canonical_cycles``,
``s_invariant`` and ``filtration_profile`` take the slice alone and read its
diagram from it.  Nothing here touches process-wide state.  Within the
package only ``checks`` runs the oracle, and it runs each slice's life with
CPython's cyclic collector paused (its docstring says why); a library caller
that builds slices itself runs them with the collector as it finds it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations, repeat
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .diagram import ConsistencyError, Diagram, SeifertCircles, validate
from .seifert import two_coloring


class CrossingLimitError(ValueError):
    """Refusal to build a complex beyond the configured crossing limit; only
    ``build_slice`` decides it, and callers that skip refused diagrams catch it."""


DEFAULT_MAX_CROSSINGS = 12


# one column of a differential: (rows of its +1 entries, rows of its -1 entries)
Column = tuple[tuple[int, ...], tuple[int, ...]]
# label-table key -> an itemgetter per target table; ``build_slice`` makes one per slice
Gathers = dict[tuple, tuple[itemgetter, ...]]


@dataclass
class LeeComplexSlice:
    """Filtered chain groups in homological degrees -1, 0, 1.

    Generators of degree i are (vertex mask, label mask) pairs with
    |mask| = n_minus + i; label bit j = 1 labels circle j with v_minus.
    ``diagram`` is the diagram passed to ``build_slice``, and masks are over
    its crossings.  The index of a generator is ``rows[i][mask][label]``,
    and ``rows[i]`` lists the vertices of degree i in ``_vertices`` order:
    ascending, with the k-th crossing of ``_crossing_order`` worth 2^k.  C^0
    and C^1 are numbered by filtration row, so ``gradings[0]`` and
    ``gradings[1]`` ascend.  C^-1 is numbered by (vertex, label) order, each
    vertex's labels one block after the previous vertex's: it is the order
    in which the ``d_in`` echelon takes its columns, and a different column
    order changes fill-in.  ``d_in`` maps C^-1 -> C^0 and ``d_out`` maps
    C^0 -> C^1, stored one immutable signed row pair (``Column``) per source
    generator: the target rows of its +1 entries, then those of its -1
    entries, no row named twice (``_check_slice``).  The echelons keep a
    column they take without reduction as a ``_ColumnView`` of its row
    pair, and build a {row: +-1} dict of a column only when a reduction
    reads it.
    """

    diagram: Diagram
    rows: dict[int, dict[int, Sequence[int]]]  # degree -> {mask: row of each label}, in _vertices order
    gradings: dict[int, tuple[int, ...]]  # degree -> q per generator
    d_in: tuple[Column, ...]
    d_out: tuple[Column, ...]
    cleared: frozenset[int]  # C^-1 indices of d_in columns the echelon skips

    def dim(self, degree: int) -> int:
        return len(self.gradings[degree])

    @cached_property
    def din_echelon(self) -> dict[int, Mapping[int, int]]:
        """Column echelon of ``d_in``, {low row: primitive column}; computed
        once per slice, on first use.  The ``cleared`` columns lie in the span
        of the columns before them and are skipped, which changes no pivot;
        a pivot is a dict only once a reduction has read it
        (``_add_column``)."""
        cleared = self.cleared
        return _column_echelon(col for j, col in enumerate(self.d_in) if j not in cleared)


def _label_gradings(k: int, shift: int) -> list[int]:
    """q of every label on k circles: (#v_plus - #v_minus) + ``shift``."""
    return [k + shift - 2 * label.bit_count() for label in range(1 << k)]


def _label_table(contrib: list[int]) -> list[int]:
    """XOR of ``contrib[j]`` over the set bits j of each label, for every label.

    Filled in whole blocks: the labels with highest set bit j are those below
    2^j with ``contrib[j]`` added, i.e. tab[l] = tab[l - 2^j] ^ contrib[j].
    """
    tab = [0]
    for c in contrib:
        tab += [x ^ c for x in tab]
    return tab


def _build_matrix(
    d: Diagram,
    sources: tuple[int, ...],
    tgt_rows: dict[int, Sequence[int]],
    circles: dict[int, SeifertCircles],
    gathers: Gathers,
) -> Iterator[Column]:
    """Columns of the cube differential from the vertices ``sources``: one
    signed row pair per (vertex, label), yielded in (vertex, label) order;
    ``tgt_rows[m][label]`` is the row of a target generator.  ``circles``
    holds the resolution of every target vertex; a source vertex missing
    from it is resolved here and not kept.

    Each edge map sends a label to one target (merge) or two (split) whose
    label bits are an XOR-linear function of the source label, plus a
    constant, so a whole vertex's targets come from one label table per
    target term.  A merge's table is fixed by ``ids``, the target circle of
    each source circle; a split's by ``ids``, the source circle through the
    crossing and its two children.  ``gathers`` maps that key to an
    ``itemgetter`` per table, built on first use, so each distinct table is
    built once per slice; a merge key is a tuple of ints and a split key
    starts with a tuple, so the two never meet.  Every entry is the cube
    edge sign, so each crossing's gathered targets join the half of its
    sign and the columns are the transposed halves.  The two terms of a
    split differ at its two child circles, and different crossings land in
    different target vertices.
    """
    n = len(d.crossings)
    for m in sources:
        ca = circles[m] if m in circles else d.resolution(m)
        k = ca.count
        # the target circle of each circle of m; an itemgetter of one index
        # would return a bare id, not a tuple
        target_ids = itemgetter(*ca.reps) if k > 1 else lambda of, rep=ca.reps[0]: (of[rep],)
        plus: list[tuple[int, ...]] = []
        minus: list[tuple[int, ...]] = []
        odd = False  # odd set bits of m below i: the cube edge sign is -1
        for i in range(n):
            if m >> i & 1:
                odd = not odd
                continue
            m2 = m | 1 << i
            half = minus if odd else plus
            cb = circles[m2]
            ids = target_ids(cb.circle_of_edge)
            if cb.count == k - 1:
                key: tuple = ids
            elif cb.count == k + 1:
                a, b, _, _ = d.crossings[i].edges
                key = (ids, ca.circle_of_edge[a], cb.circle_of_edge[a], cb.circle_of_edge[b])
            else:
                raise ConsistencyError(
                    f"resolution change at crossing {i} is not a merge or split; "
                    "diagram data is not planar"
                )
            gets = gathers.get(key)
            if gets is None:
                contrib = [1 << c for c in ids]
                if cb.count < k:
                    # merge: both circles at crossing i map to the merged
                    # circle, so their bits XOR there: v_minus * v_minus = v_plus
                    tables = [_label_table(contrib)]
                else:
                    # split: the circle through crossing i divides into t1
                    # and t2.  With its bit sent to t1, the table holds the
                    # other circles' bits plus t1 exactly when it carries
                    # v_minus, so Delta(v_plus) = v_plus v_minus + v_minus
                    # v_plus and Delta(v_minus) = v_minus v_minus + v_plus
                    # v_plus are the table XOR t2 and the table XOR t1
                    _, j, c1, c2 = key
                    t1, t2 = 1 << c1, 1 << c2
                    contrib[j] = t1
                    tab = _label_table(contrib)
                    tables = [[x ^ t2 for x in tab], [x ^ t1 for x in tab]]
                # a vertex has at least one circle, so every table has at
                # least 2 entries and each gather returns a tuple, never a
                # bare row
                gets = gathers[key] = tuple(itemgetter(*tab) for tab in tables)
            rows = tgt_rows[m2]
            for get in gets:
                half.append(get(rows))
        labels = 1 << k
        yield from zip(
            zip(*plus) if plus else repeat((), labels),
            zip(*minus) if minus else repeat((), labels),
        )


def build_slice(d: Diagram, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> LeeComplexSlice:
    """Construct bases and both differentials for a connected knot diagram.

    Refuses diagrams beyond ``max_crossings`` (the degree-0 vertex count is
    C(n, n_minus) and every vertex carries 2^circles generators).  The
    degree -1 vertices are resolved first: their circles give the crossing
    order (``_crossing_order``) in which ``_vertices`` lists the vertices of
    every degree.  Masks keep the crossing numbering of ``d``, which the
    slice keeps as its ``diagram``.  The columns of d_-2 come from the same
    builder, streamed into ``_check_slice``, which verifies them and returns
    the cleared set; they are not kept, and neither are the degree 0 and 1
    resolutions while they stream.
    """
    validate(d)
    if not d.is_knot:
        raise ValueError("Lee complex slice needs a connected knot diagram")
    n = len(d.crossings)
    if n > max_crossings:
        raise CrossingLimitError(
            f"{n} crossings exceeds the configured limit {max_crossings}"
        )
    n_minus = d.n_minus

    # the degree -1 vertices are resolved first: their circles order the cube
    circles = {m: d.resolution(m) for m in _vertices(range(n), n_minus - 1)}
    perm = _crossing_order(d, circles)
    vertices = {degree: _vertices(perm, n_minus + degree) for degree in (-1, 0, 1)}

    # the oriented resolution (a degree-0 vertex) is the diagram's cached one
    circles[d.oriented_mask] = d.seifert_circles
    rows: dict[int, dict[int, Sequence[int]]] = {}  # degree -> {mask: row of each label}
    gradings: dict[int, tuple[int, ...]] = {}
    for degree in (-1, 0, 1):
        # |v| + n_plus - 2 n_minus is the same at every vertex of one degree
        shift = degree + d.n_plus - n_minus
        tables: dict[int, list[int]] = {}  # circle count -> q of each label
        off: dict[int, int] = {}  # mask -> (vertex, label) index of its label 0
        grades: list[int] = []
        for m in vertices[degree]:
            if m not in circles:
                circles[m] = d.resolution(m)
            k = circles[m].count
            off[m] = len(grades)
            if k not in tables:
                tables[k] = _label_gradings(k, shift)
            grades += tables[k]
        # C^-1 keeps (vertex, label) order; C^0 and C^1 go by filtration row
        pos, order = _row_order(grades) if degree >= 0 else (range(len(grades)),) * 2
        gradings[degree] = tuple(grades[i] for i in order)
        rows[degree] = {m: pos[start:start + (1 << circles[m].count)] for m, start in off.items()}

    gathers: Gathers = {}  # shared by the d_in, d_out and d_-2 builds, dropped with the slice
    d_in = tuple(_build_matrix(d, vertices[-1], rows[0], circles, gathers))
    # d_out's columns come in (vertex, label) order; store each at its C^0 row
    d_out: list[Column] = [((), ())] * len(gradings[0])
    for row, col in zip(chain.from_iterable(rows[0].values()), _build_matrix(d, vertices[0], rows[1], circles, gathers)):
        d_out[row] = col

    slice_ = LeeComplexSlice(
        diagram=d,
        rows=rows,
        gradings=gradings,
        d_in=d_in,
        d_out=tuple(d_out),
        cleared=frozenset(),
    )
    # the relations' targets are the degree -1 vertices: the degree 0 and 1
    # resolutions are released before d_-2 streams through the check
    circles = {m: circles[m] for m in vertices[-1]}
    # _check_slice reads the relations only after d_in's rows are checked distinct
    relations = _build_matrix(d, _vertices(perm, n_minus - 2), rows[-1], circles, gathers)
    return replace(slice_, cleared=_check_slice(slice_, relations))


def _vertices(perm: Sequence[int], weight: int) -> tuple[int, ...]:
    """The masks of ``weight`` crossings, ascending with crossing ``perm[k]``
    worth 2^k: combinations of the bits of positions n-1, ..., 0 come in
    descending weight, so their reverse ascends."""
    if weight < 0:
        return ()
    bit = [1 << i for i in perm]
    return tuple(reversed(list(map(sum, combinations(bit[::-1], weight)))))


def _crossing_order(d: Diagram, given: dict[int, SeifertCircles]) -> list[int]:
    """The crossings of ``d`` in ascending (score, index) order, ties kept in
    index order by the stable sort; ``given`` holds the resolution of every
    degree -1 vertex.

    The score of crossing i sums count(u | 1 << i) - count(u) over the degree
    -1 vertices u without i: +1 where flipping i splits a circle of u, -1
    where it merges two.  Bit 0 smooths crossing (a, b, c, d) into the arcs
    {a,b} and {c,d}, so flipping it splits exactly when edges a and c lie on
    one circle of u.  Every crossing is missing from equally many degree -1
    vertices, so the last crossing t, which weighs most in ``_vertices``,
    splits at the most of them.  Without a degree -1 vertex every score is 0
    and the order is the identity.

    Why t should split: every top index of a d_-2 vertex w lies in the
    block of w plus the last crossing of the order not in w, so the block
    of a C^-1 vertex u without t is never a top block, and any of its
    columns that reduce to zero stay in the echelon.  Those blocks come
    first in column order, and among them only u reaches the C^0 vertex
    u + t, so a column of u's block reduces to zero only if the edge map
    u -> u + t has a kernel, that is, only if flipping t merges two circles
    of u (Delta is injective, the merge is not).
    """
    ends = [(c.edges[0], c.edges[2]) for c in d.crossings]
    score = [0] * len(ends)
    for u, circles in given.items():
        of = circles.circle_of_edge
        for i, (a, c) in enumerate(ends):
            if not u >> i & 1:
                score[i] += 1 if of[a] == of[c] else -1
    return sorted(range(len(ends)), key=score.__getitem__)


def _composes_to_zero(outer: Sequence[Column], col: Column) -> bool:
    """True when outer . col = 0, for signed row pairs without repeated rows.

    Every path e_j -> e_t -> e_u contributes the product of a ``col`` entry
    and an ``outer`` entry, +1 exactly when they are equal, so the composite
    vanishes when the sorted targets of the +1 paths equal those of the -1
    paths: the like-signed halves of the outer columns at ``col``'s +1 rows
    and the unlike-signed halves at its -1 rows.
    """
    up: list[int] = []
    down: list[int] = []
    plus, minus = col
    for t in plus:
        p, m = outer[t]
        up += p
        down += m
    for t in minus:
        p, m = outer[t]
        up += m
        down += p
    up.sort()
    down.sort()
    return up == down


def _repeated(terms: tuple[int, ...]) -> str:
    """The rows that ``terms`` names more than once, for an error message."""
    return f"rows {sorted(t for t, k in Counter(terms).items() if k > 1)} repeat"


def _check_slice(s: LeeComplexSlice, relations: Iterable[Column] = ()) -> frozenset[int]:
    """Always-on structural checks: filtered columns, distinct rows, the
    clearing ``relations`` and d_out . d_in = 0; returns the C^-1 indices of
    the ``d_in`` columns that the relations clear, and is the only record
    of them.

    No column may name a row twice, in one half or across both (Lee's edge
    maps have unit coefficients and distinct targets): a repeated row is the
    signed-row form of an entry 2 or 0, and ``_composes_to_zero`` needs every
    entry to be +-1.  So the rows of every column of ``d_in`` and ``d_out``
    are checked first, in the loop that tests each entry's grading: a list
    ``last`` per differential, one slot per target row, holds the index of
    the last column that named the row, so a column meets its own index
    only at a repeated row.  A hit only marks the column, which raises after
    its loop, so an unfiltered entry anywhere in it is reported first, as
    with a set per column.  Then the relations are taken in the order given,
    each by its top index j = max(r) first: a relation whose j is already
    cleared is skipped unread, since it could clear nothing more; any other
    must have distinct rows (one ``last`` list over C^-1, keyed by the
    relation's ordinal) and d_in . r = 0, and then j is cleared.  Last,
    d_out . d_in = 0 is tested one ``d_in`` column at a time, on the columns
    no relation cleared.  That covers the cleared ones by induction on the
    column index: r has unit entries, so d_in[j] = -+ sum_{i<j} r_i d_in[i],
    and each column i < j is tested or cleared.  ``s.cleared`` is not read.
    """
    for src_deg, cols in ((-1, s.d_in), (0, s.d_out)):
        src_q = s.gradings[src_deg]
        tgt_q = s.gradings[src_deg + 1]
        last = [-1] * len(tgt_q)  # row -> the last column that named it
        for j, (q, (plus, minus)) in enumerate(zip(src_q, cols)):
            repeated = False
            terms = plus + minus
            for t in terms:
                if tgt_q[t] - q not in (0, 4):
                    raise ConsistencyError(f"differential is not filtered: {q} -> {tgt_q[t]}")
                if last[t] == j:
                    repeated = True
                last[t] = j
            if repeated:
                raise ConsistencyError(f"differential has a non-unit entry: {_repeated(terms)}")
    cleared: set[int] = set()
    last = [-1] * len(s.d_in)  # C^-1 row -> the last relation that named it
    for k, r in enumerate(relations):
        terms = r[0] + r[1]
        j = max(terms)
        if j in cleared:
            continue
        for t in terms:
            if last[t] == k:
                raise ConsistencyError(f"clearing relation has a non-unit entry: {_repeated(terms)}")
            last[t] = k
        if not _composes_to_zero(s.d_in, r):
            raise ConsistencyError("clearing relation: d_in . d_-2 != 0")
        cleared.add(j)
    for j, col in enumerate(s.d_in):
        if j not in cleared and not _composes_to_zero(s.d_out, col):
            raise ConsistencyError("d_out . d_in != 0")
    return frozenset(cleared)


@dataclass(frozen=True)
class CanonicalCycle:
    """A canonical degree-0 cycle: each circle labeled v_minus +- v_plus.

    ``classes[j]`` is 0 for the (v_minus + v_plus) label on circle j and 1
    for (v_minus - v_plus); ``coefficients`` is its expansion over the
    degree-0 generator basis.  min_q = -#circles + writhe on every diagram.
    """

    coefficients: dict[int, int]
    classes: tuple[int, ...]
    min_q: int


def _expand_cycle(s: LeeComplexSlice, classes: tuple[int, ...]) -> CanonicalCycle:
    odd = sum(1 << j for j, c in enumerate(classes) if c == 1)
    coeffs = {row: -1 if (odd & ~label).bit_count() & 1 else 1
              for label, row in enumerate(s.rows[0][s.diagram.oriented_mask])}
    min_q = min(s.gradings[0][i] for i in coeffs)
    return CanonicalCycle(coeffs, classes, min_q)


def canonical_cycles(s: LeeComplexSlice) -> tuple[CanonicalCycle, CanonicalCycle]:
    """The two canonical cycles, labels assigned by the Seifert-graph
    2-coloring (adjacent circles take opposite classes).

    Closedness under d_out is verified exactly at construction by
    ``_composes_to_zero``: the cycles' coefficients are +-1, and the
    columns of ``d_out`` have distinct rows (``_check_slice``).  Which of the
    two is taken as "the" orientation cycle is immaterial for the invariant.
    """
    d = s.diagram
    coloring = two_coloring(d.seifert_graph)

    s_o = _expand_cycle(s, tuple(coloring))
    s_obar = _expand_cycle(s, tuple(1 - c for c in coloring))
    expected_min = -d.seifert_circles.count + d.writhe
    for cycle in (s_o, s_obar):
        coeffs = cycle.coefficients.items()
        signed = (tuple(r for r, c in coeffs if c > 0), tuple(r for r, c in coeffs if c < 0))
        if not _composes_to_zero(s.d_out, signed):
            raise ConsistencyError("canonical cycle is not closed; labeling is wrong")
        if cycle.min_q != expected_min:
            raise ConsistencyError(
                f"canonical cycle minimum grading {cycle.min_q} != {expected_min}"
            )
    return s_o, s_obar


# --- exact sparse column elimination -------------------------------------
#
# Working columns are dicts keyed by filtration row, the numbering
# ``build_slice`` gives C^0 and C^1, sorted by ascending quantum grading;
# entries are integers.  ``_as_dict`` makes one from a stored signed row
# pair.  The pivot of a column is its minimum row, so one echelon pass
# answers every "is v in F^j + span" query: reachable lowest rows are
# exactly the pivot lows.
#
# Within one grading, rows go by descending (vertex, label) index.  The
# grading of each low and the rank of each grading-bounded prefix do not
# depend on that tie order, but fill-in does: on the 10-crossing word
# 3: [-1,-2,2,-2,-1,1,-1,-1,1,2], in the vertex order of ``_vertices``,
# ascending ties give the d_in echelon 32.2 nonzeros per pivot, descending
# ties 7.0, for the same rank 2468 (31.8 and 6.7 with the vertices in
# ascending mask order).  The columns of d_in are taken in (vertex, label)
# order of C^-1, which is why C^-1 is not sorted by grading.
#
# Stored pivots are primitive.  Both echelons take stored row pairs, whose
# entries are +-1, so a column whose low is new needs no elimination and
# becomes its pivot as it is (``_add_column``): one ``oracle-mid`` round takes
# 17670 columns and calls ``_reduce_against`` 766 times, not 17670.  Such a
# pivot stays a ``_ColumnView`` of its pair until a reduction reads it and
# replaces it by its dict: one round builds 1833 dicts from stored columns,
# not 17670 (on 14b a reduction reads 7908 of the 55562 d_in pivots and 3666
# of the 53576 profile pivots).  Any other column is reduced as a dict: when
# the pivot entry divides the column entry it subtracts that multiple of the
# pivot, otherwise it rescales by a non-unit, subtracts, and is stripped.
# Either way the result is a nonzero rational multiple of the exact-rational
# reduction, so lows and ranks are those of elimination over Q.


class _ColumnView(Mapping):
    """A read-only {row: +-1} view of a stored signed row pair, an echelon's
    pivot that no reduction has read yet; ``Mapping`` supplies the rest."""

    __slots__ = ("pair",)

    def __init__(self, pair: Column) -> None:
        self.pair = pair

    def __getitem__(self, row: int) -> int:
        plus, minus = self.pair
        if row in plus:
            return 1
        if row in minus:
            return -1
        raise KeyError(row)

    def __iter__(self) -> Iterator[int]:
        return chain(*self.pair)

    def __len__(self) -> int:
        plus, minus = self.pair
        return len(plus) + len(minus)


def _strip(col: dict[int, int]) -> dict[int, int]:
    """A fresh, compact copy of ``col`` divided by the gcd of its entries."""
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return dict(col)
    return {p: v // g for p, v in col.items()}


def _reduce_against(col: dict[int, int], pivots: dict[int, Mapping[int, int]]) -> dict[int, int]:
    """Reduce ``col`` until its low has no pivot; returns the reduced column.

    ``col`` belongs to the caller and is updated in place, except that a
    non-unit rescale replaces it by a fresh stripped dict: always use the
    returned column.  A pivot read here that is still a ``_ColumnView``
    is replaced in ``pivots`` by its dict first.
    """
    while col:
        low = min(col)
        piv = pivots.get(low)
        if piv is None:
            break
        if type(piv) is _ColumnView:
            piv = pivots[low] = _as_dict(piv.pair)
        a, b = col[low], piv[low]
        f, r = divmod(a, b)
        if r:
            g = gcd(a, b)
            scale, f = b // g, a // g
            for p in col:
                col[p] *= scale
        for p, v in piv.items():
            w = col.get(p, 0) - f * v
            if w:
                col[p] = w
            else:
                del col[p]
        if r:
            col = _strip(col)
    return col


def _as_dict(col: Column) -> dict[int, int]:
    """A fresh {row: +-1} working column from a signed row pair."""
    plus, minus = col
    out = dict.fromkeys(plus, 1)
    for r in minus:
        out[r] = -1
    return out


def _add_column(col: Column, pivots: dict[int, Mapping[int, int]]) -> None:
    """Take the stored signed row pair ``col`` into the echelon ``pivots``:
    a nonzero reduction of it becomes the pivot at its low.

    A column whose low has no pivot yet is its own reduction, primitive
    since its entries are +-1, and becomes the pivot as a ``_ColumnView``,
    with no elimination and no copy.  Every other column is reduced as a
    fresh dict, and a nonzero reduction is stripped into a compact copy.
    """
    terms = col[0] + col[1]
    if not terms:
        return
    low = min(terms)
    if low not in pivots:
        pivots[low] = _ColumnView(col)
        return
    red = _reduce_against(_as_dict(col), pivots)
    if red:
        pivots[min(red)] = _strip(red)


def _column_echelon(columns: Iterable[Column]) -> dict[int, Mapping[int, int]]:
    """{low: primitive column} for the span of the stored row pairs
    ``columns``, each taken in turn by ``_add_column``."""
    pivots: dict[int, Mapping[int, int]] = {}
    for col in columns:
        _add_column(col, pivots)
    return pivots


def _row_order(q: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(pos, order) of generators by ascending grading, ties by descending index.

    ``order`` lists generators by row and ``pos`` is its inverse: one stable
    sort by grading of the indices in descending order.
    """
    order = sorted(range(len(q) - 1, -1, -1), key=q.__getitem__)
    pos = [0] * len(q)
    for p, i in enumerate(order):
        pos[i] = p
    return pos, order


def s_invariant(s: LeeComplexSlice) -> int:
    """Rasmussen invariant of the knot ``s.diagram`` presents: s_min + 1.

    s_min is the largest j with s_o in F^j C^0 + im(d_-1), found by reducing
    the canonical cycle against the grading-ordered column echelon of the
    incoming differential and reading the grading of the surviving lowest
    term.  The result is always even.  The slice's ``d_in`` echelon is
    shared with ``filtration_profile``.
    """
    s_o, _ = canonical_cycles(s)
    reduced = _reduce_against(dict(s_o.coefficients), s.din_echelon)
    if not reduced:
        raise ConsistencyError("canonical class vanishes in homology")
    s_min = s.gradings[0][min(reduced)]
    result = s_min + 1
    if result % 2:
        raise ConsistencyError(f"s = {result} is odd; grading bookkeeping is wrong")
    return result


def filtration_profile(s: LeeComplexSlice) -> dict[int, int]:
    """dim F^j H^0 for each quantum grading j present in C^0, descending.

    dim F^j H^0 = dim(F^j cap ker d_0) - dim(F^j cap im d_-1).  One walk
    over the columns of d_0, from the top row of C^0 down (descending
    grading, ties by ascending (vertex, label) index), counts the rows
    walked, the rank of their columns and, for the second term, the walked
    rows that are lows of d_-1 echelon pivots: the pivots have distinct lows,
    so those whose low has grading >= j span F^j cap im d_-1.  Each level's
    dimension is read as soon as its rows are walked.  For a knot the profile
    steps 0 -> 1 -> 2 as j decreases.  The slice's ``d_in`` echelon is
    shared with ``s_invariant``.  A pivot of the d_0 echelon is a dict only
    once a later column's reduction has read it (``_add_column``).

    Clearing: a column whose row is the low of a reduced d_-1 pivot is
    counted but not reduced.  That pivot is supported on its low and on rows
    walked before it, all of grading at least the low's, and d_0 d_-1 = 0
    (verified by ``_check_slice`` on every slice), so the column lies in the
    span of columns already walked and no prefix rank changes.
    """
    q0 = s.gradings[0]
    in_pivots = s.din_echelon
    pivots: dict[int, Mapping[int, int]] = {}
    profile: dict[int, int] = {}
    prev = im = 0
    row = len(q0)
    for level in sorted(set(q0), reverse=True):
        while row and q0[row - 1] >= level:
            row -= 1
            if row in in_pivots:
                im += 1
            else:
                _add_column(s.d_out[row], pivots)
        dim = len(q0) - row - len(pivots) - im
        if dim < prev or dim > 2:
            raise ConsistencyError(f"filtration profile is not a 0/1/2 staircase: {dim} at {level}")
        profile[level] = dim
        prev = dim
    if prev != 2:
        raise ConsistencyError(f"dim H^0 = {prev}, expected 2 for a knot")
    return profile


def profile_jumps(profile: dict[int, int]) -> tuple[int, int]:
    """(j2, j1): largest gradings with dim >= 2 and dim >= 1; j1 - j2 = 2.

    These bracket the invariant: s = j2 + 1 = j1 - 1.
    """
    j1 = max(j for j, dim in profile.items() if dim >= 1)
    j2 = max(j for j, dim in profile.items() if dim >= 2)
    if j1 - j2 != 2:
        raise ConsistencyError(f"filtration jump gap is {j1 - j2}, expected 2")
    return j2, j1
