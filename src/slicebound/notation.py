"""Parsing and generation of diagram descriptions.

Two text grammars are accepted:

* planar diagram codes, ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]`` or the bracketed
  ``PD[X[...], X[...]]`` form (whitespace-insensitive, commas and brackets
  interchangeable with the space-separated form);
* braid words, ``"3: [1,-2,1,-2]"`` - strand count, then letters where k
  stands for the generator sigma_|k| with the sign of k.

A PD tuple (a,b,c,d) is read counterclockwise starting at the incoming
under-strand edge a.  Edge labels along each component are consecutive
integers wrapping at the component's maximum label; crossing signs are derived
from that convention, never stored in the text.  Two checks are specific to
PD text: that label-run rule, and planarity (``Diagram.is_planar``, a face
count over the slot table), since a code can describe a virtual diagram,
which braid closures and mirrors never are.  The structure of the compiled
diagram is checked by ``validate``, as for every other diagram.

``BraidWord`` and ``braid_sign_condition``, the one property of a word that
the bounds read, live here; ``diagram`` knows nothing of braid words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator

from .diagram import Crossing, Diagram, ValidationError, validate


class ParseError(ValueError):
    """Malformed input text (syntax level)."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letter k with 0 < |k| < strands means sigma_|k| to the power sign(k).
    The empty word is allowed; its closure is the unlink on ``strands``
    components.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValidationError(f"strand count must be >= 1, got {self.strands}")
        for letter in self.letters:
            if letter == 0:
                raise ValidationError("braid letter 0 is invalid")
            if abs(letter) >= self.strands:
                raise ValidationError(
                    f"letter {letter} needs at least {abs(letter) + 1} strands, word has {self.strands}"
                )


def braid_sign_condition(w: BraidWord) -> bool:
    """True iff every braid generator occurs with a single sign throughout.

    Closures of such words (when knots) realize the tight case of the upper
    bound.  Vacuously true for the empty word; invariant under flipping all
    letter signs.
    """
    sign_of: dict[int, int] = {}
    for letter in w.letters:
        idx = abs(letter)
        s = 1 if letter > 0 else -1
        if sign_of.setdefault(idx, s) != s:
            return False
    return True


@dataclass(frozen=True)
class PdCode:
    """A planar diagram code: one 4-tuple of edge labels per crossing."""

    crossings: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def diagram(self) -> Diagram:
        """``diagram_from_pd(self)``, compiled once per code."""
        return diagram_from_pd(self)


def parse_braid(text: str) -> BraidWord:
    """Parse ``"strands: [k1,k2,...]"`` into a validated BraidWord."""
    if not text or not text.strip():
        raise ParseError("empty braid text")
    m = re.fullmatch(r"\s*(\d+)\s*:\s*\[([-+,\d\s]*)\]\s*", text)
    if not m:
        raise ParseError(f"braid text not of the form 'n: [i,j,...]': {text!r}")
    strands = int(m.group(1))
    body = m.group(2).strip()
    letters: tuple[int, ...] = ()
    if body:
        try:
            letters = tuple(int(tok) for tok in body.split(","))
        except ValueError as exc:
            raise ParseError(f"bad braid letter in {text!r}") from exc
    return BraidWord(strands, letters)


def braid_text(w: BraidWord) -> str:
    """Inverse of parse_braid."""
    return f"{w.strands}: [{','.join(str(k) for k in w.letters)}]"


_PD_TUPLE = re.compile(r"X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd(text: str) -> PdCode:
    """Parse PD text into a PdCode whose diagram is compiled and validated.

    Raises ParseError for malformed text and ValidationError for codes that
    are grammatical but not a coherent diagram: ``validate`` rejects labels
    not used exactly twice and edges not entered and left exactly once, and
    ``diagram_from_pd`` rejects components that are not consecutive label
    runs and codes that are not planar.  The compiled diagram is the code's
    cached ``diagram``, and later ``validate`` calls on it return at once.
    """
    if not text or not text.strip():
        raise ParseError("empty PD text")
    body = text.strip()
    if body.startswith("PD[") and body.endswith("]"):
        body = body[3:-1]
    tuples = [tuple(map(int, groups)) for groups in _PD_TUPLE.findall(body)]
    leftover = _PD_TUPLE.sub("", body)
    if re.sub(r"[\s,]", "", leftover):
        raise ParseError(f"unparsable PD fragment: {leftover.strip()!r}")
    if not tuples:
        raise ParseError("PD text contains no crossings")
    code = PdCode(tuple(tuples))
    code.diagram  # semantic validation; the diagram stays cached on the code
    return code


def pd_text(code: PdCode) -> str:
    """Inverse of parse_pd (canonical space-separated form)."""
    return " ".join("X[%d,%d,%d,%d]" % t for t in code.crossings)


def diagram_from_pd(code: PdCode) -> Diagram:
    """Compile a PD code into an oriented, validated Diagram, deriving signs.

    The under-strand of (a,b,c,d) runs a -> c.  The over-strand direction
    between b and d follows the consecutive-label convention: the smaller
    label precedes when they differ by one, otherwise the passage wraps from
    the component maximum to its minimum.  On 2-edge components both readings
    are grammatical, so locally ambiguous passages are flipped until every
    edge is entered exactly once.  For knot codes the reading is unique; for
    links where one 2-edge component passes over another component twice,
    the text cannot distinguish which crossing is which and the flip order
    (crossing index ascending) decides deterministically.

    The structure (each label on two crossings, each edge entered and left
    once) is checked by ``validate``; the PD-specific rules are that every
    component is a consecutive label run, wrapping at its maximum, and that
    the code is planar: with the crossings' counterclockwise orders, each
    piece has crossings + 2 faces.
    """
    unders = [(t[0], t[2]) for t in code.crossings]
    overs = []
    flippable = []
    for i, t in enumerate(code.crossings):
        b, d = t[1], t[3]
        if abs(b - d) == 1:
            overs.append((min(b, d), max(b, d)))
            flippable.append(i)
        else:
            overs.append((max(b, d), min(b, d)))  # wraparound: component max -> min

    for _ in range(len(code.crossings) + 1):
        entered: dict[int, int] = {}
        for _, h in unders + overs:
            entered[h] = entered.get(h, 0) + 1
        changed = False
        for i in flippable:
            tail, head = overs[i]
            if entered.get(head, 0) > 1 and entered.get(tail, 0) == 0:
                overs[i] = (head, tail)
                entered[head] -= 1
                entered[tail] = entered.get(tail, 0) + 1
                changed = True
        if not changed:
            break

    # the over-strand runs d -> b exactly at a positive crossing
    diagram = Diagram(tuple(
        Crossing(t, 1 if overs[i] == (t[3], t[1]) else -1) for i, t in enumerate(code.crossings)
    ))
    validate(diagram)
    for strand in diagram.strands:
        if strand != tuple(range(strand[0], strand[0] + len(strand))):
            raise ValidationError(
                f"component containing edge {strand[0]} is not a consecutive label run; incoherent cycles"
            )
    if not diagram.is_planar:
        raise ValidationError("PD code is not planar: its crossings do not fit together on a sphere")
    return diagram


def pd_code(d: Diagram) -> PdCode:
    """Export a diagram as a PD code, numbering edges consecutively along
    ``Diagram.strands``: components in order of their smallest original edge
    id, each from that edge on.  Diagrams with free loops have no PD
    representation and are rejected.
    """
    if d.free_loops:
        raise ValidationError("crossingless components cannot be expressed as PD text")
    label = {e: i for i, e in enumerate(chain.from_iterable(d.strands), 1)}
    return PdCode(tuple(tuple(label[e] for e in c.edges) for c in d.crossings))


def braid_closure(w: BraidWord) -> Diagram:
    """Close a braid word into an oriented diagram.

    One crossing per letter, sign equal to the letter sign; strands of a
    trivial word close into free loops.  The closure of the empty word on n
    strands is the n-component unlink.
    """
    n = w.strands
    cur = {p: p for p in range(1, n + 1)}
    touched = {p: False for p in range(1, n + 1)}
    next_id = n + 1
    raw: list[tuple[tuple[int, int, int, int], int]] = []
    for letter in w.letters:
        k = abs(letter)
        in_left, in_right = cur[k], cur[k + 1]
        out_left, out_right = next_id, next_id + 1
        next_id += 2
        if letter > 0:
            # under-strand enters bottom-right; counterclockwise from it:
            raw.append(((in_right, out_right, out_left, in_left), +1))
        else:
            raw.append(((in_left, in_right, out_right, out_left), -1))
        cur[k], cur[k + 1] = out_left, out_right
        touched[k] = touched[k + 1] = True

    # the last edge of each strand closes up onto its first
    rename = {cur[p]: p for p in range(1, n + 1) if touched[p]}
    crossings = tuple(
        Crossing(tuple(rename.get(e, e) for e in edges), sign) for edges, sign in raw
    )
    loops = tuple(p for p in range(1, n + 1) if not touched[p])
    return Diagram(crossings, loops)


def _splitmix64(state: int):
    """SplitMix64 stream (Steele-Lea-Flood finalizer); fixed so corpora are
    reproducible bit-for-bit across implementations."""
    mask = (1 << 64) - 1
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _uniform(stream, m: int) -> int:
    """Unbiased draw from range(m) by rejection on the top partial block."""
    limit = (1 << 64) - ((1 << 64) % m)
    while True:
        v = next(stream)
        if v < limit:
            return v % m


def random_braid(strands: int, length: int, seed: int) -> BraidWord:
    """Deterministic braid word with letters uniform over +-{1..strands-1}.

    Pure function of (strands, length, seed); the PRNG is SplitMix64 seeded
    with ``seed`` so any implementation of the stream reproduces the corpus.
    """
    if strands < 2:
        raise ValidationError(f"random_braid needs >= 2 strands, got {strands}")
    if length < 0:
        raise ValidationError(f"length must be >= 0, got {length}")
    stream = _splitmix64(seed & ((1 << 64) - 1))
    m = 2 * (strands - 1)
    letters = []
    for _ in range(length):
        k = _uniform(stream, m)
        gen = k // 2 + 1
        letters.append(gen if k % 2 == 0 else -gen)
    return BraidWord(strands, tuple(letters))


def random_braids(
    count: int, strands: int, max_length: int, seed: int
) -> Iterator[tuple[BraidWord, int]]:
    """The ``fuzz`` corpus: ``count`` pairs (``random_braid`` word, its seed).

    One SplitMix64 stream seeded with ``seed`` draws per word, in order, a
    strand count in [2, strands], a length in [0, max_length] and the seed;
    an empty range raises ValidationError once iteration starts.
    """
    if count < 0 or strands < 2 or max_length < 0:
        raise ValidationError("fuzz needs count >= 0, strands >= 2, max_length >= 0")
    master = _splitmix64(seed & ((1 << 64) - 1))
    for _ in range(count):
        s_i = 2 if strands == 2 else 2 + _uniform(master, strands - 1)
        length = _uniform(master, max_length + 1)
        word_seed = next(master)
        yield random_braid(s_i, length, word_seed), word_seed
