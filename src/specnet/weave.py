"""Demazure weaves: slice/move representation, validation, bending, layout,
and the Demazure product of a braid word.

A weave is stored as a list of horizontal braid-word slices (top to bottom)
with one elementary move between consecutive slices:

* ``t<p>`` trivalent: letters (p, p+1) equal, merged into one;
* ``h<p>`` hexavalent: letters (p, p+1, p+2) = (a, b, a) with |a-b| = 1,
  rewritten to (b, a, b);
* ``x<p>`` tetravalent: letters (p, p+1) = (a, b) with |a-b| > 1, swapped.

Text format::

    n=3
    top: 2 1 2 1 2 1 2
    moves: h1 t3 h2 t1 t3 h2 t1

``n=`` and ``top:`` appear once each; ``moves:`` lines may repeat, and their
moves run in order.  A weave has at most MAX_STRANDS strands and a top word
of at most MAX_LETTERS letters.

Layout is exact and in integers: slice letters sit at integer columns,
slices at integer depths (top slice at y = 0, y decreasing downward),
vertices at half-integer depths, so every layout coordinate is an integer
over the one scale LAYOUT_SCALE = 2.  Segments, vertices, bent lines, top
positions and the marked point are stored on that scale; their
``Fraction`` points (``Segment.points``, ``WeaveVertex.point``) are views
for exports and tests.  Bending routes the bottom slice's lines around the
bottom-right of the diagram up to the top, to the right of the top slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import Point, ScaledPoint, exact_point

# every layout coordinate is an integer over this scale
LAYOUT_SCALE = 2


@dataclass(frozen=True)
class Move:
    kind: str  # 't' | 'h' | 'x'
    position: int  # 1-based index of the leftmost letter involved

    def width(self) -> int:
        return 3 if self.kind == "h" else 2


@dataclass
class WeaveVertex:
    id: int
    kind: str  # 'trivalent' | 'hexavalent' | 'tetravalent'
    row: int  # band index: sits between slices row and row+1 (0-based)
    position: int  # 1-based leftmost involved letter in the upper slice
    letter: int  # for trivalent: the merged letter; otherwise upper-left letter
    at: ScaledPoint  # the vertex, (x, y, LAYOUT_SCALE)
    # the pieces ending at this vertex, left to right
    upper: List[Segment] = field(default_factory=list, repr=False, compare=False)

    @property
    def point(self) -> Point:
        return exact_point(self.at)


@dataclass
class Segment:
    """A weave-line piece, drawn as a polyline from its upper to lower end,
    its points ``ints`` on LAYOUT_SCALE.

    ``above`` is the piece a line walking toward the top goes on to: straight
    through hexavalent and tetravalent vertices, up the *left* upper edge at
    a trivalent vertex; None at the top boundary.
    """

    id: int
    letter: int
    ints: List[Tuple[int, int]]
    # not in repr or ==, which would otherwise walk the chain to the top
    above: Optional[Segment] = field(default=None, repr=False, compare=False)

    @property
    def points(self) -> List[Point]:
        return [(Fraction(x, LAYOUT_SCALE), Fraction(y, LAYOUT_SCALE)) for x, y in self.ints]


_KINDS = {"t": "trivalent", "h": "hexavalent", "x": "tetravalent"}
# strands a weave may have: the sheets of its spectral network, bounded as
# wkb.MAX_SHEETS bounds a curve's; the work grows with n even for a
# one-move weave
MAX_STRANDS = 16
# letters a weave's top word may have: the forest grows about three walls a
# letter, and its work about as the cube of the letter count.  The two-strand
# staircase n=2 / top: 1^64 / moves: t1^63 takes about 1.7 s in augmentation
# and 3.5 s in nonabelianize; the fixtures have at most 7 letters and the
# test corpora at most 10
MAX_LETTERS = 64


def _apply_move(word: Tuple[int, ...], move: Move) -> Tuple[int, ...]:
    p = move.position - 1
    if p < 0 or p + move.width() > len(word):
        raise ValueError("move %s%d out of range for word of length %d"
                         % (move.kind, move.position, len(word)))
    if move.kind == "t":
        a, b = word[p], word[p + 1]
        if a != b:
            raise ValueError("trivalent requires equal letters at position %d" % move.position)
        return word[:p] + (a,) + word[p + 2:]
    if move.kind == "h":
        a, b, c = word[p], word[p + 1], word[p + 2]
        if a != c or abs(a - b) != 1:
            raise ValueError("hexavalent requires (a,b,a) with |a-b|=1 at position %d" % move.position)
        return word[:p] + (b, a, b) + word[p + 3:]
    if move.kind == "x":
        a, b = word[p], word[p + 1]
        if abs(a - b) <= 1:
            raise ValueError("tetravalent requires |a-b|>1 at position %d" % move.position)
        return word[:p] + (b, a) + word[p + 2:]
    raise ValueError("unknown move kind %r" % move.kind)


class Weave:
    """A parsed Demazure weave with derived slices, vertices and geometry."""

    def __init__(self, strand_count: int, top: Tuple[int, ...], moves: List[Move]):
        self.strand_count = strand_count
        self.moves = list(moves)
        self.slices: List[Tuple[int, ...]] = [tuple(top)]
        for move in self.moves:
            self.slices.append(_apply_move(self.slices[-1], move))
        self.vertices: List[WeaveVertex] = []
        self.segments: List[Segment] = []
        self._build()

    # ----- structure -----
    def _build(self):
        # the piece ending at each slot of the current slice, by position;
        # none above the top slice
        ending: Dict[int, Segment] = {}
        for row, move in enumerate(self.moves):
            upper, lower = self.slices[row], self.slices[row + 1]
            p = move.position - 1
            width = move.width()
            kind = _KINDS[move.kind]
            # the midpoint of the involved columns, half a slice down
            x_vertex, y_vertex = 2 * move.position + width - 1, -2 * row - 1
            vertex = WeaveVertex(len(self.vertices), kind, row, move.position,
                                 upper[p], (x_vertex, y_vertex, LAYOUT_SCALE))
            self.vertices.append(vertex)
            out_width = width - 1 if move.kind == "t" else width
            below: Dict[int, Segment] = {}

            for q in range(1, len(upper) + 1):
                if p + 1 <= q <= p + width:
                    seg = Segment(len(self.segments), upper[q - 1],
                                  [(2 * q, -2 * row), (x_vertex, y_vertex)], ending.get(q))
                    vertex.upper.append(seg)
                else:
                    q_next = q if q <= p else q - (width - out_width)
                    seg = Segment(len(self.segments), upper[q - 1],
                                  [(2 * q, -2 * row), (2 * q_next, -2 * row - 2)], ending.get(q))
                    below[q_next] = seg
                self.segments.append(seg)
            for j in range(out_width):
                q_out = move.position + j
                # up the left upper piece at a trivalent vertex; straight
                # through any other, to the upper piece width - 1 - j
                above = vertex.upper[0 if move.kind == "t" else width - 1 - j]
                seg = Segment(len(self.segments), lower[q_out - 1],
                              [(x_vertex, y_vertex), (2 * q_out, -2 * row - 2)], above)
                self.segments.append(seg)
                below[q_out] = seg
            ending = below

    # ----- queries -----
    @property
    def top(self) -> Tuple[int, ...]:
        return self.slices[0]

    @property
    def bottom(self) -> Tuple[int, ...]:
        return self.slices[-1]

    def trivalent_vertices(self) -> List[WeaveVertex]:
        return [v for v in self.vertices if v.kind == "trivalent"]


def demazure_product(n: int, word: Tuple[int, ...]) -> Tuple[int, ...]:
    """0-Hecke product of a word in the letters 1..n-1, as the tuple of a
    permutation's images: s*s_i = s when that would shorten s."""
    images = list(range(1, n + 1))
    for i in word:
        if images[i - 1] < images[i]:
            images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def length(images: Tuple[int, ...]) -> int:
    """The number of inversions of a permutation."""
    return sum(a > b for k, a in enumerate(images) for b in images[k + 1:])


def _integer(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError("malformed %s %r" % (what, token.strip())) from None


def parse_weave(text: str) -> Weave:
    n = None
    top: Optional[Tuple[int, ...]] = None
    moves: List[Move] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None:
                raise ValueError("repeated header line %r" % raw)
            n = _integer(line[2:], "strand count")
            if n > MAX_STRANDS:
                raise ValueError("weave has %d strands (limit: %d)" % (n, MAX_STRANDS))
        elif line.startswith("top:"):
            if top is not None:
                raise ValueError("repeated header line %r" % raw)
            top = tuple(_integer(tok, "top letter") for tok in line[4:].replace(",", " ").split())
            if len(top) > MAX_LETTERS:
                raise ValueError("weave top has %d letters (limit: %d)" % (len(top), MAX_LETTERS))
        elif line.startswith("moves:"):
            for token in line[6:].split():
                kind, pos = token[0], token[1:]
                if kind not in _KINDS or not pos.isdecimal():
                    raise ValueError("malformed move token %r" % token)
                moves.append(Move(kind, int(pos)))
        else:
            raise ValueError("unrecognized line %r" % raw)
    if n is None or top is None:
        raise ValueError("weave text must declare n= and top:")
    if n < 2:
        raise ValueError("strand count must be >= 2")
    for letter in top:
        if not 1 <= letter <= n - 1:
            raise ValueError("letter %d out of range [1, %d]" % (letter, n - 1))
    return Weave(n, top, moves)


class BentWeave:
    """A weave with its bottom slice routed around to the top-right.

    The bent lines are nested L-shaped polylines around the bottom-right of
    the diagram; bottom letter 0 (leftmost) wraps outermost and surfaces
    rightmost at the top.  Bending adds no vertices and no crossings, so the
    boundary word of the bent weave is top-slice ++ bottom-slice.
    """

    def __init__(self, weave: Weave):
        self.weave = weave
        top_len = len(weave.top)
        bottom = weave.bottom
        m = len(bottom)
        depth = len(weave.moves)
        # One chord per boundary crossing, named right to left within each
        # word: the top reads z_top_len ... z_1.  Bending traverses the bottom
        # edge in reverse boundary order, so the bottom letter p surfaces at
        # the (p+1)-th rightmost top position and is named w_{p+1}:
        # left-to-right the bent chords read w_m ... w_1.
        self.chord_names: List[str] = (["z_%d" % k for k in range(top_len, 0, -1)]
                                       + ["w_%d" % k for k in range(m, 0, -1)])
        wall_margin = max(top_len, max((len(s) for s in weave.slices), default=1)) + 2
        self.bent_segments: List[Segment] = []
        # the x of each chord's top end and the marked point, on LAYOUT_SCALE
        self.top_xs: Dict[str, int] = {
            "z_%d" % (top_len + 1 - q): 2 * q for q in range(1, top_len + 1)}
        next_id = len(weave.segments)
        for p in range(m):  # p: 0-based bottom-slice position
            drop = 2 * (depth + 1 + (m - 1 - p))
            x_up = 2 * (wall_margin + (m - 1 - p))
            seg = Segment(next_id, bottom[p],
                          [(x_up, 0), (x_up, -drop), (2 * p + 2, -drop), (2 * p + 2, -2 * depth)])
            self.bent_segments.append(seg)
            self.top_xs["w_%d" % (p + 1)] = x_up
            next_id += 1
        # marked points sit right of every chord
        self.marked: ScaledPoint = (2 * (wall_margin + m), 0, LAYOUT_SCALE)

    @property
    def strand_count(self):
        return self.weave.strand_count


def bend_weave(weave: Weave) -> BentWeave:
    return BentWeave(weave)
