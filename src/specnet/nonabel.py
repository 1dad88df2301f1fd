"""Non-abelianization: parallel transport across a forest network.

A rank-1 local system V on the weave surface L is pushed down to a rank-n
system on the base disk: transport along a path is a product of elementary
matrices, one per crossing with a weave line (sheet permutation with a
twisting sign) and one per crossing with a wall (unipotent Stokes factor
whose off-diagonal entry is the wall's signed soliton value at the crossing
point).  Entries live in the exact Laurent ring over the cycle generators
s_1..s_l; numeric local systems are evaluated by substituting units for
the generators.

Open-path transport needs a trivialization: every lifted endpoint is capped
to the marked boundary point, so each matrix entry is the class of a chain
rel the marked lifts, computed exactly by the homology engine.  Caps at
interior composition points cancel in class, making composition exact.

A path's product is never multiplied out: it is built by row operations on
the running total, each row held as a monomial scale (exponents and a sign)
times one {exponents: coefficient} dict per column.  A free transport
(permutation-diagonal) moves row s to the row of its end sheet and adds the
entry's class and sign to its scale, with no product of polynomials; a
Stokes factor adds c times row j to row i in place, as c * scale_j /
scale_i times row j's terms, and deletes a term whose sum cancels.  Each
entry becomes a LaurentPoly once, at the end.  The path is put in integer
form once, and each sub-path between two wall crossings is cut from it: the
previous crossing's scaled point (or the start), the corners up to the next
crossing and that crossing's scaled point.  A repeated corner leaves a
zero-length segment, which crosses nothing.

The local sign conventions are pinned by requiring transport around every
branch point and every creation joint to be the identity: the Stokes
coefficient of a seed wall is the plain monomial of its detour class based
at the crossing point, and a child wall inherits the product of its
parents' signs times the handedness of the parent tangents at the joint.

Transport is locally constant, and its classes are read off slit words.
Each cut is a slit from a branch point b up to (bx - by/1000, 0); the slits
are parallel and disjoint, so the lower half-plane cut along them is simply
connected, and the freely reduced word of a loop's (cut, side) crossings
with them is its class in pi_1 of the half-plane less the branch points,
based at the marked point.  A touch at a point that ends a line is no
crossing, so a cap through b reads as the cap just left of it, to the word
and to the homology engine alike.  A capped lift's class and end marked
sheet depend on its marked start sheet t and word alone, and add along the
word (Fox's covering cocycle): a letter table holds them per (t, cut).
Each letter is a transposition, class c from one sheet to the other, -c
back and 0 on every other sheet, so a walk ignores the side crossed.

* ``Transport`` builds the table once, from the cut with the rightmost top
  leftward, solving the loop round each branch point as a free sub-path.
* A free sub-path's word is that of the loop start cap reversed, path, end
  cap, walked per start sheet s from the sheet the start cap takes s to at
  the marked point.  Walking its (letter, side) event word takes s to its
  end sheet and gives the entry's sign; the end cap's permutation is read
  off the walk's end sheets and carried on to the next sub-path, so a path
  whose sub-paths all have words builds one cap and no integer form.
* A wall's Stokes class is solved once, at its base p0, the first param
  asked for with a wall word W (its cut crossings before the param, then
  the cap's).  At p it is the base's plus the difference, over p0's two
  label sheets, of the walks of reduced(W(p0)^-1 W(p)), the word of the
  loop cap(p0)^-1 wall[p0, p] cap(p).
* The words are read off one walk of the path: one weave-line and one cut
  query on the whole path, sliced between the wall-crossing params, one cut
  query per junction's cap, shared by the two sub-paths and the wall that
  meet there, and one per wall.  A cap that starts right of every slit's
  float box has the word [] with no query.  There is no word, and the class
  is solved afresh, where a whole-path or whole-wall query raised, a cap
  starts on a cut or meets one other than transversally, or a free
  sub-path's corner is not below y = 0.  Two caps crossing one cut at one
  point still give a word, an invariant of a loop crossing transversally.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .forest import ForestBuilder, build_forest_strands
from .geometry import (NonGenericGeometry, Param, Point, Polyline, PolylineSet, ScaledPoint,
                       exact_point, interp, point_key, prepare, walk_sheets)
from .laurent import LaurentPoly
from .soliton_bps import LiftedPath, SolitonCatalog, tree_of_strand


class Transport:
    """Exact parallel transport over a forest network."""

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.catalog = SolitonCatalog(builder)
        self.engine = self.catalog.engine
        self.n = builder.weave.strand_count
        self.gens = self.engine.gen_names
        branch = [v.point for v in builder.weave.trivalent_vertices()]
        # one slit per branch point, all parallel, up to the top boundary
        self.cuts = [[(x, y), (x - y / 1000, Fraction(0))] for x, y in branch]
        if len({1000 * x - y for x, y in branch}) != len(branch):
            raise NonGenericGeometry("two branch cuts are collinear")
        self._cut_set = PolylineSet((cut, k) for k, cut in enumerate(self.cuts))
        # a point of float x past every slit's float box has the cap word []
        # (see _cap_word), when the marked point lies right of every slit
        right = max((row[1] for row in self._cut_set.segments), default=-math.inf)
        self._cuts_right = right if all(top[0] < builder.bent.marked_x for _, top in self.cuts) \
            else math.inf
        # each wall's cut crossings, or None where that query raised
        self._wall_slits = [_unless_raising(self._cut_set.crossings, strand.path)
                            for strand in builder.strands]
        self._letters: Dict[Tuple[int, int], tuple] = {}  # (marked sheet, cut) -> class, end
        for k in sorted(range(len(self.cuts)), key=lambda k: -self.cuts[k][1][0]):
            self._add_letter(k)
        self._bases: Dict[int, tuple] = {}  # wall -> its Stokes base (see soliton_coefficient)

    @cached_property
    def draw_region(self) -> tuple:
        """What ``homotopic_pair`` draws against: the network's punctures as
        (float x, float y, ``point_key``), and its grid as (x0, dx, y0, dy, d),
        grid point (i, j) being ((x0 + i dx) / d, (y0 + j dy) / d).  The grid
        spans, in 997ths, the box where the homology engine's test curves
        separate classes: left of the marked point and below the weave top."""
        punctures = network_punctures(self.builder)
        lo_x = max(min(Fraction(x, d) for x, _, d in punctures) - 1, Fraction(1, 2))
        lo_y = self.engine.y_deep + Fraction(1, 2)
        # each axis's low corner and side, over one denominator s
        sides = (lo_x, self.engine.x_max - lo_x, lo_y, Fraction(-1, 64) - lo_y)
        s = math.lcm(*(c.denominator for c in sides))
        x0, dx, y0, dy = (c.numerator * (s // c.denominator) for c in sides)
        return [(x / e, y / e, (x, y, e)) for x, y, e in punctures], \
            (997 * x0, dx, 997 * y0, dy, 997 * s)

    # ----- ring helpers -----
    def identity(self) -> List[List[LaurentPoly]]:
        one = LaurentPoly.constant(self.gens, 1)
        zero = LaurentPoly.zero(self.gens)
        return [[one if i == j else zero for j in range(self.n)]
                for i in range(self.n)]

    def matmul(self, a, b):
        zero = LaurentPoly.zero(self.gens)
        out = [[zero for _ in range(self.n)] for _ in range(self.n)]
        for i in range(self.n):
            for k in range(self.n):
                if a[i][k].is_zero():
                    continue
                for j in range(self.n):
                    if b[k][j].is_zero():
                        continue
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
        return out

    def is_identity(self, m) -> bool:
        return [list(row) for row in m] == self.identity()

    # ----- elementary matrices -----
    def transport_free(self, poly: Sequence[Point]) -> List[List[LaurentPoly]]:
        """Transport along a sub-path crossing no walls, as a matrix.

        The matrix is permutation-diagonal: sheet s flows to the sheet
        obtained by conjugating through the crossed weave lines, with entry
        the capped-lift holonomy times the twisting signs.
        """
        path = prepare(poly)
        (points, part, _, _), = self._sub_paths(path)
        factor, _ = self._free_factor(points, part, self.cap_sheets(path.ends[0]))
        zero = LaurentPoly.zero(self.gens)
        out = [[zero] * self.n for _ in range(self.n)]
        for start, (sheet, cls, sign) in enumerate(factor):
            out[sheet - 1][start] = LaurentPoly.monomial(self.gens, cls, sign)
        return out

    def cap_sheets(self, start: ScaledPoint) -> Tuple[int, ...]:
        """The sheet permutation of the cap at ``start``, a ``point_key``:
        sheet s there reaches sheet ``[s - 1]`` at the marked point."""
        return walk_sheets(tuple(range(1, self.n + 1)), self.engine.cap(start).events)[0]

    def _free_factor(self, points, part, sheets):
        """The free transport along the sub-path through scaled ``points``
        as its (end sheet, class exponents, sign) per start sheet, the entry
        being that signed monomial, and the sheet permutation of the cap at
        its end; ``sheets`` is that of the cap at its start.  With a key
        ``part`` from ``_sub_paths``, start sheet s walks its slit word from
        ``sheets[s - 1]``; without, each is solved.  The end sheets and
        twisting signs come from walking its events."""
        if part is None:
            path = Polyline(points)
            lifted = LiftedPath(path, self.builder.events_along(path))
            start_cap, end_cap = map(self.engine.cap, path.ends)
            end_sheets = self.cap_sheets(path.ends[1])
        events = lifted.events if part is None else [(None, *event) for event in part[0]]
        factor, ends = [], [0] * self.n
        for start, t in enumerate(sheets, 1):
            (sheet,), sign = walk_sheets((start,), events)
            if part is None:
                chain = [(lifted, start, 1), (start_cap, start, -1), (end_cap, sheet, 1)]
                cls, ends[sheet - 1] = self.engine.class_of_chain(chain), end_sheets[sheet - 1]
            else:
                cls, ends[sheet - 1] = self._walk(t, part[1])
            factor.append((sheet, cls, sign))
        return factor, tuple(ends)

    def _walk(self, sheet: int, word) -> tuple:
        """The class and end marked sheet of the capped loop with slit
        ``word`` lifted from marked ``sheet``."""
        cls = (0,) * len(self.gens)
        for cut, _ in word:
            step, sheet = self._letters[sheet, cut]
            cls = tuple(map(add, cls, step))
        return cls, sheet

    def _add_letter(self, k: int):
        """Cut ``k``'s letters.  The loop round its branch point has the
        reduced word u (k, +-1) v, every cut of u and v already in the
        table.  Its lift from marked sheet t, with class D and end marked
        sheet E, gives the letter from walk(t, u)'s end: class D - walk(t, u)
        + walk(E, v reversed), ending where that second walk does."""
        (points, part, _, _), = self._sub_paths(prepare(self._loop(self.cuts[k][0])))
        word = part[1] if part else ()
        if [cut for cut, _ in word if (1, cut) not in self._letters] != [k]:
            raise NonGenericGeometry("the loop round branch point (%s, %s) reads no lone "
                                     "letter of its cut" % self.cuts[k][0])
        at = [cut for cut, _ in word].index(k)
        # the loop is closed, so its start cap's sheets are those of its end cap
        factor, sheets = self._free_factor(points, None, range(self.n))
        for t, (s, cls, _) in zip(sheets, factor):
            (du, t1), (dv, end) = self._walk(t, word[:at]), self._walk(sheets[s - 1], word[:at:-1])
            self._letters[t1, k] = tuple(map(add, map(sub, cls, du), dv)), end

    def _sub_paths(self, path: Polyline, crossings=()):
        """Each sub-path of ``path`` between two of its wall ``crossings``,
        in order, as (its scaled points, its key part, the crossing that
        ends it or None, the ``_cap_word`` at its end).  The key part is the
        (letter, side) event word, walked for sheets and signs, and the
        reduced slit word walked for classes (see the module docstring), or
        None where the sub-path has no word.  A wall crossed where it
        crosses a weave line raises before the sub-path it ends is walked."""
        s = path.scale
        corners = [(x, y, s) for x, y in path.ints]
        events, slits = (_unless_raising(query, path)
                         for query in (self.builder.events_along, self._cut_set.crossings))
        prev, prev_idx, prev_param = corners[0], 0, None
        prev_word = self._cap_word(prev)
        for crossing in [*crossings, None]:
            if crossing is None:
                points, param = [prev] + corners[prev_idx + 1:], None
            else:
                param, sid, pb, pt, _ = crossing
                if any(p == pb for p, _, _ in self.builder.strands[sid].crossings):
                    raise NonGenericGeometry("path crosses wall %d where it crosses a weave "
                                             "line, at %r" % (sid, exact_point(pt)))
                points = [prev] + corners[prev_idx + 1: param[0] + 1] + [pt]
            word = self._cap_word(points[-1])
            part = None
            if None not in (events, slits, prev_word, word) and all(y < 0 for _, y, _ in points):
                sub_events = _between(events, prev_param, param)
                sub_slits = _between(slits, prev_param, param)
                loop = [(cut, -side) for cut, side in reversed(prev_word)]
                loop += [(cut, side) for _, cut, _, _, side in sub_slits] + word
                part = (tuple((letter, side) for _, letter, side in sub_events),
                        _freely_reduced(loop))
            yield points, part, crossing, word
            if crossing is not None:
                prev, prev_idx, prev_param, prev_word = pt, param[0], param, word

    def _cap_word(self, point: ScaledPoint) -> Optional[List[tuple]]:
        """The (cut, side) crossings of the cap at ``point``, in order, or
        None where no loop through ``point`` has a word: ``point`` lies on a
        cut, or the cap meets a cut other than transversally.  A point whose
        float x is past every slit's float box is right of every slit, as
        floats round monotonically, and so is its cap, which runs right to
        (x + CAP_EPS, -CAP_EPS / 2) and on to the marked point: its word is
        [], with no query."""
        if point[0] / point[2] > self._cuts_right:
            return []
        if _on_a_segment(self._cut_set.segments, point):
            return None
        cap = Polyline(self.engine.cap_points(point))
        crossings = _unless_raising(self._cut_set.crossings, cap)
        return None if crossings is None else [(cut, side) for _, cut, _, _, side in crossings]

    def stokes_sign(self, sid: int, param: Param) -> int:
        """Sign of the wall's Stokes coefficient at ``param``, folded over
        its flowtree: the handedness of the parent tangents at each joint
        (+1 when the ij-parent crosses the jk-parent positively) times the
        twisting sign each piece acquires at its own weave-line crossings,
        by the rule a path crossing does, up to the piece's end (the root's
        end is ``param``).  These are the unique values making transport
        around every branch point and every joint the identity."""
        pieces, joints = tree_of_strand(self.builder, sid)
        sign = math.prod(1 if joint["twist"] else -1 for joint in joints)
        for pid, end in pieces:
            strand = self.builder.strands[pid]
            sign *= walk_sheets(strand.start_label, strand.crossings, end or param)[1]
        return sign

    def soliton_coefficient(self, sid: int, param: Param, word: Optional[list]) -> LaurentPoly:
        """Signed soliton value of wall ``sid`` based at ``param``, where
        ``word`` is the ``_cap_word`` there: solved at the wall's base and
        where there is no wall word, else walked from the base (see the
        module docstring), unreduced, as a letter and its inverse cancel."""
        wall_word = self._wall_word(sid, param, word)
        if wall_word is not None and sid in self._bases:
            cls, base_word, sheets = self._bases[sid]
            (ca, _), (cb, _) = (self._walk(t, base_word[::-1] + wall_word) for t in sheets)
            cls = tuple(map(sub, map(add, cls, ca), cb))
        else:
            chain = self.engine.tree_chain(sid, root_param=param)
            cls = self.engine.class_of_chain(chain)
            if wall_word is not None:
                (cap, i, _), (_, j, _) = chain[-2:]  # its cap at param, from the label's sheets
                self._bases[sid] = cls, wall_word, walk_sheets((i, j), cap.events)[0]
        return LaurentPoly.monomial(self.gens, cls, self.stokes_sign(sid, param))

    def _wall_word(self, sid: int, param: Param, word: Optional[list]) -> Optional[list]:
        """Wall ``sid``'s cut crossings before ``param``, then ``word``; None
        where ``word`` is None or the wall's cut query raised."""
        slits = self._wall_slits[sid]
        if word is not None and slits is not None:
            return [(cut, side) for _, cut, _, _, side in _between(slits, None, param)] + word

    def transport_short(self, sid: int, param: Param, side: int):
        """Unipotent Stokes matrix for crossing wall ``sid`` at ``param``.

        ``side`` is the sign of (wall tangent) x (path tangent); crossing
        from the other side gives the inverse matrix.
        """
        strand = self.builder.strands[sid]
        (i, j), word = strand.label_at(param), self._cap_word(interp(strand.path, param))
        out = self.identity()
        out[i - 1][j - 1] += self.soliton_coefficient(sid, param, word) * side
        return out

    # ----- paths -----
    def transport_path(self, poly: Sequence[Point]) -> List[List[LaurentPoly]]:
        """Transport along a polyline path avoiding all network vertices,
        by row operations on the sub-paths between its wall crossings, with
        the cap sheets carried from one sub-path to the next (see the module
        docstring)."""
        path = prepare(poly)
        zero = (0,) * len(self.gens)
        # row r is (scale, sign, terms): sign * x^scale times one {exponents:
        # coefficient} dict per column
        rows = [(zero, 1, [{zero: 1} if c == r else {} for c in range(self.n)])
                for r in range(self.n)]
        sheets = self.cap_sheets(path.ends[0])
        for points, part, crossing, word in self._sub_paths(path, self.builder.walls.crossings(path)):
            factor, sheets = self._free_factor(points, part, sheets)
            out = [None] * self.n
            for (scale, sign, terms), (sheet, cls, s) in zip(rows, factor):
                out[sheet - 1] = tuple(map(add, scale, cls)), sign * s, terms
            rows = out
            if crossing is not None:
                _, sid, pb, _, side = crossing
                i, j = self.builder.strands[sid].label_at(pb)
                ((mono, c),) = self.soliton_coefficient(sid, pb, word).terms.items()
                (scale_i, sign_i, terms_i), (scale_j, sign_j, terms_j) = rows[i - 1], rows[j - 1]
                # c x^mono times row j, read on row i's scale
                shift = tuple(map(sub, map(add, mono, scale_j), scale_i))
                c *= side * sign_i * sign_j
                for into, source in zip(terms_i, terms_j):
                    for m, v in source.items():
                        m = tuple(map(add, m, shift))
                        total = into.get(m, 0) + c * v
                        if total:
                            into[m] = total
                        else:
                            del into[m]
        return [[LaurentPoly(self.gens, {tuple(map(add, m, scale)): sign * v for m, v in t.items()})
                 for t in terms] for scale, sign, terms in rows]

    # ----- monodromy loops -----
    def clearance(self, center: Point) -> Fraction:
        """Min distance from ``center`` to all weave-line and wall segments
        not through it, read from the forest's tables: the least nonzero
        exact squared distance, in integers on the center's scale times each
        segment's, floored to a rational root."""
        px, py, pd = point_key(center)
        best, builder = None, self.builder
        for *_, x, y, dx, dy, s in builder.weave_lines.segments + builder.walls.segments:
            n, m = _seg_distance2((px * s, py * s), (x * pd, y * pd), ((x + dx) * pd, (y + dy) * pd))
            m *= (pd * s) ** 2
            if n and (best is None or n * best[1] < best[0] * m):
                best = n, m
        if best is None:
            raise NonGenericGeometry("no features near %r" % (center,))
        return _rational_sqrt_floor(Fraction(*best))

    def branch_monodromy(self, vertex_id: int) -> List[List[LaurentPoly]]:
        return self.transport_path(self._loop(self.builder.weave.vertices[vertex_id].point))

    def joint_monodromy(self, joint: dict) -> List[List[LaurentPoly]]:
        return self.transport_path(self._loop(tuple(joint["point"])))

    def _loop(self, center: Point) -> List[Point]:
        """A small closed quadrilateral about ``center``, at half its
        clearance, corners jittered off the axes so they avoid walls and
        weave lines.  Transport round a degenerate one raises."""
        cx, cy = center
        r = self.clearance(center) / 2
        e = r / 313
        return [(cx + r, cy + e), (cx + e, cy + r), (cx - r, cy + 2 * e), (cx - 2 * e, cy - r),
                (cx + r, cy + e)]


def _unless_raising(query, path: Polyline):
    """``query(path)``, or None where it raises NonGenericGeometry."""
    try:
        return query(path)
    except NonGenericGeometry:
        return None


def _between(crossings: list, lo: Optional[Param], hi: Optional[Param]) -> list:
    """The crossings, sorted by their param, strictly between ``lo`` and
    ``hi`` (None: the path's start or end)."""
    first = 0 if lo is None else bisect_right(crossings, lo, key=itemgetter(0))
    return crossings[first: len(crossings) if hi is None else
                     bisect_left(crossings, hi, key=itemgetter(0))]


def _on_a_segment(rows, point: ScaledPoint) -> bool:
    """Whether the scaled ``point`` lies on a closed segment of the rows of
    a ``PolylineSet`` table.  A row is decided in integers only where its
    float box holds the point's float: floats round monotonically, so every
    row through the point is decided."""
    x, y, d = point
    fx, fy = x / d, y / d
    for lo_x, hi_x, lo_y, hi_y, _, _, x0, y0, dx, dy, s in rows:
        if lo_x <= fx <= hi_x and lo_y <= fy <= hi_y:
            # point minus the segment's start, scaled by d * s, is t d (dx, dy)
            wx, wy = x * s - x0 * d, y * s - y0 * d
            if wx * dy == wy * dx and 0 <= wx * dx + wy * dy <= d * (dx * dx + dy * dy):
                return True
    return False


def _freely_reduced(word: List[tuple]) -> tuple:
    """The free reduction of a word of (cut, side) letters."""
    out: List[tuple] = []
    for cut, side in word:
        if out and out[-1] == (cut, -side):
            out.pop()
        else:
            out.append((cut, side))
    return tuple(out)


def _seg_distance2(p, a, b) -> Tuple:
    """Squared distance from point to segment as (numerator, denominator),
    exact for integer points on one scale: past an end, to that end, and in
    between ((p - a) x (b - a))^2 / |b - a|^2."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy, wx, wy = bx - ax, by - ay, px - ax, py - ay
    dot, L2 = wx * dx + wy * dy, dx * dx + dy * dy
    if dot <= 0:
        return wx * wx + wy * wy, 1
    if dot >= L2:
        return (px - bx) ** 2 + (py - by) ** 2, 1
    cross = wx * dy - wy * dx
    return cross * cross, L2


def _rational_sqrt_floor(d2: Fraction) -> Fraction:
    """A positive rational lower bound for sqrt(d2), for d2 > 0: then
    numerator * denominator >= 1, so its isqrt is at least 1."""
    return Fraction(math.isqrt(d2.numerator * d2.denominator), d2.denominator)


# ----- homotopic path pairs -----

def _winding(loop: Sequence[ScaledPoint], pt: ScaledPoint) -> int:
    """Winding number of a closed polyline around a point, both scaled
    points, exact: edges crossing the rightward ray, with a vertex at the
    ray's height counted as below it.  A point on the loop raises.  Each
    vertex minus the point is scaled by the positive product of their
    denominators, which keeps every sign and every cross product's sign."""
    px, py, pd = pt
    rel = [(x * pd - px * d, y * pd - py * d) for x, y, d in loop]
    total = 0
    for (ax, ay), (bx, by) in zip(rel, rel[1:]):
        if (ay <= 0) == (by <= 0):
            # a vertex at the point, or the point inside a horizontal edge
            if ay == 0 and (ax == 0 or by == 0 and (ax < 0) != (bx < 0)):
                raise NonGenericGeometry("winding query on the loop")
            continue
        # (x - px) (by - ay), with x where the edge meets the ray's line, is
        # the cross product of a - p and b - p
        side = ax * by - ay * bx
        if side == 0:
            raise NonGenericGeometry("winding query on the loop")
        if (side > 0) == (by > 0):
            total += 1 if by > 0 else -1
    return total


def _folds(points: Sequence[ScaledPoint]) -> bool:
    """Whether the path through scaled ``points`` turns back at a vertex b:
    b is on the line through its neighbours a and c but not between them.
    a - b and c - b are scaled by positive products of denominators, which
    keeps the cross product's and the dot product's signs."""
    for (ax, ay, ad), (bx, by, bd), (cx, cy, cd) in zip(points, points[1:], points[2:]):
        ux, uy, vx, vy = ax * bd - bx * ad, ay * bd - by * ad, cx * bd - bx * cd, cy * bd - by * cd
        if ux * vy == uy * vx and ux * vx + uy * vy > 0:
            return True
    return False


def network_punctures(builder: ForestBuilder) -> List[ScaledPoint]:
    """Points a path homotopy must not sweep across, as ``point_key``s: all
    weave vertices and joints, every free end of a weave line or wall, and
    the marked point."""
    pts = [v.point for v in builder.weave.vertices]
    pts += [j["point"] for j in builder.joints]
    for seg in builder.obstacles:
        pts += [seg.points[0], seg.points[-1]]
    pts.append((builder.bent.marked_x, Fraction(0)))
    keys = list(map(point_key, pts))
    for strand in builder.strands:
        keys += strand.path.ends
    return list(dict.fromkeys(keys))


def homotopic_pair(transport: Transport, rng: random.Random):
    """Two random polyline paths with the same endpoints that are homotopic
    in the complement of the network's punctures.

    The first path has 3 interior vertices.  The second is produced from it
    by 6 vertex insertions or vertex moves, each move's swept quadrilateral
    having winding number zero around every puncture, so equality of the
    two transport matrices is forced.  A point or move that would fold
    either path back on itself is drawn again: a fold can meet one
    weave-line point from two segments.  An insertion lands strictly inside
    a segment and cannot fold.  A point, drawn or inserted, that lies on a
    weave line or wall is drawn again too: transport raises at a path
    corner on a line.

    Points are drawn and decided as scaled points.  A puncture goes to the
    winding test only when its float lies in the quad's float box.  Floats
    round monotonically, so every puncture in the exact closed box passes;
    any other lies outside the quad's closed box, where the winding number
    is 0 and no test raises, so the moves kept are the exact box's.
    """
    interior, moves = 3, 6
    punctures, (x0, dx, y0, dy, d) = transport.draw_region
    lines = transport.builder.weave_lines.segments + transport.builder.walls.segments

    def rand_point():
        x = x0 + dx * rng.randint(1, 996)
        return x, y0 + dy * rng.randint(1, 996), d

    path: List[ScaledPoint] = []
    while len(path) < interior + 2:
        q = rand_point()
        if not _folds(path[-2:] + [q]) and not _on_a_segment(lines, q):
            path.append(q)
    other = list(path)
    done = 0
    attempts = 0
    while done < moves:
        attempts += 1
        if attempts > 200 * moves:
            raise NonGenericGeometry("homotopy moves kept sweeping punctures")
        if rng.random() < 0.3:
            k = rng.randrange(len(other) - 1)
            t = rng.randint(1, 996)
            (ax, ay, ad), (bx, by, bd) = other[k], other[k + 1]
            # a + t / 997 (b - a)
            q = (997 * ax * bd + t * (bx * ad - ax * bd),
                 997 * ay * bd + t * (by * ad - ay * bd), 997 * ad * bd)
            if not _on_a_segment(lines, q):
                other.insert(k + 1, q)
                done += 1
            continue
        k = rng.randrange(1, len(other) - 1)
        q = rand_point()
        quad = [other[k - 1], other[k], other[k + 1], q, other[k - 1]]
        xs, ys = [x / d for x, _, d in quad[:4]], [y / d for _, y, d in quad[:4]]
        lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
        # the winding number is 0 outside the quad's closed bounding box
        try:
            if any(_winding(quad, p) for fx, fy, p in punctures
                   if lo_x <= fx <= hi_x and lo_y <= fy <= hi_y):
                continue
        except NonGenericGeometry:
            continue
        if _folds(other[max(k - 2, 0): k] + [q] + other[k + 1: k + 3]) or _on_a_segment(lines, q):
            continue
        other[k] = q
        done += 1
    return tuple([(Fraction(x, d), Fraction(y, d)) for x, y, d in pts] for pts in (path, other))


# ----- rank-1 local systems and numeric evaluation -----

class LocalSystemRank1:
    """Unit values for the generators s_1..s_l.

    A local system is a homomorphism from the class lattice to the units.
    The homology engine checks that the generator classes are independent,
    so any unit values define one.
    """

    def __init__(self, values: Dict[str, Fraction]):
        self.values = dict(values)
        for name, value in self.values.items():
            if value == 0:
                raise ValueError("local system value for %s must be a unit" % name)

    @classmethod
    def random(cls, transport: Transport, rng: random.Random) -> "LocalSystemRank1":
        """A random unit, a signed ratio of integers 1..5, per generator."""
        return cls({name: Fraction(rng.randint(1, 5) * rng.choice([1, -1]), rng.randint(1, 5))
                    for name in transport.gens})

    def evaluate(self, poly: LaurentPoly) -> Fraction:
        total = Fraction(0)
        for mono, coeff in poly.terms.items():
            term = Fraction(coeff)
            for name, e in zip(poly.gens, mono):
                if e:
                    term *= self.values[name] ** e
            total += term
        return total

    def evaluate_matrix(self, matrix) -> List[List[Fraction]]:
        return [[self.evaluate(entry) for entry in row] for row in matrix]


# ----- augmentations -----

def augmentation(bent) -> Dict[str, LaurentPoly]:
    """Exact Laurent augmentation values of every chord and marked point.

    Each chord value is the signed sum over the flowtrees ending at it of
    their soliton monomials; marked-point values are the signed boundary-arc
    holonomies.
    """
    builder = build_forest_strands(bent)
    catalog = SolitonCatalog(builder)
    gens = catalog.engine.gen_names
    out: Dict[str, LaurentPoly] = {name: LaurentPoly.zero(gens)
                                   for name in bent.chord_names}
    for strand in builder.strands:
        rho = catalog.soliton(strand.id)
        out[strand.chord] = out[strand.chord] + LaurentPoly.monomial(
            gens, rho.monomial, rho.effective_sign)
    for i in range(1, bent.weave.strand_count + 1):
        rho = catalog.arc_soliton(i)
        out["t_%d" % i] = LaurentPoly.monomial(gens, rho.monomial,
                                               rho.effective_sign)
    return out


# ----- hexavalent chord maps (Reidemeister III cobordisms) -----

def chord_map(weave) -> Dict[str, LaurentPoly]:
    """The chord-algebra morphism induced by a weave of hexavalent and
    tetravalent vertices, from top chords to the bottom chord algebra.

    A hexavalent vertex (letters a, b, a -> b, a, b at positions p..p+2)
    acts as the Reidemeister III morphism: the outer chords swap, and the
    middle chord maps to itself plus a signed product of the outer bottom
    chords.  The sign alternates with the vertex chirality (middle letter
    above or below), which makes a move followed by its inverse compose to
    the identity.  Tetravalent vertices permute the two chords.

    Weaves with trivalent vertices change the number of chords and are out
    of scope here; they are handled by ``augmentation``.
    """
    word = weave.top
    gens = tuple("z_%d" % (k + 1) for k in range(len(word)))
    state: List[LaurentPoly] = [LaurentPoly.generator(gens, g) for g in gens]
    for move, slice_before in zip(weave.moves, weave.slices):
        p = move.position - 1
        rule = {g: LaurentPoly.generator(gens, g) for g in gens}
        if move.kind == "x":
            rule[gens[p]] = LaurentPoly.generator(gens, gens[p + 1])
            rule[gens[p + 1]] = LaurentPoly.generator(gens, gens[p])
        elif move.kind == "h":
            a, b = slice_before[p], slice_before[p + 1]
            sign = 1 if b > a else -1
            zl = LaurentPoly.generator(gens, gens[p])
            zr = LaurentPoly.generator(gens, gens[p + 2])
            rule[gens[p]] = zr
            rule[gens[p + 2]] = zl
            rule[gens[p + 1]] = LaurentPoly.generator(gens, gens[p + 1]) \
                + (zl * zr) * sign
        else:
            raise ValueError(
                "chord_map supports hexavalent/tetravalent weaves only; "
                "got move %s%d" % (move.kind, move.position))
        state = [_substitute(expr, rule, gens) for expr in state]
    return {g: state[k] for k, g in enumerate(gens)}


def _substitute(expr: LaurentPoly, rule: Dict[str, LaurentPoly], gens) -> LaurentPoly:
    out = LaurentPoly.zero(gens)
    for mono, coeff in expr.terms.items():
        term = LaurentPoly.constant(gens, coeff)
        for name, e in zip(expr.gens, mono):
            if e < 0:
                raise ValueError("chord expressions must be polynomial")
            for _ in range(e):
                term = term * rule[name]
        out = out + term
    return out
