"""Exact rational polyline geometry shared by the forest, homology and
transport layers.

Every question of the form "where does this path cross these lines, and on
which side?" is answered here, by a ``PolylineSet`` of tagged polylines (the
weave lines, the walls, or the homology engine's test lines).  One function
of crossing rules decides every segment pair in integers and keeps each
crossing point as integers on the query's scale; ``exact_point`` turns one
into a ``Fraction`` pair where a caller reads it.  A param on the path
leaves as the triple (segment, float, ``Fraction``): ``int / int`` rounds
correctly and correct rounding is monotone, so triples order exactly as
(segment, ``Fraction``) pairs do and compare their ``Fraction``s only on a
float tie.  A param on the member line leaves as integers, and
``exact_param`` builds its triple where a caller reads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

Point = Tuple[Fraction, Fraction]
# (polyline sub-segment index, float(t), t) for a parameter t in [0, 1]
Param = Tuple[int, float, Fraction]
ScaledParam = Tuple[int, int, int]  # (j, n, d): the param n / d on sub-segment j, d > 0
ScaledPoint = Tuple[int, int, int]  # (x, y, d): the point (x / d, y / d), d > 0

# float bounding boxes cheaply reject most segment pairs before the exact
# test; the margin absorbs any rounding of the Fraction coords
_EPS = 1e-6


class NonGenericGeometry(RuntimeError):
    """Exact geometry met a coincidence (collinear overlap, corner hit) that
    a generic position would avoid."""


def transpose(sheet: int, letter: int) -> int:
    """The sheet after crossing a weave line of ``letter`` (swaps k, k+1)."""
    if sheet == letter:
        return letter + 1
    if sheet == letter + 1:
        return letter
    return sheet


def twist_sign(letter: int, sheet: int, side: int) -> int:
    """Twisting sign for crossing a letter-k weave line from ``sheet``.

    Crossing on the positive side from the lower of the two swapped sheets
    contributes -1 (and symmetrically from the upper sheet on the negative
    side); sheets away from the swap are untwisted.
    """
    if sheet not in (letter, letter + 1):
        return 1
    return -1 if (sheet == letter) == (side > 0) else 1


def walk_sheets(sheets: Tuple[int, ...], events, stop=None) -> Tuple[Tuple[int, ...], int]:
    """Carry ``sheets`` through sorted weave-line events (param, letter,
    side), up to the first event at or past ``stop`` (default: all).
    Returns the sheets reached and the product of the twisting signs every
    sheet picks up on the way."""
    sign = 1
    for param, letter, side in events:
        if stop is not None and param >= stop:
            break
        for sheet in sheets:
            sign *= twist_sign(letter, sheet, side)
        sheets = tuple(transpose(s, letter) for s in sheets)
    return sheets, sign


def sheet_prefixes(events, n: int) -> List[Tuple[int, ...]]:
    """The sheet permutation after each prefix of the weave-line events
    (param, letter, side): entry k sends each start sheet 1..n (index 0 is
    unused) to its sheet after the first k events."""
    perms = [tuple(range(n + 1))]
    for _, letter, _ in events:
        perms.append(tuple(transpose(s, letter) for s in perms[-1]))
    return perms


def param_of(i: int, t: Fraction) -> Param:
    """The param ``t`` on sub-segment ``i``."""
    return i, t.numerator / t.denominator, t


def exact_param(scaled: ScaledParam) -> Param:
    """The param of a crossing's scaled param on the member line."""
    j, n, d = scaled
    return j, n / d, Fraction(n, d)


def interp(polyline, param: Param) -> Point:
    i, _, t = param
    p0, p1 = polyline[i], polyline[i + 1]
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def exact_point(scaled: ScaledPoint) -> Point:
    """The ``Fraction`` point of a crossing's scaled point."""
    x, y, d = scaled
    return Fraction(x, d), Fraction(y, d)


def truncated(polyline, param: Param):
    i = param[0]
    return list(polyline[: i + 1]) + [interp(polyline, param)]


def point_key(point: Point) -> Tuple[int, int, int, int]:
    """Integers that name a point exactly, a cheaper dict key than its
    ``Fraction``s."""
    x, y = point
    return x.numerator, x.denominator, y.numerator, y.denominator


def _prepared(polyline):
    """The polyline's integer form (each point times the lcm s of its
    coordinates' denominators), s, and a float copy (x / s rounds correctly,
    so it equals float of the Fraction)."""
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in polyline]
    s = math.lcm(*(d for xy in ratios for _, d in xy))
    ints = [(xn * (s // xd), yn * (s // yd)) for (xn, xd), (yn, yd) in ratios]
    return ints, s, [(x / s, y / s) for x, y in ints]


def _box(floats) -> Tuple[float, float, float, float]:
    xs, ys = [p[0] for p in floats], [p[1] for p in floats]
    return (min(xs), max(xs), min(ys), max(ys))


def _segment_boxes(floats):
    """Each segment's float box (lo_x, hi_x, lo_y, hi_y), widened by _EPS."""
    return [(min(x0, x1) - _EPS, max(x0, x1) + _EPS, min(y0, y1) - _EPS, max(y0, y1) + _EPS)
            for (x0, y0), (x1, y1) in zip(floats, floats[1:])]


def _crossings(p, box, q, anchors):
    """The crossing rules: proper transversal crossings of polylines P and Q
    as (param on P, scaled param on Q, scaled point, side), with side the
    sign of (Q's tangent) x (P's tangent).  P is given by ``_prepared`` and
    its float ``box``, Q by its integer form, scale and widened segment
    boxes.

    Touches at the points in ``anchors`` (P's global ends, and those of Q's
    ends that are no join: walls are born on other walls and end on the
    boundary) are ignored; any other touch is a non-generic corner hit, a
    positive-length collinear overlap is non-generic, and so is a crossing
    point found twice.  Q's segments are filtered against P's box once;
    each remaining segment pair is decided in integers, row by row.  P's
    param is built only where the segments meet, Q's stays as integers, and
    the point stays on P's scale times t's denominator.
    """
    (pi, sp, pf), (qi, sq, qboxes) = p, q
    lo_x, hi_x, lo_y, hi_y = box
    near = [(j, b) for j, b in enumerate(qboxes)
            if not (lo_x > b[1] or hi_x < b[0] or lo_y > b[3] or hi_y < b[2])]
    out = []
    if not near:
        return out
    for i in range(len(pi) - 1):
        ax0, ay0 = pf[i]
        ax1, ay1 = pf[i + 1]
        alo_x, ahi_x = (ax0, ax1) if ax0 <= ax1 else (ax1, ax0)
        alo_y, ahi_y = (ay0, ay1) if ay0 <= ay1 else (ay1, ay0)
        (a0x, a0y), (a1x, a1y) = pi[i], pi[i + 1]
        dax, day = a1x - a0x, a1y - a0y
        for j, (blo_x, bhi_x, blo_y, bhi_y) in near:
            if alo_x > bhi_x or ahi_x < blo_x or alo_y > bhi_y or ahi_y < blo_y:
                continue
            (b0x, b0y), (b1x, b1y) = qi[j], qi[j + 1]
            dbx, dby = b1x - b0x, b1y - b0y
            # b0 - a0, scaled by sp * sq
            ex, ey = b0x * sp - a0x * sq, b0y * sp - a0y * sq
            det = dax * dby - day * dbx
            if det == 0:
                if ex * day - ey * dax == 0 and (dax or day):
                    # collinear: Q's ends sit at t = n0, n1 over sq * |da|^2
                    n0 = ex * dax + ey * day
                    n1 = n0 + sp * (dbx * dax + dby * day)
                    if max(n0, n1) > 0 and min(n0, n1) < sq * (dax * dax + day * day):
                        raise NonGenericGeometry("collinear overlap")
                continue
            # t = tn / td on P's segment and u = un / ud on Q's
            tn, un = ex * dby - ey * dbx, ex * day - ey * dax
            side = -1 if det > 0 else 1
            if det < 0:
                tn, un, det = -tn, -un, -det
            td, ud = sq * det, sp * det
            if not (0 <= tn <= td and 0 <= un <= ud):
                continue
            pt = (a0x * td + tn * dax, a0y * td + tn * day, sp * td)
            if 0 < tn < td and 0 < un < ud:
                out.append(((i, tn / td, Fraction(tn, td)), (j, un, ud), pt, side))
            elif exact_point(pt) not in anchors:
                raise NonGenericGeometry("polyline corner hit at %r" % (exact_point(pt),))
    # where P or Q crosses itself on the other, one point is found twice; reject
    for k, (_, _, (x, y, d), _) in enumerate(out):
        for _, _, (x2, y2, d2), _ in out[:k]:
            if x * d2 == x2 * d and y * d2 == y2 * d:
                raise NonGenericGeometry("duplicate crossing point")
    return out


class PolylineSet:
    """A family of tagged polylines (weave lines tagged by letter, walls
    tagged by id, or test lines tagged by index), each prepared once, with
    its segments' widened float boxes, when it joins the family; the forest
    grows its walls one ``add`` at a time.
    A member's end at one of ``joins`` (a slot, where one weave line goes on
    as the next) is no anchor: a path through it is a corner hit, not a miss."""

    def __init__(self, tagged: Iterable[Tuple[Sequence[Point], object]] = (), joins=()):
        self.joins = frozenset(map(point_key, joins))
        self.lines = []
        for Q, tag in tagged:
            self.add(Q, tag)

    def add(self, Q: Sequence[Point], tag):
        ints, s, floats = _prepared(Q)
        ends = tuple(e for e in (Q[0], Q[-1]) if point_key(e) not in self.joins)
        self.lines.append((tag, (ints, s, _segment_boxes(floats)), _box(floats), ends))

    def crossings(self, P: Sequence[Point]):
        """The proper transversal crossings of P with every member Q, as
        sorted (param on P, tag, scaled param on Q, scaled point, side) with
        side the sign of (Q's tangent) x (P's tangent); ``exact_param`` and
        ``exact_point`` read Q's param and the point.  Polylines whose box is
        disjoint from P's are skipped: every segment pair would be rejected
        anyway."""
        p = _prepared(P)
        box = lo_x, hi_x, lo_y, hi_y = _box(p[2])
        ends = (P[0], P[-1])
        out = []
        for tag, q, (qlo_x, qhi_x, qlo_y, qhi_y), q_ends in self.lines:
            if (lo_x > qhi_x + _EPS or hi_x < qlo_x - _EPS or
                    lo_y > qhi_y + _EPS or hi_y < qlo_y - _EPS):
                continue
            for pa, pb, pt, side in _crossings(p, box, q, ends + q_ends):
                out.append((pa, tag, pb, pt, side))
        out.sort()
        return out
