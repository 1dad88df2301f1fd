"""Exact rational polyline geometry shared by the forest, homology and
transport layers.

Every question of the form "where does this path cross these lines, and on
which side?" is answered here, by a ``PolylineSet`` of tagged polylines (the
weave lines, the walls, or the homology engine's test lines).  Each path is
carried as a ``Polyline``, built once: integer points over one scale, their
correctly rounded floats and float box.  One function of crossing rules
decides every segment pair in integers and keeps each crossing point as
integers.  A param leaves as the triple (segment, float, ``Ratio``):
``int / int`` rounds correctly and correct rounding is monotone, so triples
order exactly as (segment, rational) pairs do and read their ``Ratio``s, in
integers, only on a float tie.  A ``Fraction`` is built only where a point
is exported, compared with ``Fraction``s or returned (``exact_point``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, List, Sequence, Tuple

Point = Tuple[Fraction, Fraction]
# (polyline sub-segment index, float(t), t) for a parameter t in [0, 1]
Param = Tuple[int, float, "Ratio"]
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


@total_ordering
class Ratio:
    """n / d in integers, d > 0: the exact part of a param.  It is compared
    by cross-multiplying, and a param's tuple reads it only on a float tie."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator, self.denominator = n, d

    def __eq__(self, other):
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __lt__(self, other):
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __truediv__(self, other: "Ratio") -> "Ratio":  # for other > 0
        return Ratio(self.numerator * other.denominator, self.denominator * other.numerator)


def param_of(i: int, t) -> Param:
    """The param ``t`` (a ``Ratio``, ``Fraction`` or int) on sub-segment ``i``."""
    n, d = t.numerator, t.denominator
    return i, n / d, Ratio(n, d)


def exact_point(scaled: ScaledPoint) -> Point:
    """The ``Fraction`` point of a scaled point."""
    x, y, d = scaled
    return Fraction(x, d), Fraction(y, d)


def _reduced(x: int, y: int, d: int) -> ScaledPoint:
    g = math.gcd(x, y, d)
    return x // g, y // g, d // g


def point_key(point: Point) -> ScaledPoint:
    """The point as (x, y, d) in lowest terms, as ``Polyline.ends`` names ends."""
    (xn, xd), (yn, yd) = point[0].as_integer_ratio(), point[1].as_integer_ratio()
    return _reduced(xn * yd, yn * xd, xd * yd)


class Polyline:
    """A path's integer form, built from its scaled points (x, y, d): the
    points times one scale s (the lcm of the d), s, the float copy (x / s
    rounds correctly, so it equals float of the exact coordinate), its
    float box and its two ends in lowest terms."""

    __slots__ = ("ints", "scale", "floats", "box", "ends")

    def __init__(self, points: Sequence[ScaledPoint]):
        self.scale = s = math.lcm(*(d for _, _, d in points))
        self.ints = [(x * (s // d), y * (s // d)) for x, y, d in points]
        self.floats = [(x / s, y / s) for x, y in self.ints]
        xs, ys = [x for x, _ in self.floats], [y for _, y in self.floats]
        self.box = (min(xs), max(xs), min(ys), max(ys))
        self.ends = (_reduced(*points[0]), _reduced(*points[-1]))


def prepare(points) -> Polyline:
    """The integer form of a path given by its points, or the ``Polyline``."""
    return points if isinstance(points, Polyline) else Polyline(list(map(point_key, points)))


def interp(path: Polyline, param: Param) -> ScaledPoint:
    """The scaled point at ``param`` on a path."""
    i, _, t = param
    n, d = t.numerator, t.denominator
    (ax, ay), (bx, by) = path.ints[i], path.ints[i + 1]
    return ax * d + n * (bx - ax), ay * d + n * (by - ay), path.scale * d


def truncated(path: Polyline, param: Param) -> Polyline:
    """The path up to ``param``, built in integers."""
    s = path.scale
    return Polyline([(x, y, s) for x, y in path.ints[: param[0] + 1]] + [interp(path, param)])


def _segment_boxes(floats):
    """Each segment's float box (lo_x, hi_x, lo_y, hi_y), widened by _EPS."""
    return [(min(x0, x1) - _EPS, max(x0, x1) + _EPS, min(y0, y1) - _EPS, max(y0, y1) + _EPS)
            for (x0, y0), (x1, y1) in zip(floats, floats[1:])]


def _crossings(p: Polyline, q, anchors):
    """The crossing rules: proper transversal crossings of polylines P and Q
    as (param on P, param on Q, scaled point, side), with side the sign of
    (Q's tangent) x (P's tangent).  Q is given by its integer form, scale
    and widened segment boxes.

    Touches at the scaled points in ``anchors`` (P's global ends, and those
    of Q's ends that are no join: walls are born on other walls and end on
    the boundary) are ignored; any other touch is a non-generic corner hit,
    a positive-length collinear overlap is non-generic, and so is a crossing
    point found twice.  Q's segments are filtered against P's box once;
    each remaining segment pair is decided in integers, row by row.  The
    params are built only where the segments meet, and the point stays on
    P's scale times t's denominator.
    """
    (pi, sp, pf), (qi, sq, qboxes) = (p.ints, p.scale, p.floats), q
    lo_x, hi_x, lo_y, hi_y = p.box
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
            x, y, d = pt = (a0x * td + tn * dax, a0y * td + tn * day, sp * td)
            if 0 < tn < td and 0 < un < ud:
                out.append(((i, tn / td, Ratio(tn, td)), (j, un / ud, Ratio(un, ud)), pt, side))
            elif not any(x * ad == ax * d and y * ad == ay * d for ax, ay, ad in anchors):
                raise NonGenericGeometry("polyline corner hit at %r" % (exact_point(pt),))
    # where P or Q crosses itself on the other, one point is found twice; reject
    for k, (_, _, (x, y, d), _) in enumerate(out):
        for _, _, (x2, y2, d2), _ in out[:k]:
            if x * d2 == x2 * d and y * d2 == y2 * d:
                raise NonGenericGeometry("duplicate crossing point")
    return out


class PolylineSet:
    """A family of tagged polylines (weave lines tagged by letter, walls
    tagged by id, or test lines tagged by index), each in integer form, with
    its segments' widened float boxes, when it joins the family; the forest
    grows its walls one ``add`` at a time.
    A member's end at one of ``joins`` (a slot, where one weave line goes on
    as the next) is no anchor: a path through it is a corner hit, not a miss."""

    def __init__(self, tagged: Iterable[Tuple[Sequence[Point], object]] = (), joins=()):
        self.joins = frozenset(map(point_key, joins))
        self.lines = []
        for Q, tag in tagged:
            self.add(Q, tag)

    def add(self, Q, tag):
        q = prepare(Q)
        ends = tuple(e for e in q.ends if e not in self.joins)
        self.lines.append((tag, (q.ints, q.scale, _segment_boxes(q.floats)), q.box, ends))

    def crossings(self, P):
        """The proper transversal crossings of P (points or a ``Polyline``)
        with every member Q, as sorted (param on P, tag, param on Q, scaled
        point, side) with side the sign of (Q's tangent) x (P's tangent);
        ``exact_point`` reads the point.  Polylines whose box is disjoint
        from P's are skipped: every segment pair would be rejected anyway."""
        p = prepare(P)
        lo_x, hi_x, lo_y, hi_y = p.box
        out = []
        for tag, q, (qlo_x, qhi_x, qlo_y, qhi_y), q_ends in self.lines:
            if (lo_x > qhi_x + _EPS or hi_x < qlo_x - _EPS or
                    lo_y > qhi_y + _EPS or hi_y < qlo_y - _EPS):
                continue
            for pa, pb, pt, side in _crossings(p, q, p.ends + q_ends):
                out.append((pa, tag, pb, pt, side))
        out.sort()
        return out
