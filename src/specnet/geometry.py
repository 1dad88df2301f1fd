"""Exact rational polyline geometry shared by the forest, homology and
transport layers.

Every question of the form "where does this path cross these lines, and on
which side?" is answered here: ``poly_crossings`` for one pair of polylines,
``PolylineSet`` for a fixed family of tagged polylines (the weave lines, or
the walls), ``AxisLines`` for a family of parallel test lines.  The first
two run one function of crossing rules; ``AxisLines`` applies the same rules
to all its lines in one pass, and raises NonGenericGeometry on the same
coincidences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

Point = Tuple[Fraction, Fraction]
Param = Tuple[int, Fraction]  # (polyline sub-segment index, parameter in [0,1])

# float bounding boxes cheaply reject most segment pairs before the exact
# test; the margin absorbs any rounding of the Fraction coords
_EPS = 1e-6


class NonGenericGeometry(Exception):
    """Offsets produced a coincidence (tangency, corner hit); retry smaller."""


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


def direction(polyline, i: int) -> Point:
    """Direction vector of the polyline's ``i``-th sub-segment."""
    return (polyline[i + 1][0] - polyline[i][0], polyline[i + 1][1] - polyline[i][1])


def cross_sign(u: Point, v: Point) -> int:
    """Sign of u x v; tangent directions are non-generic."""
    c = u[0] * v[1] - u[1] * v[0]
    if c == 0:
        raise NonGenericGeometry("tangent segments at a crossing")
    return 1 if c > 0 else -1


def interp(polyline, param: Param) -> Point:
    i, t = param
    p0, p1 = polyline[i], polyline[i + 1]
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def truncated(polyline, param: Param):
    i, _ = param
    return list(polyline[: i + 1]) + [interp(polyline, param)]


def _sub_cross(a0, a1, b0, b1):
    """Intersection params (t, u) of segments a and b, or None if parallel
    and disjoint.  Raises on collinear overlap."""
    dax, day = a1[0] - a0[0], a1[1] - a0[1]
    dbx, dby = b1[0] - b0[0], b1[1] - b0[1]
    ex, ey = b0[0] - a0[0], b0[1] - a0[1]
    det = dax * dby - day * dbx
    if det == 0:
        if ex * day - ey * dax != 0:
            return None  # parallel, distinct lines
        # collinear: positive-length overlap is non-generic
        if dax or day:
            t0 = (ex * dax + ey * day) / (dax * dax + day * day)
            t1 = t0 + (dbx * dax + dby * day) / (dax * dax + day * day)
            lo, hi = min(t0, t1), max(t0, t1)
            if hi > 0 and lo < 1:
                raise NonGenericGeometry("collinear overlap")
        return None
    t = (ex * dby - ey * dbx) / det
    u = (ex * day - ey * dax) / det
    return (t, u)


def _floats(polyline) -> List[Tuple[float, float]]:
    return [(float(p[0]), float(p[1])) for p in polyline]


def _box(floats) -> Tuple[float, float, float, float]:
    xs, ys = [p[0] for p in floats], [p[1] for p in floats]
    return (min(xs), max(xs), min(ys), max(ys))


def _crossings(P, pf, Q, qf, q_anchors):
    """The crossing rules: proper transversal crossings of P and Q (with
    float copies pf, qf) as sorted (paramP, paramQ, pt).

    Touches at P's global start or end, and at the ends of Q listed in
    ``q_anchors``, are ignored (walls are born on other walls and end on the
    boundary); any other boundary touch is a non-generic corner hit, and so
    is a crossing point found twice.
    """
    out = []
    anchors = (P[0], P[-1]) + q_anchors
    for i in range(len(P) - 1):
        ax0, ay0 = pf[i]
        ax1, ay1 = pf[i + 1]
        alo_x, ahi_x = (ax0, ax1) if ax0 <= ax1 else (ax1, ax0)
        alo_y, ahi_y = (ay0, ay1) if ay0 <= ay1 else (ay1, ay0)
        for j in range(len(Q) - 1):
            bx0, by0 = qf[j]
            bx1, by1 = qf[j + 1]
            if (alo_x > max(bx0, bx1) + _EPS or ahi_x < min(bx0, bx1) - _EPS or
                    alo_y > max(by0, by1) + _EPS or ahi_y < min(by0, by1) - _EPS):
                continue
            r = _sub_cross(P[i], P[i + 1], Q[j], Q[j + 1])
            if r is None:
                continue
            t, u = r
            if not (0 <= t <= 1 and 0 <= u <= 1):
                continue
            pt = (P[i][0] + t * (P[i + 1][0] - P[i][0]),
                  P[i][1] + t * (P[i + 1][1] - P[i][1]))
            if 0 < t < 1 and 0 < u < 1:
                out.append(((i, t), (j, u), pt))
            elif pt in anchors:
                continue
            elif t in (0, 1) and u in (0, 1) and 0 < j + u < len(Q) - 1:
                continue  # shared interior corner of both: counted by neighbors
            else:
                raise NonGenericGeometry("polyline corner hit at %r" % (pt,))
    # a transversal pass through a shared corner would appear twice; reject
    points = [pt for _, _, pt in out]
    if len(set(points)) != len(points):
        raise NonGenericGeometry("duplicate crossing point")
    return sorted(out)


def poly_crossings(P: Sequence[Point], Q: Sequence[Point]):
    """Proper transversal crossings of two polylines as (paramP, paramQ, pt)."""
    return _crossings(P, _floats(P), Q, _floats(Q), (Q[0], Q[-1]))


class PolylineSet:
    """A fixed family of tagged polylines (weave lines tagged by letter, or
    walls tagged by id), with each float copy and bounding box made once.
    A member's end at one of ``joins`` (a slot, where one weave line goes on
    as the next) is no anchor: a path through it is a corner hit, not a miss."""

    def __init__(self, tagged: Iterable[Tuple[Sequence[Point], object]], joins=frozenset()):
        self.lines = []
        for Q, tag in tagged:
            qf = _floats(Q)
            ends = tuple(q for q in (Q[0], Q[-1]) if q not in joins)
            self.lines.append((tag, Q, qf, _box(qf), ends))

    def crossings(self, P: Sequence[Point]):
        """``poly_crossings(P, Q)`` against every polyline Q of the set, as
        sorted (param on P, tag, param on Q, point, side) with side the sign
        of (Q's tangent) x (P's tangent).  Polylines whose box is disjoint
        from P's are skipped: every segment pair would be rejected anyway."""
        pf = _floats(P)
        lo_x, hi_x, lo_y, hi_y = _box(pf)
        out = []
        for tag, Q, qf, (qlo_x, qhi_x, qlo_y, qhi_y), ends in self.lines:
            if (lo_x > qhi_x + _EPS or hi_x < qlo_x - _EPS or
                    lo_y > qhi_y + _EPS or hi_y < qlo_y - _EPS):
                continue
            for pa, pb, pt in _crossings(P, pf, Q, qf, ends):
                out.append((pa, tag, pb, pt,
                            cross_sign(direction(Q, pb[0]), direction(P, pa[0]))))
        out.sort()
        return out


class AxisLines:
    """Parallel segments: coordinate ``axis`` is fixed at each of ``coords``
    while the other coordinate runs from ``start`` to ``end``."""

    def __init__(self, axis: int, coords: Sequence[Fraction], start, end):
        self.axis, self.start, self.end = axis, start, end
        self.order = sorted(range(len(coords)), key=coords.__getitem__)
        self.coords = [coords[k] for k in self.order]
        self.floats = [float(c) for c in self.coords]
        self.lo, self.hi = min(start, end), max(start, end)
        # the sign of (P's tangent) x (line tangent) per unit motion of P
        self.turn = (1 if end > start else -1) * (1 - 2 * axis)

    def crossings(self, P: Sequence[Point]):
        """``poly_crossings(P, line k)`` for every line k at once, as
        (i, t, k, pos, side): (i, t) is the param on P, pos the crossing's
        coordinate along the line and side the sign of (P's tangent) x (line
        tangent).  Lines are found by bisecting each segment's float bounds
        (the margin absorbs rounding); the same inputs raise
        NonGenericGeometry."""
        a, b, eps = self.axis, 1 - self.axis, _EPS
        blo, bhi = float(self.lo) - eps, float(self.hi) + eps
        pf = [(float(p[a]), float(p[b])) for p in P]
        out, seen = [], set()
        for i in range(len(P) - 1):
            (fa0, fb0), (fa1, fb1) = pf[i], pf[i + 1]
            if max(fb0, fb1) < blo or min(fb0, fb1) > bhi:
                continue
            k0 = bisect_left(self.floats, min(fa0, fa1) - eps)
            k1 = bisect_right(self.floats, max(fa0, fa1) + eps)
            a0, a1, b0, b1 = P[i][a], P[i + 1][a], P[i][b], P[i + 1][b]
            for k in range(k0, k1):
                c = self.coords[k]
                if a0 == a1:  # parallel: only a positive-length overlap counts
                    if c == a0 and max(min(b0, b1), self.lo) < min(max(b0, b1), self.hi):
                        raise NonGenericGeometry("collinear overlap")
                    continue
                if not (a0 <= c <= a1 or a1 <= c <= a0):
                    continue
                t = (c - a0) / (a1 - a0)
                pos = b0 + t * (b1 - b0)
                if not self.lo <= pos <= self.hi:
                    continue
                if c != a0 and c != a1 and self.lo < pos < self.hi:
                    if (k, pos) in seen:
                        raise NonGenericGeometry("duplicate crossing point")
                    seen.add((k, pos))
                    side = self.turn if a1 > a0 else -self.turn
                    out.append((i, t, self.order[k], pos, side))
                    continue
                pt = (c, pos) if a == 0 else (pos, c)
                if pt != P[0] and pt != P[-1] and pos != self.start and pos != self.end:
                    raise NonGenericGeometry("polyline corner hit at %r" % (pt,))
        return out
