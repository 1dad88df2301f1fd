"""Exact rational polyline geometry shared by the forest, homology and
transport layers.

Every question of the form "where does this path cross these lines, and on
which side?" is answered here, by a ``PolylineSet`` of tagged polylines (the
weave lines, the walls, or the homology engine's test lines).  Each path is
carried as a ``Polyline``, built once: integer points over one scale, their
correctly rounded floats and float box.  A set keeps its members' segments
in one table; a query filters it by the path's box once and decides, in
integers, each segment pair whose float boxes meet, keeping each crossing
point as integers.  A param leaves as the triple (segment, float,
``Ratio``): ``int / int`` rounds correctly and correct rounding is
monotone, so triples order exactly as (segment, rational) pairs do and read
their ``Ratio``s, in integers, only on a float tie.  A ``Fraction`` is
built only where a point is exported, compared with ``Fraction``s or
returned (``exact_point``).
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


def _raise_first_fault(hits, owners, faults):
    """Raise what a member-by-member pass meets first: at the lowest member
    with a fault, its first non-generic segment pair (P's segment major;
    ``faults`` holds (member, P segment, Q segment, message)), else a
    crossing point it meets twice, where P or Q crosses itself on the
    other.  ``owners`` holds each hit's member."""
    if len(set(owners)) < len(owners):  # some member is crossed twice
        seen = set()
        for m, (_, _, _, pt, _) in zip(owners, hits):
            key = (m,) + _reduced(*pt)
            if key in seen:
                faults.append((m, math.inf, 0, "duplicate crossing point"))
            seen.add(key)
    if faults:
        raise NonGenericGeometry(min(faults)[3])


class PolylineSet:
    """A family of tagged polylines (weave lines tagged by letter, walls
    tagged by id, or test lines tagged by index), kept as one table of
    segments; the forest grows its walls one ``add`` at a time.
    A member's end at one of ``joins`` (a slot, where one weave line goes on
    as the next) is no anchor: a path through it is a corner hit, not a miss."""

    def __init__(self, tagged: Iterable[Tuple[Sequence[Point], object]] = (), joins=()):
        self.joins = frozenset(map(point_key, joins))
        self.tags, self.anchors, self.segments = [], [], []
        for Q, tag in tagged:
            self.add(Q, tag)

    def add(self, Q, tag):
        """Add Q as the next member: its tag, its anchors (its ends that are
        no join) and, in the table, one record per segment: its float box,
        the member's index, the segment's index, its start and step in
        integers and the member's scale.  Every float coordinate is
        ``int / int``, correctly rounded, and rounding is monotone, so
        segments whose exact boxes meet have float boxes that meet: the
        boxes need no margin, which would only admit extra pairs."""
        q, m = prepare(Q), len(self.tags)
        self.tags.append(tag)
        self.anchors.append(tuple(e for e in q.ends if e not in self.joins))
        for j, ((x0, y0), (x1, y1), (fx0, fy0), (fx1, fy1)) in enumerate(
                zip(q.ints, q.ints[1:], q.floats, q.floats[1:])):
            self.segments.append((min(fx0, fx1), max(fx0, fx1), min(fy0, fy1), max(fy0, fy1),
                                  m, j, x0, y0, x1 - x0, y1 - y0, q.scale))

    def crossings(self, P):
        """The proper transversal crossings of P (points or a ``Polyline``)
        with every member Q, as sorted (param on P, tag, param on Q, scaled
        point, side) with side the sign of (Q's tangent) x (P's tangent);
        ``exact_point`` reads the point.

        The segment table is filtered by P's box once; then each pair of a
        P segment and a remaining segment whose boxes meet is decided in
        integers, row by row.  Touches at P's global ends and at the
        member's anchors (walls are born on other walls and end on the
        boundary) are ignored; any other touch is a non-generic corner hit,
        a positive-length collinear overlap is non-generic, and so is a
        point where one member is crossed twice (a rule per member).  Such
        a fault raises as a member-by-member pass would meet it first.  The
        params are built only where the segments meet, and the point stays
        on P's scale times t's denominator."""
        p = prepare(P)
        (pi, sp, pf), (lo_x, hi_x, lo_y, hi_y) = (p.ints, p.scale, p.floats), p.box
        near = [r for r in self.segments
                if not (lo_x > r[1] or hi_x < r[0] or lo_y > r[3] or hi_y < r[2])]
        tags, hits, owners, faults = self.tags, [], [], []
        for i in range(len(pi) - 1):
            ax0, ay0 = pf[i]
            ax1, ay1 = pf[i + 1]
            alo_x, ahi_x = (ax0, ax1) if ax0 <= ax1 else (ax1, ax0)
            alo_y, ahi_y = (ay0, ay1) if ay0 <= ay1 else (ay1, ay0)
            (a0x, a0y), (a1x, a1y) = pi[i], pi[i + 1]
            dax, day = a1x - a0x, a1y - a0y
            for blo_x, bhi_x, blo_y, bhi_y, m, j, b0x, b0y, dbx, dby, sq in near:
                if alo_x > bhi_x or ahi_x < blo_x or alo_y > bhi_y or ahi_y < blo_y:
                    continue
                # b0 - a0, scaled by sp * sq
                ex, ey = b0x * sp - a0x * sq, b0y * sp - a0y * sq
                det = dax * dby - day * dbx
                if det == 0:
                    if ex * day - ey * dax == 0 and (dax or day):
                        # collinear: Q's ends sit at t = n0, n1 over sq * |da|^2
                        n0 = ex * dax + ey * day
                        n1 = n0 + sp * (dbx * dax + dby * day)
                        if max(n0, n1) > 0 and min(n0, n1) < sq * (dax * dax + day * day):
                            faults.append((m, i, j, "collinear overlap"))
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
                    hits.append(((i, tn / td, Ratio(tn, td)), tags[m],
                                 (j, un / ud, Ratio(un, ud)), pt, side))
                    owners.append(m)
                elif not any(x * ad == ax * d and y * ad == ay * d
                             for ax, ay, ad in p.ends + self.anchors[m]):
                    faults.append((m, i, j, "polyline corner hit at %r" % (exact_point(pt),)))
        _raise_first_fault(hits, owners, faults)
        hits.sort()
        return hits
