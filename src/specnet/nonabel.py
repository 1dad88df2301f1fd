"""Non-abelianization: parallel transport across a forest network.

A rank-1 local system V on the weave surface L is pushed down to a rank-n
system on the base disk: transport along a path is a product of elementary
matrices, one per crossing with a weave line (sheet permutation with a
twisting sign) and one per crossing with a wall (unipotent Stokes factor
whose off-diagonal entry is the wall's signed soliton value at the crossing
point).  Entries live in the exact Laurent ring over the cycle generators
s_1..s_l and the boundary-arc generators t_1..t_n; numeric local systems are
evaluated by substituting units for the generators.

Open-path transport needs a trivialization: every lifted endpoint is capped
to the marked boundary point, so each matrix entry is the class of a chain
rel the marked lifts, computed exactly by the homology engine.  Caps at
interior composition points cancel in class, making composition exact.

A path's product is never multiplied out: it is built by row operations on
the running total.  A free transport (permutation-diagonal) moves row s to
the row of its end sheet, scaled by the entry; a Stokes factor adds c times
row j to row i.  The path is put in integer form once, and each sub-path
between two wall crossings is cut from it: the previous crossing's scaled
point (or the start), the corners up to the next crossing and that
crossing's scaled point.  A repeated corner leaves a zero-length segment,
which crosses nothing.

The local sign conventions are pinned by requiring transport around every
branch point and every creation joint to be the identity: the Stokes
coefficient of a seed wall is the plain monomial of its detour class based
at the crossing point, and a child wall inherits the product of its
parents' signs times the handedness of the parent tangents at the joint.

Transport is locally constant, so both exact answers are kept per class:

* A Stokes coefficient is kept per (wall, interval between the wall's cut
  params).  The cuts are its weave-line events and the params where its x
  is bx or bx - CAP_EPS for a branch point b.  x is constant on vertical
  segments, so each interval lies wholly inside or outside b's band, the
  params with bx in [x, x + CAP_EPS] where the cap's first leg meets b's
  vertical line.  Outside every band, moving the base point sweeps no
  branch point, and the label and twist stay fixed.  A computed value is
  kept only for a param off the cuts and outside every band.
* A free transport is kept per (sheet permutation of the start cap's
  events, the path's (letter, side) event word, the freely reduced word of
  the capped loop's crossings with the branch cuts), at most
  MAX_FREE_KEYS of them, the oldest dropped first.  Each cut is a slit
  from a branch point b up to (bx - by/1000, 0); the slits are parallel
  and disjoint, so the lower half-plane cut along them is simply
  connected.  The reduced word is then the loop's class in pi_1 of the
  half-plane less the branch points, based at the marked point; with the
  start sheet it fixes the lift's class in H_1(L, T), and the event word
  fixes the permutation and the signs.
* The keys are read off one walk of the path: a sub-path's crossings are
  those of one weave-line and one cut query on the whole path strictly
  between its two wall-crossing params, and each junction's cap is queried
  once for both sub-paths that meet there.  A sub-path has no key, and is
  computed afresh, where a whole-path query raised (its miss queries it
  alone, and raises where that query does), a corner is not below y = 0,
  an end lies inside a cut or a cap meets a cut other than transversally.
  Two caps crossing one cut at one point (ends of one x) still give a key:
  the word is an invariant of any loop crossing the slits transversally.
* Next to each free transport the memo keeps the sheet permutation of the
  cap at the path's end, and the key fixes it.  Going round the loop (start
  cap reversed, path, end cap) permutes the sheets at the marked point by
  end o path o start^-1.  Sheet labels change only across weave lines, and
  round any vertex other than a branch point they come back, so the loop's
  permutation is a function of its class, the reduced slit word.  The
  event word fixes the path's permutation and the start cap's is in the
  key, so end = loop o start o path^-1.  Each sub-path of a path starts
  where the one before it ended, so the end sheets are carried on as the
  next start sheets, and a path walks one start cap.  Only a miss, keyed
  or not, builds the sub-path's integer form, its weave-line events and
  its start and end caps, once each for all n chains, and reads the end
  sheets off the end cap's events.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .forest import ForestBuilder, build_forest_strands
from .geometry import (NonGenericGeometry, Param, Point, Polyline, PolylineSet, Ratio, ScaledPoint,
                       exact_point, interp, param_of, point_key, prepare, walk_sheets)
from .laurent import LaurentPoly
from .soliton_bps import CAP_EPS, LiftedPath, SolitonCatalog, tree_of_strand

# free transports a Transport keeps; past it the oldest goes.  About four
# times the 65 a fixture keeps in a 30 s transport_paths benchmark run.
MAX_FREE_KEYS = 256


class Transport:
    """Exact parallel transport over a forest network."""

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.catalog = SolitonCatalog(builder)
        self.engine = self.catalog.engine
        n = builder.weave.strand_count
        self.n = n
        self.gens = tuple(self.engine.gen_names) + tuple(
            "t_%d" % i for i in range(1, n + 1))
        branch = [v.point for v in builder.weave.trivalent_vertices()]
        self.branch_xs = sorted({x for x, _ in branch})
        # one slit per branch point, all parallel, up to the top boundary
        self.cuts = [[(x, y), (x - y / 1000, Fraction(0))] for x, y in branch]
        if len({1000 * x - y for x, y in branch}) != len(branch):
            raise NonGenericGeometry("two branch cuts are collinear")
        self._cut_set = PolylineSet((cut, k) for k, cut in enumerate(self.cuts))
        self._wall_cuts: Dict[int, List[Param]] = {}
        self._coefficients: Dict[tuple, LaurentPoly] = {}  # (wall, interval) -> value
        self._free: Dict[tuple, tuple] = {}  # homotopy key -> free factor, end sheets

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
        (points, part, _), = self._sub_paths(path)
        factor, _ = self._free_factor(points, part, self.cap_sheets(path.ends[0]))
        zero = LaurentPoly.zero(self.gens)
        out = [[zero] * self.n for _ in range(self.n)]
        for start, (sheet, entry) in enumerate(factor):
            out[sheet - 1][start] = entry
        return out

    def cap_sheets(self, start: ScaledPoint) -> Tuple[int, ...]:
        """The sheet permutation of the cap at ``start``, a ``point_key``:
        sheet s there reaches sheet ``[s - 1]`` at the marked point."""
        return walk_sheets(tuple(range(1, self.n + 1)), self.engine.cap(start).events)[0]

    def _free_factor(self, points, part, sheets):
        """The free transport along the sub-path through scaled ``points``
        as its (end sheet, entry) per start sheet, and the sheet permutation
        of the cap at its end; ``sheets`` is the permutation of the cap at
        its start.  From the memo under ``sheets`` and the key part where
        ``_sub_paths`` gave one."""
        key = None if part is None else (sheets,) + part
        found = None if key is None else self._free.get(key)
        if found is None:
            path = Polyline(points)
            events = self.builder.events_along(path)
            lifted = LiftedPath(path, events)
            start_cap, end_cap = map(self.engine.cap, path.ends)
            factor = []
            for start in range(1, self.n + 1):
                (sheet,), sign = walk_sheets((start,), events)
                chain = [(lifted, start, 1), (start_cap, start, -1), (end_cap, sheet, 1)]
                cyc, arc = self.engine.class_of_chain(chain)
                factor.append((sheet, LaurentPoly.monomial(self.gens, cyc + arc, sign)))
            found = tuple(factor), self.cap_sheets(path.ends[1])
            if key is not None:
                if len(self._free) >= MAX_FREE_KEYS:
                    del self._free[next(iter(self._free))]
                self._free[key] = found
        return found

    def _sub_paths(self, path: Polyline, crossings=()):
        """Each sub-path of ``path`` between two of its wall ``crossings``,
        in order, as (its scaled points, its key part, the crossing that
        ends it or None).  The key part is the (letter, side) event word and
        the reduced slit word (see the module docstring), or None where the
        sub-path has no key.  A wall crossed where it crosses a weave line
        raises before the sub-path it ends is walked."""
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
            yield points, part, crossing
            if crossing is not None:
                prev, prev_idx, prev_param, prev_word = pt, param[0], param, word

    def _cap_word(self, point: ScaledPoint) -> Optional[List[tuple]]:
        """The (cut, side) crossings of the cap at ``point``, in order, or
        None where no loop through ``point`` has a key: ``point`` lies
        inside a cut, or the cap meets a cut other than transversally."""
        x, y, d = point
        for *_, x0, y0, dx, dy, s in self._cut_set.segments:
            # point minus the cut's base, scaled by d * s, is t d (dx, dy)
            wx, wy = x * s - x0 * d, y * s - y0 * d
            if wx * dy == wy * dx and 0 < wx * dx + wy * dy < d * (dx * dx + dy * dy):
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

    def soliton_coefficient(self, sid: int, param: Param) -> LaurentPoly:
        """Signed soliton value of wall ``sid`` based at ``param``, kept per
        interval between the wall's cut params that lies outside every band
        (see the module docstring)."""
        key = self._interval_key(sid, param)
        value = self._coefficients.get(key)
        if value is None:
            cyc, arc = self.engine.class_of_chain(self.engine.tree_chain(sid, root_param=param))
            value = LaurentPoly.monomial(self.gens, cyc + arc, self.stokes_sign(sid, param))
            x = exact_point(interp(self.builder.strands[sid].path, param))[0]
            if key is not None and not any(x <= bx <= x + CAP_EPS for bx in self.branch_xs):
                self._coefficients[key] = value
        return value

    def _interval_key(self, sid: int, param: Param) -> Optional[tuple]:
        """(wall, index of ``param`` among the wall's sorted cut params), or
        None at a cut param."""
        strand = self.builder.strands[sid]
        if sid not in self._wall_cuts:
            edges = self.branch_xs + [bx - CAP_EPS for bx in self.branch_xs]
            edges = [edge.as_integer_ratio() for edge in edges]
            s, xs = strand.path.scale, [x for x, _ in strand.path.ints]
            cuts = [p for p, _, _ in strand.crossings]
            for i, (ax, bx) in enumerate(zip(xs, xs[1:])):
                # an edge's param (en / ed - ax / s) / ((bx - ax) / s), both terms times bx - ax
                ts = [((en * s - ax * ed) * (bx - ax), (bx - ax) ** 2 * ed) for en, ed in edges]
                cuts += [param_of(i, Ratio(n, d)) for n, d in ts if d and 0 <= n <= d]
            self._wall_cuts[sid] = sorted(cuts)
        cuts = self._wall_cuts[sid]
        k = bisect_left(cuts, param)
        if k < len(cuts) and cuts[k] == param:
            return None
        return sid, k

    def transport_short(self, sid: int, param: Param, side: int):
        """Unipotent Stokes matrix for crossing wall ``sid`` at ``param``.

        ``side`` is the sign of (wall tangent) x (path tangent); crossing
        from the other side gives the inverse matrix.
        """
        i, j = self.builder.strands[sid].label_at(param)
        out = self.identity()
        out[i - 1][j - 1] = out[i - 1][j - 1] + \
            self.soliton_coefficient(sid, param) * side
        return out

    # ----- paths -----
    def transport_path(self, poly: Sequence[Point]) -> List[List[LaurentPoly]]:
        """Transport along a polyline path avoiding all network vertices,
        by row operations on the sub-paths between its wall crossings, with
        the cap sheets carried from one sub-path to the next (see the module
        docstring)."""
        path = prepare(poly)
        rows = self.identity()
        sheets = self.cap_sheets(path.ends[0])
        for points, part, crossing in self._sub_paths(path, self.builder.walls.crossings(path)):
            factor, sheets = self._free_factor(points, part, sheets)
            out = [None] * self.n
            for row, (sheet, entry) in zip(rows, factor):
                out[sheet - 1] = [e if e.is_zero() else entry * e for e in row]
            rows = out
            if crossing is not None:
                _, sid, pb, _, side = crossing
                i, j = self.builder.strands[sid].label_at(pb)
                c = self.soliton_coefficient(sid, pb) * side
                rows[i - 1] = [a if b.is_zero() else a + c * b
                               for a, b in zip(rows[i - 1], rows[j - 1])]
        return rows

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
        vertex = self.builder.weave.vertices[vertex_id]
        return self._loop_transport(vertex.point)

    def joint_monodromy(self, joint: dict) -> List[List[LaurentPoly]]:
        return self._loop_transport(tuple(joint["point"]))

    def _loop_transport(self, center: Point) -> List[List[LaurentPoly]]:
        """Transport around a small closed quadrilateral about ``center``,
        at half its clearance, corners jittered off the axes so they avoid
        walls and weave lines.  A degenerate loop raises NonGenericGeometry."""
        cx, cy = center
        r = self.clearance(center) / 2
        e = r / 313
        return self.transport_path([(cx + r, cy + e), (cx + e, cy + r), (cx - r, cy + 2 * e),
                                    (cx - 2 * e, cy - r), (cx + r, cy + e)])


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
    a segment and cannot fold.

    Points are drawn and decided as scaled points.  A puncture goes to the
    winding test only when its float lies in the quad's float box.  Floats
    round monotonically, so every puncture in the exact closed box passes;
    any other lies outside the quad's closed box, where the winding number
    is 0 and no test raises, so the moves kept are the exact box's.
    """
    interior, moves = 3, 6
    punctures, (x0, dx, y0, dy, d) = transport.draw_region

    def rand_point():
        x = x0 + dx * rng.randint(1, 996)
        return x, y0 + dy * rng.randint(1, 996), d

    path: List[ScaledPoint] = []
    while len(path) < interior + 2:
        q = rand_point()
        if not _folds(path[-2:] + [q]):
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
            other.insert(k + 1, (997 * ax * bd + t * (bx * ad - ax * bd),
                                 997 * ay * bd + t * (by * ad - ay * bd), 997 * ad * bd))
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
        if _folds(other[max(k - 2, 0): k] + [q] + other[k + 1: k + 3]):
            continue
        other[k] = q
        done += 1
    return tuple([(Fraction(x, d), Fraction(y, d)) for x, y, d in pts] for pts in (path, other))


# ----- rank-1 local systems and numeric evaluation -----

class LocalSystemRank1:
    """Unit values for the generators, respecting all class relations.

    The generator classes may satisfy integer relations (for example the
    total boundary of the surface is null-homologous); a consistent local
    system is a homomorphism from the class lattice to the units, so it must
    send every vanishing combination of generators to 1.
    """

    def __init__(self, values: Dict[str, Fraction]):
        self.values = dict(values)
        for name, value in self.values.items():
            if value == 0:
                raise ValueError("local system value for %s must be a unit" % name)

    @classmethod
    def random(cls, transport: Transport, rng: random.Random) -> "LocalSystemRank1":
        """Random consistent system: pick a unit per pairing test curve and
        evaluate each generator through its class vector, so relations among
        the classes hold for the values automatically."""
        units = []
        for _row in transport.engine.matrix:
            num = rng.randint(1, 5) * rng.choice([1, -1])
            units.append((num, rng.randint(1, 5)))
        values = {}
        for name, column in zip(transport.gens, zip(*transport.engine.matrix)):
            num = den = 1
            for row, exponent in enumerate(column):
                top, bottom = units[row] if exponent > 0 else units[row][::-1]
                num *= top ** abs(exponent)
                den *= bottom ** abs(exponent)
            values[name] = Fraction(num, den)
        return cls(values)

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
