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

Transport is locally constant, and its classes are read off the homology
engine's slit words (see ``soliton_bps``).  A free sub-path's word is
that of the loop start cap reversed, path, end cap, walked per start
sheet s from the sheet the start cap takes s to at the marked point;
walking its (letter, side) event word takes s to its end sheet and gives
the entry's sign.  The end cap's permutation is read off the walk's end
sheets and carried on to the next sub-path, so a path reads the sheets
of one cap, at its start.  A Stokes coefficient is the monomial of the
wall's ``wall_class`` times its Stokes sign.  The words are read off one
weave-line and one cut query on the whole path, sliced between the
wall-crossing params, and each junction's cap word, read off the cut
lines with no query and shared by the two sub-paths and the wall that
meet there.  Every sub-path has a word: a point on a cut, where a path
starts, ends or crosses a wall, or where a cap starts or turns, reads as
left of it (see ``soliton_bps``).  A path with a point at or above y = 0
or a branch point on it, at an end, a corner or inside a segment, or
whose whole-path query raises, is rejected with a
``NonGenericGeometry``.  Two caps crossing one cut at one point still
give a word, an invariant of a loop crossing transversally.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import Dict, List, Sequence

from .forest import ForestBuilder, build_forest_strands
from .geometry import (NonGenericGeometry, Param, Point, Polyline, ScaledPoint, exact_point,
                       interp, point_key, prepare, walk_sheets)
from .laurent import LaurentPoly
from .soliton_bps import SolitonCatalog, between, freely_reduced, on_a_segment, tree_of_strand


class Transport:
    """Exact parallel transport over a forest network."""

    def __init__(self, builder: ForestBuilder):
        self.builder = builder
        self.catalog = SolitonCatalog(builder)
        self.engine = self.catalog.engine
        self.n = builder.weave.strand_count
        self.gens = self.engine.gen_names

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
        (_, part, _, _), = self._sub_paths(path)
        factor, _ = self._free_factor(part, self.engine.cap_sheets(path.ends[0]))
        zero = LaurentPoly.zero(self.gens)
        out = [[zero] * self.n for _ in range(self.n)]
        for start, (sheet, cls, sign) in enumerate(factor):
            out[sheet - 1][start] = LaurentPoly.monomial(self.gens, cls, sign)
        return out

    def _free_factor(self, part, sheets):
        """The free transport along a sub-path as (end sheet, class
        exponents, sign) per start sheet, and the sheet permutation of the
        cap at its end; ``sheets`` is that of the cap at its start.  With
        its key ``part`` from ``_sub_paths``, start sheet s walks its slit
        word from ``sheets[s - 1]`` and its events."""
        events = [(None, *event) for event in part[0]]
        factor, ends = [], [0] * self.n
        for start, t in enumerate(sheets, 1):
            (sheet,), sign = walk_sheets((start,), events)
            cls, ends[sheet - 1] = self.engine.walk(t, part[1])
            factor.append((sheet, cls, sign))
        return factor, tuple(ends)

    def _sub_paths(self, path: Polyline, crossings=()):
        """Each sub-path of ``path`` between two of its wall ``crossings``,
        in order, as (its scaled points, its key part, the crossing that
        ends it or None, the engine's ``cap_word`` at its end).  The key
        part is the (letter, side) event word, walked for sheets and signs,
        and the reduced slit word walked for classes (see the module
        docstring): a point of the path on a cut, an end or a wall
        crossing, reads as left of it (``slits_along`` and ``between``).
        A path that is not ``walkable``, or whose weave-line or cut query
        raises, raises; so does a wall crossed where it crosses a weave
        line, before the sub-path it ends is walked."""
        s = path.scale
        corners = [(x, y, s) for x, y in path.ints]
        engine = self.engine
        slits = engine.slits_along(engine.walkable(path))
        events = self.builder.events_along(path)
        prev, prev_idx, prev_param = corners[0], 0, None
        prev_word = engine.cap_word(prev)
        for crossing in [*crossings, None]:
            if crossing is None:
                points, param = [prev] + corners[prev_idx + 1:], None
            else:
                param, sid, pb, pt, _ = crossing
                if any(p == pb for p, _, _ in self.builder.strands[sid].crossings):
                    raise NonGenericGeometry("path crosses wall %d where it crosses a weave "
                                             "line, at %r" % (sid, exact_point(pt)))
                points = [prev] + corners[prev_idx + 1: param[0] + 1] + [pt]
            word = engine.cap_word(points[-1])
            loop = [(cut, -side) for cut, side in reversed(prev_word)]
            loop += [(cut, side) for _, cut, _, _, side in between(slits, prev_param, param)] + word
            part = (tuple((letter, side) for _, letter, side in between(events, prev_param, param)),
                    freely_reduced(loop))
            yield points, part, crossing, word
            if crossing is not None:
                prev, prev_idx, prev_param, prev_word = pt, param[0], param, word

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

    def soliton_coefficient(self, sid: int, param: Param, word: list) -> LaurentPoly:
        """Signed soliton value of wall ``sid`` at ``param``, ``word`` the ``cap_word`` there."""
        return LaurentPoly.monomial(self.gens, self.engine.wall_class(sid, param, word),
                                    self.stokes_sign(sid, param))

    def transport_short(self, sid: int, param: Param, side: int):
        """Unipotent Stokes matrix for crossing wall ``sid`` at ``param``.

        ``side`` is the sign of (wall tangent) x (path tangent); crossing
        from the other side gives the inverse matrix.
        """
        strand = self.builder.strands[sid]
        (i, j), word = strand.label_at(param), self.engine.cap_word(interp(strand.path, param))
        out = self.identity()
        out[i - 1][j - 1] += self.soliton_coefficient(sid, param, word) * side
        return out

    # ----- paths -----
    def transport_path(self, poly: Sequence[Point]) -> List[List[LaurentPoly]]:
        """Transport along a polyline path avoiding all network vertices,
        by row operations on the sub-paths between its wall crossings, the
        cap sheets read at its start (``cap_sheets``) and carried from one
        sub-path to the next (see the module docstring)."""
        path = prepare(poly)
        zero = (0,) * len(self.gens)
        # row r is (scale, sign, terms): sign * x^scale times one {exponents:
        # coefficient} dict per column
        rows = [(zero, 1, [{zero: 1} if c == r else {} for c in range(self.n)])
                for r in range(self.n)]
        sheets = self.engine.cap_sheets(path.ends[0])
        for _, part, crossing, word in self._sub_paths(path, self.builder.walls.crossings(path)):
            factor, sheets = self._free_factor(part, sheets)
            out = [None] * self.n
            for (scale, sign, terms), (sheet, cls, s) in zip(rows, factor):
                out[sheet - 1] = tuple(map(add, scale, cls)), sign * s, terms
            rows = out
            if crossing is not None:
                _, sid, pb, _, side = crossing
                i, j = self.builder.strands[sid].label_at(pb)
                mono, c = self.engine.wall_class(sid, pb, word), self.stokes_sign(sid, pb)
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
    def branch_monodromy(self, vertex_id: int) -> List[List[LaurentPoly]]:
        return self.transport_path(self.engine.loop(self.builder.weave.vertices[vertex_id].point))

    def joint_monodromy(self, joint: dict) -> List[List[LaurentPoly]]:
        return self.transport_path(self.engine.loop(tuple(joint["point"])))


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
        if not _folds(path[-2:] + [q]) and not on_a_segment(lines, q):
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
            if not on_a_segment(lines, q):
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
        if _folds(other[max(k - 2, 0): k] + [q] + other[k + 1: k + 3]) or on_a_segment(lines, q):
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
    classes, walked off the engine's letter table (``arc_soliton``).
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
