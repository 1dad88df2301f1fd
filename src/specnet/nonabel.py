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

The local sign conventions are pinned by requiring transport around every
branch point and every creation joint to be the identity: the Stokes
coefficient of a seed wall is the plain monomial of its detour class based
at the crossing point, and a child wall inherits the product of its
parents' signs times the handedness of the parent tangents at the joint.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence

from .forest import ForestBuilder, build_forest_strands
from .geometry import NonGenericGeometry, Param, Point, walk_sheets
from .laurent import LaurentPoly
from .soliton_bps import LiftedPiece, SolitonCatalog


def _monomial(gens, cyc, arc, coeff=1) -> LaurentPoly:
    return LaurentPoly.monomial(gens, tuple(cyc) + tuple(arc), coeff)


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
        self._wall_sign_cache: Dict[int, int] = {}

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
        one = LaurentPoly.constant(self.gens, 1)
        return all(m[i][j] == (one if i == j else LaurentPoly.zero(self.gens))
                   for i in range(self.n) for j in range(self.n))

    def _chain_monomial(self, pieces, coeff=1) -> LaurentPoly:
        cyc, arc = self.engine.class_of_chain(pieces)
        return _monomial(self.gens, cyc, arc, coeff)

    # ----- elementary matrices -----
    def transport_free(self, poly: Sequence[Point]) -> List[List[LaurentPoly]]:
        """Transport along a sub-path crossing no walls.

        The matrix is permutation-diagonal: sheet s flows to the sheet
        obtained by conjugating through the crossed weave lines, with entry
        the capped-lift holonomy times the twisting signs.
        """
        path = LiftedPiece(poly, 1, self.builder.events_along(poly), 1)
        zero = LaurentPoly.zero(self.gens)
        out = [[zero for _ in range(self.n)] for _ in range(self.n)]
        for start in range(1, self.n + 1):
            (sheet,), sign = walk_sheets((start,), path.events)
            chain = [path.relift(start, 1),
                     self.engine.cap(tuple(poly[0]), start, -1),
                     self.engine.cap(tuple(poly[-1]), sheet, 1)]
            out[sheet - 1][start - 1] = self._chain_monomial(chain, sign)
        return out

    def wall_sign(self, sid: int) -> int:
        """Sign of the wall's Stokes coefficient.

        A seed wall carries +1; a wall created at a joint carries the
        product of its parents' signs times the handedness of the parent
        tangents there (+1 when the ij-parent crosses the jk-parent
        positively).  These are the unique values making transport around
        every branch point and every joint the identity.
        """
        if sid not in self._wall_sign_cache:
            strand = self.builder.strands[sid]
            if strand.origin[0] == "branch":
                value = 1
            else:
                joint = self.builder.born_at[sid]
                value = 1 if joint["twist"] else -1
                for pid in joint["parents"]:
                    value *= self.wall_sign(pid)
                    value *= self._twist_at(pid, joint["params"][pid])
            self._wall_sign_cache[sid] = value
        return self._wall_sign_cache[sid]

    def _twist_at(self, sid: int, param: Param) -> int:
        """Twisting sign the wall acquires at its own weave-line crossings
        before ``param``: each crossing twists both label sheets by the same
        rule a path crossing does."""
        strand = self.builder.strands[sid]
        return walk_sheets(strand.start_label, strand.crossings, param)[1]

    def soliton_coefficient(self, sid: int, param: Param) -> LaurentPoly:
        """Signed soliton value of wall ``sid`` based at ``param``."""
        cyc, arc = self.engine.class_of_chain(self.engine.tree_chain(sid, root_param=param))
        sign = self.wall_sign(sid) * self._twist_at(sid, param)
        return _monomial(self.gens, cyc, arc, sign)

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
        """Transport along a polyline path avoiding all network vertices."""
        poly = [tuple(p) for p in poly]
        total = self.identity()
        prev_pt = poly[0]
        prev_idx = 0
        for pa, sid, pb, pt, side in self.builder.walls.crossings(poly):
            sub = [prev_pt] + poly[prev_idx + 1: pa[0] + 1] + [pt]
            sub = _dedupe(sub)
            if len(sub) > 1:
                total = self.matmul(self.transport_free(sub), total)
            total = self.matmul(self.transport_short(sid, pb, side), total)
            prev_pt, prev_idx = pt, pa[0]
        sub = _dedupe([prev_pt] + poly[prev_idx + 1:])
        if len(sub) > 1:
            total = self.matmul(self.transport_free(sub), total)
        return total

    # ----- monodromy loops -----
    def loop_around(self, center: Point, radius: Fraction,
                    jitter: Fraction) -> List[Point]:
        """A small closed quadrilateral around a point, corners jittered so
        they avoid walls and weave lines."""
        cx, cy = center
        r = radius
        e = radius * jitter
        return [(cx + r, cy + e), (cx + e, cy + r), (cx - r, cy + 2 * e),
                (cx - 2 * e, cy - r), (cx + r, cy + e)]

    def clearance(self, center: Point) -> Fraction:
        """Min distance from ``center`` to all segments not through it."""
        best = None
        polys = [seg.points for seg in self.builder.obstacles]
        polys += [s.polyline for s in self.builder.strands]
        for pts in polys:
            for a, b in zip(pts, pts[1:]):
                d = _seg_distance2(center, a, b)
                if d == 0:
                    continue
                if best is None or d < best:
                    best = d
        if best is None:
            raise NonGenericGeometry("no features near %r" % (center,))
        return _rational_sqrt_floor(best)

    def branch_monodromy(self, vertex_id: int) -> List[List[LaurentPoly]]:
        vertex = self.builder.weave.vertices[vertex_id]
        return self._loop_transport(vertex.point)

    def joint_monodromy(self, joint: dict) -> List[List[LaurentPoly]]:
        return self._loop_transport(tuple(joint["point"]))

    def _loop_transport(self, center: Point) -> List[List[LaurentPoly]]:
        radius = self.clearance(center) / 2
        last = None
        for k in range(5):
            loop = self.loop_around(center, radius,
                                    Fraction(1, 313 + 52 * k))
            try:
                return self.transport_path(loop)
            except NonGenericGeometry as err:
                last = err
        raise NonGenericGeometry("loop around %r stayed degenerate: %s"
                                 % (center, last))


def _dedupe(points):
    out = [points[0]]
    for p in points[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _seg_distance2(p: Point, a: Point, b: Point) -> Fraction:
    """Squared distance from point to segment, exact."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return (px - ax) ** 2 + (py - ay) ** 2
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = max(Fraction(0), min(Fraction(1), t))
    qx, qy = ax + t * dx, ay + t * dy
    return (px - qx) ** 2 + (py - qy) ** 2


def _rational_sqrt_floor(d2: Fraction) -> Fraction:
    """A positive rational lower bound for sqrt(d2)."""
    import math

    lo = Fraction(math.isqrt(d2.numerator * d2.denominator), d2.denominator)
    if lo == 0:
        lo = d2  # d2 < 1, and sqrt(x) > x on (0, 1)
    return lo


# ----- homotopic path pairs -----

def _winding(loop: Sequence[Point], pt: Point) -> int:
    """Winding number of a closed polyline around a point, exact."""
    px, py = pt
    total = 0
    for (ax, ay), (bx, by) in zip(loop, loop[1:]):
        if ay == py or by == py:
            if (ay == py and ax == px) or (by == py and bx == px):
                raise NonGenericGeometry("winding query through a vertex")
            # nudge the ray by treating boundary heights as just below
            ay = ay if ay != py else ay - Fraction(1, 10 ** 9)
            by = by if by != py else by - Fraction(1, 10 ** 9)
        if (ay < py) == (by < py):
            continue
        t = (py - ay) / (by - ay)
        x = ax + t * (bx - ax)
        if x == px:
            raise NonGenericGeometry("winding query on the loop")
        if x > px:
            total += 1 if by > ay else -1
    return total


def network_punctures(builder: ForestBuilder) -> List[Point]:
    """Points a path homotopy must not sweep across: all weave vertices and
    joints, every free end of a weave line or wall, and the marked point."""
    pts = [v.point for v in builder.weave.vertices]
    pts += [tuple(j["point"]) for j in builder.joints]
    for seg in builder.obstacles:
        pts += [tuple(seg.points[0]), tuple(seg.points[-1])]
    for strand in builder.strands:
        pts += [tuple(strand.polyline[0]), tuple(strand.polyline[-1])]
    pts.append((builder.bent.marked_x, Fraction(0)))
    out = []
    for p in pts:
        if p not in out:
            out.append(p)
    return out


def homotopic_pair(transport: Transport, rng: random.Random):
    """Two random polyline paths with the same endpoints that are homotopic
    in the complement of the network's punctures.

    The first path has 3 interior vertices.  The second is produced from it
    by 6 vertex insertions or vertex moves, each move's swept quadrilateral
    having winding number zero around every puncture, so equality of the
    two transport matrices is forced.
    """
    interior, moves = 3, 6
    builder = transport.builder
    punctures = network_punctures(builder)
    # keep the paths inside the band where the homology engine's test curves
    # separate classes: left of the marked point and below the weave top
    engine = transport.engine
    xs = [p[0] for p in punctures]
    lo = (max(min(xs) - 1, Fraction(1, 2)), engine.y_deep + Fraction(1, 2))
    hi = (engine.x_max, Fraction(-1, 64))

    def rand_point():
        den = 997
        return (lo[0] + (hi[0] - lo[0]) * Fraction(rng.randint(1, den - 1), den),
                lo[1] + (hi[1] - lo[1]) * Fraction(rng.randint(1, den - 1), den))

    path = [rand_point() for _ in range(interior + 2)]
    other = list(path)
    done = 0
    attempts = 0
    while done < moves:
        attempts += 1
        if attempts > 200 * moves:
            raise NonGenericGeometry("homotopy moves kept sweeping punctures")
        if rng.random() < 0.3:
            k = rng.randrange(len(other) - 1)
            t = Fraction(rng.randint(1, 996), 997)
            a, b = other[k], other[k + 1]
            other.insert(k + 1, (a[0] + t * (b[0] - a[0]),
                                 a[1] + t * (b[1] - a[1])))
            done += 1
            continue
        k = rng.randrange(1, len(other) - 1)
        q = rand_point()
        quad = [other[k - 1], other[k], other[k + 1], q, other[k - 1]]
        try:
            if any(_winding(quad, p) for p in punctures):
                continue
        except NonGenericGeometry:
            continue
        other[k] = q
        done += 1
    return path, other


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
        matrix = transport.engine.matrix
        units = []
        for _row in matrix:
            num = rng.randint(1, 5) * rng.choice([1, -1])
            den = rng.randint(1, 5)
            units.append(Fraction(num, den))
        values = {}
        for col, name in enumerate(transport.gens):
            value = Fraction(1)
            for row, unit in zip(matrix, units):
                if row[col]:
                    value *= unit ** int(row[col])
            values[name] = value
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
