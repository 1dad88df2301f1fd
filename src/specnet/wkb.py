"""Numerically traced spectral networks for polynomial spectral curves.

A curve P(z, w) = 0, monic of degree n in w, defines an n-sheeted branched
cover of the z-plane.  At a phase theta, walls are the trajectories solving
Im(e^{-i theta} (lambda_i - lambda_j) dz) = 0 with growing mass |Z|,
Z = int (lambda_i - lambda_j) dz.  Integration happens in the flat charge
coordinate: each step advances Z by a real increment along the e^{i theta}
ray (so the defining equation holds to machine precision by construction)
and solves for z with a midpoint corrector on dz/dZ = 1/(lambda_i-lambda_j).
Sheets are tracked as root values continued by Newton steps from the
previous sample, recovered by the module's root finder (Aberth-Ehrlich
iteration) and nearest matching where Newton does not converge or passes
too close to another sheet; no global branch-cut system is constructed.
Everything runs on Python floats and complex numbers.

Simple branch points emit three walls along directions spaced 2 pi / 3;
crossings of composable walls become creation joints seeding an (ik) wall
with Z_ik = Z_ij + Z_jk, iterated until every joint's newborn mass exceeds
the cutoff.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .laurent import discriminant, parse_laurent
from .network import SpectralNetwork

TWO_PI = 2 * math.pi
# curve size limits: sheets, and the degree (2n - 2) * deg_z that bounds the
# discriminant (and its count of Sylvester determinants)
MAX_SHEETS = 16
MAX_DISC_DEGREE = 256
# extension rounds a trace may run before the gapped guard gives up
MAX_ROUNDS = 12


class CurveError(ValueError):
    """The polynomial does not define a usable spectral curve."""


class NonGenericPhase(RuntimeError):
    """A wall hit a branch point or a degenerate crossing; perturb theta.

    The standard remedy is theta + 1e-3.
    """


class RootCollision(RuntimeError):
    """Sheet tracking lost: step too large relative to root separation."""


class GappedGuardError(RuntimeError):
    """Extension rounds kept producing joints without mass growth."""


# ----- curve -----

class SpectralCurve:
    """A bivariate polynomial P(z, w), monic of degree >= 2 in w."""

    def __init__(self, text: str):
        try:
            poly = parse_laurent(text, ring=Fraction)
        except ValueError as err:
            raise CurveError("cannot read curve %r: %s" % (text, err))
        base = [name for k, name in enumerate(poly.gens)
                if name != "w" and any(mon[k] for mon in poly.terms)]
        if len(base) > 1:
            raise CurveError("curve must involve w and one base variable, "
                             "got %s" % ", ".join(base))
        terms = {}  # (w power, z power) -> coefficient
        for mon, c in poly.terms.items():
            powers = dict(zip(poly.gens, mon))
            terms[powers.pop("w", 0), sum(powers.values())] = Fraction(c)
        if any(min(key) < 0 for key in terms):
            raise CurveError("curve %r is not a polynomial" % text)
        self.n = max((i for i, _ in terms), default=-1)
        if any(i == self.n and j for i, j in terms):
            raise CurveError("leading w-coefficient must be constant")
        if self.n < 2:
            raise CurveError("degree in w must be >= 2")
        deg_z = max(j for _, j in terms)
        if self.n > MAX_SHEETS or (2 * self.n - 2) * deg_z > MAX_DISC_DEGREE:
            raise CurveError("curve too large: %d sheets and z-degree %d (limits: %d sheets, "
                             "(2n-2)*deg_z <= %d)" % (self.n, deg_z, MAX_SHEETS, MAX_DISC_DEGREE))
        lead = terms[self.n, 0]
        # z-polynomial coefficients per w-power, both descending
        rows = [[0] * (1 + max((j for i, j in terms if i == k), default=0))
                for k in range(self.n, -1, -1)]
        for (i, j), c in terms.items():
            rows[self.n - i][-1 - j] = c / lead
        self._rows = [_floats(row, text, "P") for row in rows]
        # a one-entry row does not vary with z: at a finite z Horner gives
        # 0j * z + c, which is c itself, so only the other rows are evaluated
        self._heads = [row[0] for row in self._rows]
        self._varying = [(k, row) for k, row in enumerate(self._rows) if len(row) > 1]
        # the w-discriminant's z-coefficients, descending, exact
        self.disc = discriminant(rows)
        if not any(self.disc):
            raise CurveError("discriminant vanishes identically")
        _floats(self.disc, text, "its discriminant")  # as branch_points reads it

    def roots_at(self, z: complex) -> List[complex]:
        """All n sheet values over z, in the root finder's order."""
        return poly_roots(self.coeffs_at(z))

    def coeffs_at(self, z: complex) -> List[complex]:
        """The w-coefficients of P(z, .) over z, descending, by Horner.  At
        an infinite or nan z every row is evaluated, and gives nan."""
        out = self._heads[:]
        for k, poly in self._varying if cmath.isfinite(z) else enumerate(self._rows):
            acc = 0j
            for c in poly:
                acc = acc * z + c
            out[k] = acc
        return out


def _floats(coeffs, text: str, what: str) -> List[complex]:
    """Exact coefficients as complex numbers.  The tracer computes in
    floats, so a nonzero coefficient that overflows a float or rounds to
    zero raises CurveError."""
    out = []
    for c in coeffs:
        try:
            f = complex(c)
        except OverflowError:
            f = 0j  # no float holds it, as none holds one that rounds to zero
        if c and not f:
            raise CurveError("curve %r: a coefficient of %s is out of float range"
                             % (text, what))
        out.append(f)
    return out


# ----- polynomial roots -----

EPS = 2.0 ** -52
ABERTH_SWEEPS = 100  # a bound only: random polynomials of degree <= 16 need 5 to 8
POLISH_STEPS = 3


def poly_roots(coeffs: List[complex]) -> List[complex]:
    """All roots, with multiplicity, of the polynomial whose coefficients,
    descending, are ``coeffs``; the first must be nonzero.

    Trailing zero coefficients give exact roots at 0.  The others come from
    Aberth-Ehrlich iteration (Aberth 1973) started on circles whose radii
    the coefficients' Newton polygon gives (Bini 1996), so roots of very
    different sizes each get starting points near them; a root stops
    moving once |p| there is within 4 m EPS of its rounding bound.  Newton
    steps then polish each root while |p| falls.
    """
    n = len(coeffs) - 1
    zeros = 0
    while zeros < n and coeffs[n - zeros] == 0:
        zeros += 1
    a = list(coeffs[:n + 1 - zeros])
    m = n - zeros
    if m == 0:
        return [0j] * zeros
    tol = 4 * m * EPS
    roots = _start_points(a)
    live = range(m)
    for _ in range(ABERTH_SWEEPS):
        moving = []
        for k in live:
            w = roots[k]
            num, den, residual = _newton_terms(a, w)
            if residual <= tol:
                continue
            repel = 0j
            for j in range(m):
                if j != k and w != roots[j]:
                    repel += 1 / (w - roots[j])
            den -= num * repel
            if den != 0:
                roots[k] = w - num / den
            moving.append(k)
        if not moving:
            break
        live = moving
    for k in range(m):
        w = roots[k]
        num, den, residual = _newton_terms(a, w)
        for _ in range(POLISH_STEPS):
            if residual == 0 or den == 0:
                break
            v = w - num / den
            num, den, lower = _newton_terms(a, v)
            if lower >= residual:
                break
            w, residual = v, lower
        roots[k] = w
    return roots + [0j] * zeros


def _start_points(a: List[complex]) -> List[complex]:
    """Aberth's starting points for the coefficients a, descending: each
    edge of the upper convex hull of the points (k, log |coefficient of
    w^k|) spans as many points as its length, on the circle of radius
    e^(-slope)."""
    m = len(a) - 1
    hull: List[Tuple[int, float]] = []
    for k in range(m + 1):
        if a[m - k] == 0:
            continue
        point = (k, math.log(abs(a[m - k])))
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0])):
            hull.pop()
        hull.append(point)
    starts = []
    for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
        radius = math.exp((log_i - log_j) / (j - i))
        # the 0.3 turn keeps the starts off the real axis's mirror symmetry; through
        # rounding it also picks the numbering that initial_rays leaves open
        starts += [radius * cmath.exp(1j * (TWO_PI * (s / (j - i) + i / m) + 0.3))
                   for s in range(j - i)]
    return starts


def _newton_terms(a: List[complex], w: complex) -> Tuple[complex, complex, float]:
    """The Newton step p(w)/p'(w) as (numerator, denominator), and |p(w)|
    over its rounding bound sum |a_k| |w|^(m-k).  For |w| > 1 the reversed
    polynomial is evaluated at 1/w, so no power of w can overflow."""
    if abs(w) <= 1:
        x, coeffs = w, a
    else:
        x, coeffs = 1 / w, a[::-1]
    p, dp, bound = 0j, 0j, 0.0
    r = abs(x)
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
        bound = bound * r + abs(c)
    if x is w:
        return p, dp, abs(p) / bound
    # p(w) = w^m q(1/w) with q the reversed polynomial
    return w * p, (len(a) - 1) * p - x * dp, abs(p) / bound


def branch_points(curve: SpectralCurve) -> List[complex]:
    """Roots of the w-discriminant, Newton-polished, in (real, imag) order.

    Each must be simple: a single root of the discriminant where exactly
    one pair of sheets collides.  The first that is not raises CurveError.
    """
    # cluster multiple roots: a root of multiplicity k is only accurate to
    # about EPS^(1/k) of its size, so the 1e-6 relative of the sheet test
    # below; relative to each root, as the discriminant's roots can differ
    # in size by orders of magnitude
    clusters: List[List[complex]] = []
    for r in sorted(poly_roots([complex(c) for c in curve.disc]),
                    key=lambda c: (c.real, c.imag)):
        if clusters and abs(r - clusters[-1][-1]) < 1e-6 * (1 + abs(r)):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    result = []
    for cluster in clusters:
        z = sum(cluster) / len(cluster)
        sheets = curve.roots_at(z)
        top = max(abs(w) for w in sheets)
        close = sum(1 for i in range(len(sheets)) for j in range(i + 1, len(sheets))
                    if abs(sheets[i] - sheets[j]) < 1e-6 * (1 + top))
        if len(cluster) > 1 or close != 1:
            raise CurveError("non-simple branch point at z=%s" % z)
        result.append(z)
    return result


# ----- sheet tracking -----

NEWTON_STEPS = 8  # per sheet; a sheet not converged by then goes to poly_roots
# Converged when the last step is below NEWTON_TOL (1 + |w|): the error left
# after a step d is about d^2 |P''/2P'|, below rounding while sheets are apart.
NEWTON_TOL = 1e-11


def sheets_at(curve: SpectralCurve, z: complex, seed: List[complex]) -> List[complex]:
    """Sheet values over z, in the order of the seed's values, as a list of
    Python complex (the seed is one too).

    Each seed value is continued by Newton steps on P(z, .).  The result
    stands when every sheet converged within NEWTON_STEPS and passes the
    collision test: the largest seed-to-root move is below half the
    smallest root separation.  The n roots are then distinct and each is
    strictly nearest its own seed, so nearest matching would pick the same
    order.  Otherwise the sheets are recovered by ``_nearest_roots``
    (``poly_roots`` and greedy nearest matching), which raises
    RootCollision when the same test fails there.

    Two and three sheets run ``_sheets_2`` and ``_sheets_3``, the loop of
    ``_sheets_newton`` with its Horner evaluation written out; they give
    the same bits.
    """
    return _SHEET_KERNELS.get(len(seed), _sheets_newton)(curve, complex(z), seed)


def _sheets_newton(curve: SpectralCurve, z: complex, seed: List[complex]) -> List[complex]:
    """``sheets_at`` for any number of sheets."""
    lead, *rest = curve.coeffs_at(z)
    roots = []
    worst = 0.0
    for s in seed:
        w = s
        for _ in range(NEWTON_STEPS):
            p, dp = lead, 0j
            for c in rest:
                dp = dp * w + p
                p = p * w + c
            if dp == 0:
                return _nearest_roots(curve, z, seed)
            step = p / dp
            w -= step
            if abs(step) <= NEWTON_TOL * (1 + abs(w)):
                break
        else:
            return _nearest_roots(curve, z, seed)
        roots.append(w)
        d = abs(w - s)
        if d > worst:
            worst = d
    if worst < 0.5 * _closest_pair(roots)[0]:
        return roots
    return _nearest_roots(curve, z, seed)


# The kernels start P' at the leading coefficient a where the loop starts it
# at 0j * w + a.  a is 1 + 0j at a finite z (NaN in both at any other), so
# the two are the same bits for finite w; a non-finite w makes P NaN in
# both, and both end in _nearest_roots.

def _sheets_2(curve: SpectralCurve, z: complex, seed: List[complex]) -> List[complex]:
    """``_sheets_newton`` for two sheets."""
    a, b, c = curve.coeffs_at(z)
    roots = []
    worst = 0.0
    for s in seed:
        w = s
        for _ in range(NEWTON_STEPS):
            t = a * w
            p = t + b
            dp = t + p
            p = p * w + c
            if dp == 0:
                return _nearest_roots(curve, z, seed)
            step = p / dp
            w -= step
            if abs(step) <= NEWTON_TOL * (1 + abs(w)):
                break
        else:
            return _nearest_roots(curve, z, seed)
        roots.append(w)
        d = abs(w - s)
        if d > worst:
            worst = d
    if worst < 0.5 * abs(roots[0] - roots[1]):
        return roots
    return _nearest_roots(curve, z, seed)


def _sheets_3(curve: SpectralCurve, z: complex, seed: List[complex]) -> List[complex]:
    """``_sheets_newton`` for three sheets."""
    a, b, c, e = curve.coeffs_at(z)
    roots = []
    worst = 0.0
    for s in seed:
        w = s
        for _ in range(NEWTON_STEPS):
            t = a * w
            p = t + b
            dp = t + p
            p = p * w + c
            dp = dp * w + p
            p = p * w + e
            if dp == 0:
                return _nearest_roots(curve, z, seed)
            step = p / dp
            w -= step
            if abs(step) <= NEWTON_TOL * (1 + abs(w)):
                break
        else:
            return _nearest_roots(curve, z, seed)
        roots.append(w)
        d = abs(w - s)
        if d > worst:
            worst = d
    w0, w1, w2 = roots
    sep = abs(w0 - w1)
    d = abs(w0 - w2)
    if d < sep:
        sep = d
    d = abs(w1 - w2)
    if d < sep:
        sep = d
    if worst < 0.5 * sep:
        return roots
    return _nearest_roots(curve, z, seed)


_SHEET_KERNELS = {2: _sheets_2, 3: _sheets_3}


def _closest_pair(vals) -> Tuple[float, int, int]:
    """(distance, i, j) of the two nearest values, i < j: the least (i, j)
    at the least distance, by strict ``<`` from (inf, 0, 1), so a NaN
    distance is never taken and (inf, 0, 1) stands where none is finite."""
    best = math.inf, 0, 1
    for i, w in enumerate(vals):
        for j in range(i + 1, len(vals)):
            d = abs(w - vals[j])
            if d < best[0]:
                best = d, i, j
    return best


def _nearest_roots(curve: SpectralCurve, z: complex, seed: List[complex]) -> List[complex]:
    """Sheet values over z from ``poly_roots``, in the seed's order by
    greedy nearest matching, with the collision test of ``sheets_at``."""
    roots = curve.roots_at(z)
    n = len(roots)
    pairs = sorted((abs(seed[i] - roots[j]), i, j)
                   for i in range(n) for j in range(n))
    assign: Dict[int, int] = {}
    used = set()
    worst = 0.0
    for d, i, j in pairs:
        if i in assign or j in used:
            continue
        assign[i] = j
        used.add(j)
        worst = max(worst, d)
    sep = _closest_pair(roots)[0]
    if worst > 0.5 * sep:
        raise RootCollision("root move %.3g vs separation %.3g at z=%s"
                            % (worst, sep, z))
    return [roots[assign[i]] for i in range(n)]


# ----- walls -----

@dataclass
class TracedWall:
    """A wall from its first sample on: ``initial_rays`` and
    ``_classify_crossing`` give the one-sample wall, ``build_wkb_network``
    numbers it and ``trace_wall`` extends it."""
    pair: Tuple[int, int]  # indices (i, j) into each row of vals; the charge uses i - j
    points: List[complex]
    charges: List[complex]
    vals: List[List[complex]]  # row k: the sheet values at sample k
    origin: tuple  # ("bp", branch point z) | ("joint", (ij wall id, jk wall id))
    id: int = -1
    asymptote: str = ""  # "radius" | "cutoff" once traced

    def pair_values_at(self, index: int, frac: float,
                       curve: SpectralCurve) -> Tuple[complex, complex, List[complex]]:
        """Sheet-pair values at a point interpolated inside segment ``index``."""
        z = self.points[index] * (1 - frac) + self.points[index + 1] * frac
        vals = sheets_at(curve, z, self.vals[index])
        i, j = self.pair
        return vals[i], vals[j], vals

    def charge_at(self, index: int, frac: float) -> complex:
        return self.charges[index] * (1 - frac) + self.charges[index + 1] * frac


def _local_coefficient(curve: SpectralCurve, b: complex) -> complex:
    """Leading Puiseux coefficient c with lambda_+/- ~ lambda_0 +/- c sqrt(z-b),
    read off at the probe point b + 1e-5, up to its sign."""
    probe = 1e-5
    sheets = curve.roots_at(b)
    _, i0, j0 = _closest_pair(sheets)
    center = (sheets[i0] + sheets[j0]) / 2
    z = b + probe
    roots = sorted(curve.roots_at(z), key=lambda r: abs(r - center))
    return (roots[0] - roots[1]) / (2 * math.sqrt(probe))


C_TURN = 0.1  # the angle of the edge of initial_rays' half-plane for c


def initial_rays(curve: SpectralCurve, b: complex, theta: float) -> List[TracedWall]:
    """Three outward one-sample walls at a simple branch point.

    Near b the two colliding sheets differ by 2c (z-b)^{1/2}, so
    Z = (4c/3)(z-b)^{3/2}; walls leave along the three directions where
    e^{-i theta} Z is real, phi_k = (2/3)(theta - arg(4c/3)) + 2 pi k / 3.
    Each starts 1e-7 from b along its direction.  c and -c describe
    the same two sheets but number the rays differently, so the sign is
    fixed by a rule: Re(c e^{-i C_TURN}) < 0.  Real curves put c on an
    axis, so the rule's edge is turned off both.  Where c lies on the
    negative real axis (a real curve whose colliding sheets are real past
    b, as at the Airy curve's z = 0 and the cubic's z = -2), the sign of
    c's rounding error still picks the branch of arg c, and with it the
    numbering; the recorded exports fix the numbering ``poly_roots`` gives.
    """
    offset = 1e-7
    c = _local_coefficient(curve, b)
    if (c * cmath.exp(-1j * C_TURN)).real >= 0:
        c = -c
    big_c = 4 * c / 3
    phi0 = (2.0 / 3.0) * (theta - cmath.phase(big_c))
    walls = []
    for k in range(3):
        phi = phi0 + TWO_PI * k / 3
        z0 = b + offset * cmath.exp(1j * phi)
        vals = curve.roots_at(z0)
        # colliding pair: the two roots nearest each other
        _, i0, j0 = _closest_pair(vals)
        # order the pair so the step direction points outward
        direction = cmath.exp(1j * theta) / (vals[i0] - vals[j0])
        if (direction.real * math.cos(phi) + direction.imag * math.sin(phi)) < 0:
            i0, j0 = j0, i0
        mass0 = abs(big_c) * offset ** 1.5
        walls.append(TracedWall((i0, j0), [z0], [mass0 * cmath.exp(1j * theta)], [vals],
                                ("bp", b)))
    return walls


def trace_wall(curve: SpectralCurve, wall: TracedWall, theta: float,
               mass_cutoff: float, radius: float) -> TracedWall:
    """Extend the wall in place until it reaches the domain radius or the
    mass cutoff, and return it.

    Steps advance Z by ds along e^{i theta}; z follows via a midpoint
    corrector on 1/(lambda_i - lambda_j), with the step halved whenever root
    tracking reports a collision risk and a cap on |dz|.  Sheet values
    travel as lists of Python complex.
    """
    ds_max = 1e-3 * mass_cutoff
    ds_min = ds_max * 1e-10
    dz_max = radius / 50.0
    phase = cmath.exp(1j * theta)
    z, Z, vals = wall.points[-1], wall.charges[-1], wall.vals[-1]
    i, j = wall.pair
    ds = min(ds_max, max(abs(Z) * 0.5, ds_max * 1e-6))
    while True:
        if abs(Z) >= mass_cutoff:
            wall.asymptote = "cutoff"
            return wall
        if abs(z) >= radius:
            wall.asymptote = "radius"
            return wall
        d0 = vals[i] - vals[j]
        if d0 == 0:
            raise NonGenericPhase("wall %d hit a branch point at z=%s; "
                                  "try theta + 1e-3" % (wall.id, z))
        dZ = phase * ds
        try:
            dz0 = _divide(dZ, d0)
            if abs(dz0) > dz_max:
                raise RootCollision("step cap")
            z_mid = z + dz0 / 2
            vals_mid = sheets_at(curve, z_mid, vals)
            dm = vals_mid[i] - vals_mid[j]
            if dm == 0:
                raise NonGenericPhase("wall %d hit a branch point near z=%s; "
                                      "try theta + 1e-3" % (wall.id, z_mid))
            dz = _divide(dZ, dm)
            if abs(dz) > dz_max:
                raise RootCollision("step cap")
            z_new = z + dz
            vals_new = sheets_at(curve, z_new, vals_mid)
        except RootCollision:
            ds /= 2
            if ds < ds_min:
                raise NonGenericPhase(
                    "step underflow near z=%s (wall %d close to a branch "
                    "point); try theta + 1e-3" % (z, wall.id))
            continue
        z, vals = z_new, vals_new
        Z = Z + phase * ds
        wall.points.append(z)
        wall.charges.append(Z)
        wall.vals.append(vals)
        ds = min(ds * 1.5, ds_max)


def _divide(a: complex, b: complex) -> complex:
    """a / b for b != 0 by Smith's algorithm (Smith 1962), scaled by the
    reciprocal of the divisor's reduced norm.  Python's ``/`` divides by
    that norm instead and rounds otherwise; the recorded wall exports were
    fixed with this rounding."""
    if abs(b.real) >= abs(b.imag):
        ratio = b.imag / b.real
        scale = 1.0 / (b.real + b.imag * ratio)
        return complex((a.real + a.imag * ratio) * scale, (a.imag - a.real * ratio) * scale)
    ratio = b.real / b.imag
    scale = 1.0 / (b.imag + b.real * ratio)
    return complex((a.real * ratio + a.imag) * scale, (a.imag * ratio - a.real) * scale)


# ----- joint detection -----

BLOCK = 64  # consecutive segments per block of the joint search's box test


# the box of a segment with a NaN end: it meets no finite box and leaves its
# block's box to the other segments
EMPTY_BOX = (math.inf, -math.inf, math.inf, -math.inf)


def _wall_boxes(points) -> tuple:
    """A polyline as ``_segment_intersections`` reads it: (points, segment
    boxes, block boxes).  A box is (lo x, hi x, lo y, hi y); block k bounds
    segments k*BLOCK to (k+1)*BLOCK - 1."""
    points = list(points)
    segs = []
    for p, q in zip(points, points[1:]):
        lo_x, hi_x = (p.real, q.real) if p.real <= q.real else (q.real, p.real)
        lo_y, hi_y = (p.imag, q.imag) if p.imag <= q.imag else (q.imag, p.imag)
        # once ordered, lo <= hi fails only where an end is NaN
        segs.append((lo_x, hi_x, lo_y, hi_y) if lo_x <= hi_x and lo_y <= hi_y
                    else EMPTY_BOX)
    blocks = []
    for k in range(0, len(segs), BLOCK):
        lo_x, hi_x, lo_y, hi_y = zip(*segs[k:k + BLOCK])
        blocks.append((min(lo_x), max(hi_x), min(lo_y), max(hi_y)))
    return points, segs, blocks


def _meets(a: tuple, b: tuple) -> bool:
    """Whether two closed boxes meet."""
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def _segment_intersections(a: tuple, b: tuple):
    """Transversal intersections of two polylines given by ``_wall_boxes``.

    Yields (ia, ta, ib, tb, z) with segment indices and local parameters,
    in row-major (ia, ib) order.  Block boxes first, then for each segment
    of a block the boxes of the blocks that meet it and of their segments,
    then exact 2x2 solves.
    """
    pa, seg_a, block_a = a
    pb, seg_b, block_b = b
    for ka, box in enumerate(block_a):
        near = [(kb, other) for kb, other in enumerate(block_b) if _meets(box, other)]
        for ia in range(ka * BLOCK, min((ka + 1) * BLOCK, len(seg_a))):
            box_a = seg_a[ia]
            for kb, other in near:
                if not _meets(box_a, other):
                    continue
                for ib in range(kb * BLOCK, min((kb + 1) * BLOCK, len(seg_b))):
                    if not _meets(box_a, seg_b[ib]):
                        continue
                    p, r = pa[ia], pa[ia + 1] - pa[ia]
                    q, s = pb[ib], pb[ib + 1] - pb[ib]
                    denom = (r * s.conjugate()).imag
                    if denom == 0:
                        continue
                    d = q - p
                    t = (d * s.conjugate()).imag / denom
                    u = (d * r.conjugate()).imag / denom
                    if 0 <= t <= 1 and 0 <= u <= 1:
                        yield ia, t, ib, u, p + t * r


@dataclass
class Joint:
    id: int
    z: complex
    parents: Tuple[int, int]  # wall ids (ij, jk)
    parent_cuts: Dict[int, Tuple[int, float]]  # wall id -> (segment, frac)
    child: int  # wall id of the seeded (ik) wall
    charge: complex  # Z_ij + Z_jk at the joint


def _match_value(a: complex, b: complex, scale: float) -> bool:
    return abs(a - b) <= 1e-8 * (1 + scale)


def build_wkb_network(curve: SpectralCurve, theta: float, mass_cutoff: float,
                      radius: float) -> SpectralNetwork:
    """Trace the full network: initial rays, joints, iterated extension.

    Crossings whose sheet pairs share a value (matched within 1e-8 relative)
    become creation joints and seed an (ik) wall with Z_ik = Z_ij + Z_jk;
    other crossings are non-interactions and leave no trace.  Rounds repeat
    until no newborn wall fits under the mass cutoff; newborn masses must
    grow between rounds (gapped guard).  The phase must be finite, and the
    mass cutoff and the radius positive and finite.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if not all(math.isfinite(v) and v > 0 for v in (mass_cutoff, radius)):
        raise ValueError("mass cutoff and radius must be positive and finite")
    walls: List[TracedWall] = []
    boxes: List[tuple] = []  # _wall_boxes of each wall, by wall id
    joints: List[Joint] = []
    for b in branch_points(curve):
        for wall in initial_rays(curve, b, theta):
            wall.id = len(walls)
            walls.append(trace_wall(curve, wall, theta, mass_cutoff, radius))
    frontier = walls[:]
    last_min_birth = 0.0
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise GappedGuardError("extension exceeded %d rounds" % MAX_ROUNDS)
        new_frontier: List[TracedWall] = []
        # each frontier wall against the older walls and the frontier walls
        # after it (the frontier is the tail of ``walls``)
        first = frontier[0].id
        candidates = [(wall, other) for k, wall in enumerate(frontier)
                      for other in walls[:first] + frontier[k + 1:]]
        boxes += [_wall_boxes(w.points) for w in walls[len(boxes):]]
        for wall, other in candidates:
            for ia, ta, ib, tb, z in _segment_intersections(boxes[wall.id],
                                                            boxes[other.id]):
                if _shared_origin_artifact(wall, other, ia, ib, z):
                    continue
                child = _classify_crossing(curve, wall, other, ia, ta, ib, tb, z)
                if child is None or abs(child.charges[0]) >= mass_cutoff:
                    continue
                child.id = len(walls)
                joints.append(Joint(len(joints), z, child.origin[1],
                                    {wall.id: (ia, ta), other.id: (ib, tb)},
                                    child.id, child.charges[0]))
                walls.append(trace_wall(curve, child, theta, mass_cutoff, radius))
                new_frontier.append(child)
        if new_frontier:
            min_birth = min(abs(w.charges[0]) for w in new_frontier)
            if min_birth <= last_min_birth:
                raise GappedGuardError(
                    "newborn mass %.6g did not grow past %.6g"
                    % (min_birth, last_min_birth))
            last_min_birth = min_birth
        frontier = new_frontier
    net = _export(walls, joints, mass_cutoff)
    net.traced = walls
    net.joints_info = joints
    return net


def _shared_origin_artifact(wall: TracedWall, other: TracedWall,
                            ia: int, ib: int, z: complex) -> bool:
    """Crossings within a few steps of a common origin, or of a joint-born
    wall's birth on one of its own parents, are seeding artifacts."""
    near_a = ia < 3 and abs(z - wall.points[0]) < 1e-3
    near_b = ib < 3 and abs(z - other.points[0]) < 1e-3
    if wall.origin == other.origin:
        return near_a or near_b
    return (near_a and _is_parent(other, wall)) or (near_b and _is_parent(wall, other))


def _is_parent(parent: TracedWall, child: TracedWall) -> bool:
    return child.origin[0] == "joint" and parent.id in child.origin[1]


def _classify_crossing(curve, wall, other, ia, ta, ib, tb, z):
    """The one-sample (ik) wall of a composable crossing, whose origin
    holds the parent ids in (ij, jk) order, or None."""
    # each side at the crossing: (wall, lambda_i, lambda_j, sheet values, Z)
    a = (wall, *wall.pair_values_at(ia, ta, curve), wall.charge_at(ia, ta))
    b = (other, *other.pair_values_at(ib, tb, curve), other.charge_at(ib, tb))
    scale = max(abs(v) for v in a[3])
    # ordered pairs (i, j): charge along the wall integrates lambda_i - lambda_j
    for (w_ij, vi, vj, vals, Zij), (w_jk, vj_, vk, _, Zjk) in ((a, b), (b, a)):
        if _match_value(vj, vj_, scale) and not _match_value(vi, vk, scale):
            break
    else:
        return None
    vals = sheets_at(curve, z, vals)
    idx_i = min(range(len(vals)), key=lambda k: abs(vals[k] - vi))
    idx_k = min(range(len(vals)), key=lambda k: abs(vals[k] - vk))
    if idx_i == idx_k:
        raise NonGenericPhase("degenerate (ik) pair at joint z=%s; "
                              "try theta + 1e-3" % z)
    return TracedWall((idx_i, idx_k), [z], [Zij + Zjk], [vals], ("joint", (w_ij.id, w_jk.id)))


# ----- export -----

def _sorted_label(vals: List[complex], pair: Tuple[int, int]) -> Tuple[int, int]:
    """1-based indices of the pair in the (real, imag)-sorted sheet order."""
    order = sorted(range(len(vals)),
                   key=lambda k: (round(vals[k].real, 6), round(vals[k].imag, 6)))
    rank = {k: r + 1 for r, k in enumerate(order)}
    return rank[pair[0]], rank[pair[1]]


def _export(walls: List[TracedWall], joints: List[Joint],
            mass_cutoff: float) -> SpectralNetwork:
    net = SpectralNetwork(cutoff=mass_cutoff)
    bp_vertex: Dict[complex, int] = {}
    for wall in walls:
        b = wall.origin[1]
        if wall.origin[0] == "bp" and b not in bp_vertex:
            bp_vertex[b] = net.add_vertex("initial", (b.real, b.imag)).id

    def describe(wid, start, stop):
        wall = walls[wid]
        label = _sorted_label(wall.vals[start[0] if start else 0], wall.pair)
        mass = abs(wall.charges[stop[0] + 1 if stop else -1])
        return label, mass, 0 if wall.origin[0] == "bp" else 1

    net.add_cut_walls(
        [(w.id, bp_vertex[w.origin[1]] if w.origin[0] == "bp" else None,
          [(p.real, p.imag) for p in w.points], w.asymptote) for w in walls],
        [((j.z.real, j.z.imag), j.child, j.parent_cuts) for j in joints],
        describe)
    return net
