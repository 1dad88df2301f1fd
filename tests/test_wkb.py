import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from specnet import wkb
from specnet.wkb import (
    BLOCK,
    CurveError,
    GappedGuardError,
    NonGenericPhase,
    RootCollision,
    SpectralCurve,
    TracedWall,
    _closest_pair,
    _shared_origin_artifact,
    branch_points,
    build_wkb_network,
    initial_rays,
    _segment_intersections,
    _wall_boxes,
    poly_roots,
    sheets_at,
    trace_wall,
)


def test_curve_parsing():
    curve = SpectralCurve("w^2 - z")
    assert curve.n == 2
    curve = SpectralCurve("w^3 - 3*w + x")
    assert curve.n == 3
    curve = SpectralCurve("w^2 - 1")
    assert curve.n == 2


def test_curve_rejects_bad_input():
    with pytest.raises(CurveError):
        SpectralCurve("w - z")  # single sheet
    with pytest.raises(CurveError):
        SpectralCurve("w^2 - x*y")  # two base variables
    with pytest.raises(CurveError):
        SpectralCurve("q^3 - z")  # missing fiber variable
    for text in ("w^2 - 1/z", "w^2 - z^-1", "w^(1/2) - z", "w^2.5 - z", "w^z - 1",
                 "w^2 - 1/0"):  # not a polynomial
        with pytest.raises(CurveError):
            SpectralCurve(text)
    for text in ("w^2 - z^(10**6)", "w^(10**6) - z"):  # past the size limits
        with pytest.raises(CurveError, match="curve too large"):
            SpectralCurve(text)


def test_curve_text_is_not_executed(tmp_path):
    """The curve text is walked as a syntax tree, never evaluated: a
    payload, a call or an attribute raises CurveError."""
    target = tmp_path / "x"
    payload = "w^2 - z + 0*len(open(%r,'w').write('x') and 'a')" % str(target)
    for text in (payload, "w^2 - sin(z)", "w^2 - z.conjugate()", "w^2 - z.real",
                 "w^2 - 'z'", "w^2 - 1j*z"):
        with pytest.raises(CurveError):
            SpectralCurve(text)
    assert not target.exists()
    assert SpectralCurve("-(-w**2) + 0.5*z/3 - +1").n == 2


ROADMAP_CURVES = ["w^2 - z", "w^3 - 3*w + x", "2*w^4 - 5*w^2 + z*w + 1",
                  "w^3 + z^2*w - z^5 + 1/3", "w^4 - z*w^2 + (z^2-1)*w - z^3"]


def _random_curve(rng):
    """Curve text with n in 2..5, z-degree up to 3, and integer, rational
    and decimal coefficients; about one in ten is not a usable curve."""
    n, dz = rng.randint(2, 5), rng.randint(0, 3)
    numbers = ["1", "-2", "3", "1/3", "-5/7", "0.5", "-1.25", "2.75", "1e-3"]
    terms = ["%s*w^%d" % (rng.choice(["1", "2", "-1/3", "0.25"]), n),
             "(%s)*z^%d" % (rng.choice(numbers), dz)]
    for k in range(n - 1, -1, -1):
        for j in range(dz + 1):
            if rng.random() < 0.45:
                terms.append("(%s)*w^%d*z^%d" % (rng.choice(numbers), k, j))
    flaw = rng.choice([None] * 54 + ["z*w^%d" % n, "1/z", "w^(1/2)", "x*w", "sq", "low"])
    if flaw == "sq":
        return "(w - z)^2 * (w^%d + 1)" % (n - 2)
    if flaw == "low":
        return "w + " + rng.choice(numbers) + "*z^%d" % dz
    return " + ".join(terms + ([flaw] if flaw else []))


def _sympy_reference(text):
    """The curve read through sympy, as the program once did: (coefficient
    floats per w-power, discriminant rationals), or None if rejected."""
    sp = pytest.importorskip("sympy")
    w = sp.Symbol("w")
    try:
        expr = sp.sympify(text.replace("^", "**"), rational=True)
        base = sorted(expr.free_symbols - {w}, key=lambda s: s.name)
        if len(base) > 1:
            return None
        z = base[0] if base else sp.Symbol("z")
        lead = sp.Poly(expr, w).LC()
        if lead.free_symbols:
            return None
        poly = sp.Poly(sp.expand(expr / lead), w)
        if poly.degree() < 2:
            return None
        coeffs = [[float(c) for c in sp.Poly(poly.nth(k), z).all_coeffs()]
                  for k in range(poly.degree(), -1, -1)]
        disc = sp.Poly(sp.discriminant(poly.as_expr(), w), z).all_coeffs()
    except (sp.PolynomialError, TypeError):
        return None
    if all(c == 0 for c in disc):
        return None
    return coeffs, [Fraction(int(c.p), int(c.q)) for c in disc]


def test_curve_matches_sympy_reference():
    """Coefficients, exact discriminant and rejections agree with sympy on
    the ROADMAP curves, two with 16 and 9 sheets and 320 seeded random ones."""
    rng = random.Random(20261018)
    corpus = (ROADMAP_CURVES + ["w^16 + z*w + z^5 + 1", "w^9 - 1/3*z^2*w^4 + 0.5*z*w + z^3 - 2"]
              + [_random_curve(rng) for _ in range(320)])
    rejected = 0
    for text in corpus:
        reference = _sympy_reference(text)
        if reference is None:
            rejected += 1
            with pytest.raises(CurveError):
                SpectralCurve(text)
            continue
        curve = SpectralCurve(text)
        coeffs, disc = reference
        assert curve._rows == [[complex(c) for c in row] for row in coeffs], text
        assert curve.disc == disc, text
    assert 20 <= rejected <= 60


def test_roots_at():
    curve = SpectralCurve("w^2 - z")
    roots = sorted(curve.roots_at(4.0), key=lambda r: r.real)
    assert abs(roots[0] + 2) < 1e-12 and abs(roots[1] - 2) < 1e-12


def test_branch_points_examples():
    assert branch_points(SpectralCurve("w^2 - z")) == [0]
    bps = sorted(b.real for b in branch_points(SpectralCurve("w^3 - 3*w + x")))
    assert abs(bps[0] + 2) < 1e-9 and abs(bps[1] - 2) < 1e-9
    assert branch_points(SpectralCurve("w^2 - 1")) == []
    assert len(branch_points(SpectralCurve("2*w^4 - 5*w^2 + z*w + 1"))) == 4
    # discriminant roots from 0.38 to 1.5e7: each is clustered relative to
    # its own size, so the far ones do not merge the near ones
    spread = ("-1/3*w^4 + (1/3)*z^2 - 1.25*w^3 - 2*w^2*z + 1e-3*w*z + 1e-3*w*z^2"
              " - 2 + z - 2*z^2")
    assert len(branch_points(SpectralCurve(spread))) == 8


@pytest.mark.parametrize("text", ["w^3 - z", "w^2 - z^2", "w^2 - z^3", "w^2 - (z-1)^2*(z+1)"])
def test_branch_points_reject_non_simple(text):
    """Three sheets meeting, or a multiple root of the discriminant."""
    with pytest.raises(CurveError, match="non-simple branch point at z="):
        branch_points(SpectralCurve(text))


def test_sheet_tracking_swaps_around_branch_point():
    """Continuing the sheets around z = 0 of w^2 = z swaps them."""
    curve = SpectralCurve("w^2 - z")
    z = 1.0 + 0j
    vals = curve.roots_at(z)
    start = list(vals)
    steps = 200
    for k in range(1, steps + 1):
        zk = cmath.exp(2j * math.pi * k / steps)
        vals = sheets_at(curve, zk, vals)
    assert abs(vals[0] - start[1]) < 1e-6
    assert abs(vals[1] - start[0]) < 1e-6


def test_sheets_at_returns_python_complex(monkeypatch):
    """Python complex values in and out, from Newton and from the poly_roots
    fallback alike."""
    curve = SpectralCurve("w^2 - 1")
    fallbacks = []
    roots_at = curve.roots_at

    def counted(z):
        fallbacks.append(z)
        return roots_at(z)

    monkeypatch.setattr(curve, "roots_at", counted)
    newton = sheets_at(curve, 1, [1.1 + 0.1j, -0.9 - 0.1j])
    assert not fallbacks
    # from 1e-3, Newton needs more than NEWTON_STEPS steps: the sheets come from poly_roots
    fallback = sheets_at(curve, 1, [1e-3 + 0j, -1 + 0j])
    assert len(fallbacks) == 1
    for vals in (newton, fallback):
        assert type(vals) is list
        assert [type(v) for v in vals] == [complex, complex]
        assert np.allclose(vals, [1, -1], rtol=0, atol=1e-12)


# ----- the two- and three-sheet kernels against the loop -----

def _sheets_outcome(fn, curve, z, seed):
    """The sheets ``fn`` returns, as the hex of each real and imaginary part,
    or the message of the RootCollision it raises."""
    try:
        return [(v.real.hex(), v.imag.hex()) for v in fn(curve, z, seed)]
    except RootCollision as err:
        return "RootCollision: %s" % err


@st.composite
def _kernel_cases(draw):
    """A curve of 2 or 3 sheets with small random integer coefficients, z
    near one of its branch points or anywhere up to 1e3 (sometimes an int),
    and a seed: the roots at a nearby z in random order, with one seed value
    repeated (collision), moved to a critical point of P(z, .) (P' = 0 for
    two sheets, w = 0 when the w coefficient vanishes for three) or all
    moved 1e3 away (no convergence)."""
    n = draw(st.sampled_from([2, 3]))
    small = st.integers(-3, 3)
    terms = ["%d*w^%d" % (draw(st.integers(1, 3)), n)]
    for k in range(n):
        row = draw(st.lists(small, min_size=1, max_size=3))
        terms.append("(%s)*w^%d" % (" + ".join("(%d)*z^%d" % (c, j) for j, c in enumerate(row)), k))
    try:
        curve = SpectralCurve(" + ".join(terms))
    except CurveError:
        assume(False)
    if draw(st.booleans()):
        z = complex(draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000)))
        if z.imag == 0 and draw(st.booleans()):
            z = int(z.real)
    else:
        branch = poly_roots([complex(c) for c in curve.disc]) or [0j]
        b = draw(st.sampled_from(branch))
        z = b + 10 ** draw(st.floats(-9, 0)) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
    near = complex(z) + 10 ** draw(st.floats(-9, -1)) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
    vals = [curve.roots_at(near)[k] for k in draw(st.permutations(range(n)))]
    kind = draw(st.sampled_from(["near", "duplicate", "critical", "far"]))
    k = draw(st.integers(0, n - 1))
    if kind == "duplicate":
        vals[k] = vals[(k + 1) % n]
    elif kind == "critical":
        vals[k] = -curve.coeffs_at(complex(z))[1] / 2 if n == 2 else 0j
    elif kind == "far":
        vals = [v + 1e3 * cmath.exp(1j * draw(st.floats(0, 2 * math.pi))) for v in vals]
    return curve, z, vals


@seed(20261019)
@settings(max_examples=800, deadline=None)
@given(case=_kernel_cases())
@example(case=(SpectralCurve("w^2 - z"), 2, [0j, 1.4 + 0j]))  # P' = 2w is 0 at the seed 0
@example(case=(SpectralCurve("w^3 - z"), 1, [0j, 1 + 0j, -0.5 + 0.8j]))  # P' = 3w^2 at 0
@example(case=(SpectralCurve("w^3 - 3*w + x"), 0.3, [1.7 + 0j, 1.7 + 0j, -1.9 + 0j]))
@example(case=(SpectralCurve("w^3 - 3*w + x"), 0.3, [900j, -900j, 900 + 0j]))
def test_sheet_kernels_match_the_loop(case):
    """``sheets_at`` on two and three sheets, which runs ``_sheets_2`` and
    ``_sheets_3``, gives the same bits as the loop ``_sheets_newton``, or
    the same RootCollision, through every fallback to ``_nearest_roots``."""
    curve, z, seed_vals = case
    assert _sheets_outcome(sheets_at, curve, z, seed_vals) == \
        _sheets_outcome(wkb._sheets_newton, curve, complex(z), seed_vals)


def _horner_loop(curve, z):
    """``coeffs_at`` as it was: Horner over every row, the constant ones too."""
    out = []
    for poly in curve._rows:
        acc = 0j
        for c in poly:
            acc = acc * z + c
        out.append(acc)
    return out


_SIGNED = (0.0, -0.0, 1.5, -2.0, 1e308, -5e-324, math.inf, -math.inf, math.nan)


@seed(20261019)
@settings(max_examples=600, deadline=None)
@given(curve=st.sampled_from(ROADMAP_CURVES + ["w^2 - 1", "w^3 - 3*w + z^2", "w^2 - z^3 + z"]),
       z=st.one_of(st.complex_numbers(allow_nan=True, allow_infinity=True),
                   st.builds(complex, st.sampled_from(_SIGNED), st.sampled_from(_SIGNED)),
                   st.integers(-10 ** 6, 10 ** 6),
                   st.floats(allow_nan=True, allow_infinity=True)))
@example(curve="w^3 - 3*w + x", z=complex(-0.0, -0.0))
@example(curve="w^3 - 3*w + x", z=complex(math.inf, 0.0))
@example(curve="w^3 - 3*w + x", z=math.nan)
@example(curve="w^2 - 1", z=complex(-math.inf, math.nan))
def test_coeffs_at_matches_horner_over_every_row(curve, z):
    """``coeffs_at``, which skips the rows that do not vary with z at a
    finite z, gives the same bits as Horner over every row: at finite,
    integer, signed-zero, infinite and nan z."""
    curve = SpectralCurve(curve)
    assert [(v.real.hex(), v.imag.hex()) for v in curve.coeffs_at(z)] == \
        [(v.real.hex(), v.imag.hex()) for v in _horner_loop(curve, z)]


def _separation_reference(roots):
    """The reference: ``_separation`` as it was, the least distance that
    ``sheets_at``'s collision tests read, now from ``_closest_pair``."""
    n = len(roots)
    best = math.inf
    for i in range(n):
        w = roots[i]
        for j in range(i + 1, n):
            d = abs(w - roots[j])
            if d < best:
                best = d
    return best


def _min_pair_reference(vals):
    """The reference: ``_closest_pair`` as it was, the pair of the least
    (distance, i, j)."""
    n = len(vals)
    _, i, j = min((abs(vals[i] - vals[j]), i, j) for i in range(n) for j in range(i + 1, n))
    return i, j


# few parts, so values repeat and distances tie; inf - inf gives NaN distances
_PART = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan]),
                  st.floats(-4, 4))


@seed(20261024)
@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.builds(complex, _PART, _PART), min_size=2, max_size=16))
@example(vals=[complex(math.inf, 2), complex(math.inf, 2), 2 + 2j, 2 + 0.5j])
def test_closest_pair_matches_the_references(vals):
    """``_closest_pair`` gives the distance of ``_separation`` on every list,
    NaN and +-inf included, and the pair of the old min wherever no distance
    is NaN.  (With a NaN distance the old min could return a NaN pair, as at
    the example: (0, 1), where ``_closest_pair`` gives (2, 3).)"""
    d, i, j = _closest_pair(vals)
    reference = _separation_reference(vals)
    assert d == reference or math.isnan(d) and math.isnan(reference)
    if not any(math.isnan(abs(a - b)) for k, a in enumerate(vals) for b in vals[k + 1:]):
        assert (i, j) == _min_pair_reference(vals)


def test_initial_rays_do_not_depend_on_the_sign_of_c(monkeypatch):
    """c and -c give the same seeds, at real and complex branch points."""
    coefficient = wkb._local_coefficient
    for text in ("w^2 - z", "w^3 - 3*w + x", "2*w^4 - 5*w^2 + z*w + 1"):
        curve = SpectralCurve(text)
        for b in branch_points(curve):
            want = initial_rays(curve, b, 0.3)
            monkeypatch.setattr(wkb, "_local_coefficient", lambda *args: -coefficient(*args))
            assert initial_rays(curve, b, 0.3) == want, (text, b)
            monkeypatch.undo()


def test_initial_rays_point_outward():
    curve = SpectralCurve("w^2 - z")
    bp = branch_points(curve)[0]
    walls = initial_rays(curve, bp, theta=0.0)
    assert len(walls) == 3
    for wall in walls:
        i, j = wall.pair
        v = cmath.exp(0j) / (wall.vals[0][i] - wall.vals[0][j])
        # the flow direction leads away from the branch point
        assert (v * (wall.points[0] - bp).conjugate()).real > 0


def test_traced_wall_mass_monotone_and_phase_constant():
    curve = SpectralCurve("w^2 - z")
    theta = 0.4
    bp = branch_points(curve)[0]
    for wall in initial_rays(curve, bp, theta):
        assert trace_wall(curve, wall, theta, 8.0, 4.0) is wall
        masses = [abs(Z) for Z in wall.charges]
        assert all(a < b for a, b in zip(masses, masses[1:]))
        rot = cmath.exp(-1j * theta)
        for Z in wall.charges:
            assert abs((rot * Z).imag) <= 1e-6 * (1 + abs(Z))


def test_airy_network_three_rays():
    net = build_wkb_network(SpectralCurve("w^2 - z"), 0.0, 10.0, 5.0)
    assert len(net.traced) == 3
    assert net.joints_info == []
    dirs = sorted(cmath.phase(w.points[-1]) for w in net.traced)
    expected = sorted((-2 * math.pi / 3, 0.0, 2 * math.pi / 3))
    for got, want in zip(dirs, expected):
        assert abs(got - want) < 1e-3


def test_round_guard_stops_extension(monkeypatch):
    monkeypatch.setattr(wkb, "MAX_ROUNDS", 0)
    with pytest.raises(GappedGuardError, match="extension exceeded 0 rounds"):
        build_wkb_network(SpectralCurve("w^2 - z"), 0.0, 10.0, 5.0)


def test_constant_curve_gives_empty_network():
    net = build_wkb_network(SpectralCurve("w^2 - 1"), 0.0, 10.0, 5.0)
    assert net.walls == [] and net.vertices == []


def test_wkb_network_vertices_classify(cubic_net):
    cubic_net.validate_decorations()


def test_cubic_secondary_walls(cubic_net):
    secondary = [w for w in cubic_net.traced if w.origin[0] == "joint"]
    assert len(secondary) == 2


def test_wkb_charge_additivity(cubic_net):
    for joint in cubic_net.joints_info:
        total = 0
        for wid in joint.parents:
            wall = cubic_net.traced[wid]
            seg, frac = joint.parent_cuts[wid]
            total += wall.charge_at(seg, frac)
        assert abs(total - joint.charge) <= 1e-6 * (1 + abs(joint.charge))
        # the composed sheet pair really is (i,k): lambda differences add
        child = cubic_net.traced[joint.child]
        i, k = child.pair
        d_child = child.vals[0][i] - child.vals[0][k]
        d_parents = 0
        for wid in joint.parents:
            wall = cubic_net.traced[wid]
            seg, frac = joint.parent_cuts[wid]
            vi, vj, _ = wall.pair_values_at(seg, frac, cubic_net.curve)
            d_parents += vi - vj
        assert abs(d_child - d_parents) <= 1e-6 * (1 + abs(d_child))


def test_child_birth_on_its_parents_is_not_classified(monkeypatch):
    """A joint-born wall starts on both its parents.  That crossing, at the
    child's first segment, is a seeding artifact: it never reaches the
    joint classifier, whether or not rounding finds it."""
    import specnet.wkb as wkb

    seen = []
    classify = wkb._classify_crossing

    def record(curve, wall, other, ia, ta, ib, tb, z):
        seen.append((wall, other, ia, ib))
        return classify(curve, wall, other, ia, ta, ib, tb, z)

    def parent_of(parent, child):
        return child.origin[0] == "joint" and parent.id in child.origin[1]

    monkeypatch.setattr(wkb, "_classify_crossing", record)
    net = build_wkb_network(SpectralCurve("w^3 - 3*w + x"), 0.3, 12.0, 8.0)
    assert seen and net.joints_info
    births = [(a.id, b.id) for a, b, ia, ib in seen
              if (parent_of(b, a) and ia == 0) or (parent_of(a, b) and ib == 0)]
    assert births == []


@pytest.fixture(scope="module")
def cubic_net():
    curve = SpectralCurve("w^3 - 3*w + x")
    net = build_wkb_network(curve, 0.3, 12.0, 8.0)
    net.curve = curve
    return net


@pytest.fixture(scope="module")
def rejecting_net():
    """w^3 - 3w + z^2 at theta 0.4: two of its crossings compose no sheet
    pair.  The network carries the (wall id, other id, point) of each
    crossing the joint classifier rejects."""
    rejected = []
    classify = wkb._classify_crossing

    def record(curve, wall, other, ia, ta, ib, tb, z):
        seed = classify(curve, wall, other, ia, ta, ib, tb, z)
        if seed is None:
            rejected.append((wall.id, other.id, z))
        return seed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wkb, "_classify_crossing", record)
        net = build_wkb_network(SpectralCurve("w^3 - 3*w + z^2"), 0.4, 10.0, 6.0)
    net.rejected = rejected
    return net


def test_crossing_that_composes_no_pair_leaves_no_joint(rejecting_net):
    """The crossings of walls 13 x 9 and 17 x 0 are rejected and leave no
    vertex; the 6 joints found add charges, and every wall's mass grows."""
    net = rejecting_net
    assert [(a, b) for a, b, _ in net.rejected] == [(13, 9), (17, 0)]
    assert len(net.traced) == 18 and len(net.joints_info) == 6
    net.validate_decorations()
    for _, _, z in net.rejected:
        assert all(abs(complex(*v.position) - z) > 1e-3 for v in net.vertices)
    for wall in net.traced:
        masses = [abs(Z) for Z in wall.charges]
        assert all(a < b for a, b in zip(masses, masses[1:])), wall.id
    for joint in net.joints_info:
        total = sum(net.traced[wid].charge_at(*joint.parent_cuts[wid]) for wid in joint.parents)
        assert abs(total - joint.charge) <= 1e-6 * abs(joint.charge)
        assert abs(net.traced[joint.child].charges[0] - joint.charge) <= 1e-6 * abs(joint.charge)


def test_networks_list_walls_and_vertices_by_id(builders, cubic_net):
    """A network's walls and vertices are lists, each item at its id."""
    nets = [builder.to_network() for builder in builders.values()]
    nets += [build_wkb_network(SpectralCurve("w^2 - z"), 0.0, 12.0, 8.0), cubic_net]
    for net in nets:
        assert net.walls and net.vertices
        assert [w.id for w in net.walls] == list(range(len(net.walls)))
        assert [v.id for v in net.vertices] == list(range(len(net.vertices)))


def test_builders_store_only_initial_and_creation_vertices(builders, cubic_net, rejecting_net):
    """Both pipelines store branch points as initial vertices and joints as
    creation vertices, nothing else: the kinds the SVG export draws, and
    why no stored vertex is inconsistent."""
    nets = [builder.to_network() for builder in builders.values()]
    nets += [build_wkb_network(SpectralCurve("w^2 - z"), 0.0, 10.0, 5.0), cubic_net, rejecting_net]
    for net in nets:
        assert net.vertices
        assert {v.kind for v in net.vertices} <= {"initial", "interaction_creation"}
        assert net.inconsistent_vertices() == []


# ----- sheets_at against the np.roots reference -----

def _reference_sheets(curve, z, seed):
    """The np.roots plus greedy nearest matching that ``sheets_at`` ran
    before Newton continuation, kept as the reference: the matched values,
    or RootCollision.  The roots come from numpy, not from the module's own
    root finder."""
    values, worst, sep = _reference_match(curve, z, seed)
    if worst > 0.5 * sep:
        raise RootCollision("root move %.3g vs separation %.3g at z=%s"
                            % (worst, sep, z))
    return values


def _reference_match(curve, z, seed):
    """np.roots at z matched greedily to the seed: (values in the seed's
    order, worst seed-to-root move, smallest root separation)."""
    roots = np.roots(curve.coeffs_at(z))
    n = len(roots)
    pairs = sorted((abs(seed[i] - roots[j]), i, j)
                   for i in range(n) for j in range(n))
    assign = {}
    used = set()
    worst = 0.0
    for d, i, j in pairs:
        if i in assign or j in used:
            continue
        assign[i] = j
        used.add(j)
        worst = max(worst, d)
    sep = min((abs(roots[i] - roots[j])
               for i in range(n) for j in range(i + 1, n)), default=math.inf)
    return np.array([roots[assign[i]] for i in range(n)]), worst, sep


SHEET_CURVES = {text: SpectralCurve(text) for text in
                ("w^2 - z", "w^3 - 3*w + x", "2*w^4 - 5*w^2 + z*w + 1")}


def _assert_same_roots(got, want):
    """got and want, paired greedily nearest first, agree within 1e-10 of
    the largest |want|."""
    assert len(got) == len(want)
    scale = max(abs(w) for w in want)
    pairs = sorted((abs(g - w), i, j) for i, g in enumerate(got) for j, w in enumerate(want))
    used_got, used_want = set(), set()
    for d, i, j in pairs:
        if i in used_got or j in used_want:
            continue
        used_got.add(i)
        used_want.add(j)
        assert d <= 1e-10 * scale, (got, want)


def _coefficients(n):
    leading = st.complex_numbers(min_magnitude=0.1, max_magnitude=10)
    rest = st.complex_numbers(max_magnitude=10)
    return st.tuples(leading, st.lists(rest, min_size=n, max_size=n)).map(
        lambda t: [t[0]] + t[1])


def _error_bound(coeffs, root):
    """First-order rounding error of a simple root: EPS sum |a_k| |r|^(n-k)
    over |p'(r)|."""
    n = len(coeffs) - 1
    size = sum(abs(c) * abs(root) ** (n - k) for k, c in enumerate(coeffs))
    slope = abs(sum((n - k) * c * root ** (n - k - 1) for k, c in enumerate(coeffs[:-1])))
    return wkb.EPS * size / slope if slope else math.inf


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(coeffs=st.integers(1, 16).flatmap(_coefficients))
@example(coeffs=[complex(c) for c in SHEET_CURVES["w^2 - z"].disc])
@example(coeffs=[complex(c) for c in SHEET_CURVES["w^3 - 3*w + x"].disc])
@example(coeffs=[complex(c) for c in SHEET_CURVES["2*w^4 - 5*w^2 + z*w + 1"].disc])
def test_poly_roots_match_numpy(coeffs):
    """poly_roots agrees with np.roots wherever the roots are well
    conditioned: degrees 1 to 16 and the discriminants of SHEET_CURVES."""
    want = np.roots(coeffs)
    scale = max(abs(w) for w in want)
    # exact zero roots come from trailing zero coefficients in both
    assume(all(w == 0 or _error_bound(coeffs, w) <= 1e-13 * scale for w in want))
    _assert_same_roots(poly_roots(coeffs), want)


@seed(20261018)
@settings(max_examples=600, deadline=None)
@given(text=st.sampled_from(sorted(SHEET_CURVES)),
       x=st.floats(-3, 3), y=st.floats(-3, 3),
       log_step=st.floats(-6, 0.5), angle=st.floats(0, 2 * math.pi),
       order=st.permutations(range(4)))
def test_sheets_at_matches_nearest_roots_reference(text, x, y, log_step,
                                                   angle, order):
    curve = SHEET_CURVES[text]
    z = complex(x, y)
    near = z + 10 ** log_step * cmath.exp(1j * angle)
    seed_vals = np.roots(curve.coeffs_at(near))[[k for k in order if k < curve.n]].tolist()
    try:
        want = _reference_sheets(curve, z, seed_vals)
    except RootCollision:
        _, worst, sep = _reference_match(curve, z, seed_vals)
        if worst > 0.6 * sep:
            with pytest.raises(RootCollision):
                sheets_at(curve, z, seed_vals)
        return
    got = sheets_at(curve, z, seed_vals)
    assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))


def _network_record(net):
    kinds = sorted((v.id, v.kind) for v in net.vertices)
    walls = sorted((w.id, w.label, w.source, w.target) for w in net.walls)
    samples = [len(w.points) for w in net.traced]
    masses = [abs(w.charges[-1]) for w in net.traced]
    return kinds, walls, samples, masses


@pytest.mark.parametrize("text, theta, mass, radius", [
    ("w^2 - z", 0.0, 10.0, 5.0),
    ("w^3 - 3*w + x", 0.3, 12.0, 8.0),
], ids=["airy", "cubic"])
def test_network_matches_nearest_roots_reference(text, theta, mass, radius,
                                                 monkeypatch):
    """Same graph, same step-halving decisions, masses within 1e-9."""
    import specnet.wkb as wkb

    curve = SpectralCurve(text)
    kinds, walls, samples, masses = _network_record(
        build_wkb_network(curve, theta, mass, radius))
    monkeypatch.setattr(wkb, "sheets_at", _reference_sheets)
    ref_kinds, ref_walls, ref_samples, ref_masses = _network_record(
        build_wkb_network(curve, theta, mass, radius))
    assert kinds == ref_kinds
    assert walls == ref_walls
    assert samples == ref_samples
    assert np.allclose(masses, ref_masses, rtol=1e-9, atol=0)


def test_cubic_at_phase_zero_stays_non_generic():
    with pytest.raises(NonGenericPhase):
        build_wkb_network(SpectralCurve("w^3 - 3*w + x"), 0.0, 12.0, 8.0)


# ----- the joint search against its all-pairs reference -----

def _reference_intersections(a, b):
    """The all-pairs box matrix that ``_segment_intersections`` ran before
    its block boxes, kept as the reference."""
    ax, ay = a.real, a.imag
    bx, by = b.real, b.imag
    a_lo_x = np.minimum(ax[:-1], ax[1:])[:, None]
    a_hi_x = np.maximum(ax[:-1], ax[1:])[:, None]
    a_lo_y = np.minimum(ay[:-1], ay[1:])[:, None]
    a_hi_y = np.maximum(ay[:-1], ay[1:])[:, None]
    b_lo_x = np.minimum(bx[:-1], bx[1:])[None, :]
    b_hi_x = np.maximum(bx[:-1], bx[1:])[None, :]
    b_lo_y = np.minimum(by[:-1], by[1:])[None, :]
    b_hi_y = np.maximum(by[:-1], by[1:])[None, :]
    overlap = ((a_lo_x <= b_hi_x) & (b_lo_x <= a_hi_x)
               & (a_lo_y <= b_hi_y) & (b_lo_y <= a_hi_y))
    for ia, ib in zip(*np.nonzero(overlap)):
        p, r = a[ia], a[ia + 1] - a[ia]
        q, s = b[ib], b[ib + 1] - b[ib]
        denom = (r * s.conjugate()).imag
        if denom == 0:
            continue
        d = q - p
        t = (d * s.conjugate()).imag / denom
        u = (d * r.conjugate()).imag / denom
        if 0 <= t <= 1 and 0 <= u <= 1:
            yield int(ia), float(t), int(ib), float(u), p + t * r


POLYLINE_SIZES = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 4 * BLOCK + 5)


def _grid_walk(rng, n):
    """A walk of n points on the quarter grid, half its steps axis-parallel,
    so collinear runs, overlaps and revisited vertices are common."""
    steps = rng.integers(-2, 3, size=(n, 2)) / 4
    axis = rng.random(n) < 0.5
    steps[axis, rng.integers(0, 2, size=int(axis.sum()))] = 0
    xy = np.cumsum(steps, axis=0)
    return xy[:, 0] + 1j * xy[:, 1]


def _smooth_walk(rng, n):
    """A turning walk of n points with float coordinates, like a traced wall."""
    heading = rng.uniform(0, 2 * math.pi) + np.cumsum(rng.normal(0, 0.3, n))
    return rng.normal(0, 0.5) + np.cumsum(0.1 * np.exp(1j * heading))


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(n_a=st.sampled_from(POLYLINE_SIZES), n_b=st.sampled_from(POLYLINE_SIZES),
       kind=st.sampled_from(["grid", "smooth", "shared", "reversed", "copy", "nan"]),
       walk_seed=st.integers(0, 2 ** 32 - 1))
def test_segment_intersections_match_all_pairs_reference(n_a, n_b, kind, walk_seed):
    """The block-box search yields exactly the reference's tuples, in order."""
    rng = np.random.default_rng(walk_seed)
    walk = _smooth_walk if kind == "smooth" else _grid_walk
    a, b = walk(rng, n_a), walk(rng, n_b)
    if kind == "shared":  # b passes through some of a's vertices
        k = max(1, min(n_a, n_b) // 3)
        b[rng.choice(n_b, k, replace=False)] = a[rng.choice(n_a, k, replace=False)]
    elif kind == "reversed":
        b = a[::-1][:n_b].copy()
    elif kind == "copy":
        b = a[:n_b].copy()
    elif kind == "nan":  # a NaN coordinate hides its own segments only
        a[rng.integers(n_a)] = complex(math.nan, 0.5)
        b[rng.integers(n_b)] = complex(0.5, math.nan)
    got = list(_segment_intersections(_wall_boxes(a.tolist()), _wall_boxes(b.tolist())))
    assert got == list(_reference_intersections(a, b))


def test_crossing_near_a_common_origin_is_an_artifact():
    """Two walls from one branch point: a crossing within three steps and
    1e-3 of either one's start is a seeding artifact, and one farther along
    is not; walls from two branch points are never artifacts of each other.
    No traced network has shown two walls of one origin crossing, so the
    rule is pinned on walls laid out by hand, 1e-7 from a branch point at 0
    like ``initial_rays``' seeds."""
    def wall(k, angle, origin=("bp", 0j)):
        points = [r * cmath.exp(1j * angle) for r in (1e-7, 1e-5, 1e-4, 1e-2, 1.0)]
        return TracedWall((0, 1), points, [], [], origin, k, "radius")

    a, b = wall(0, 0.0), wall(1, 2 * math.pi / 3)
    assert _shared_origin_artifact(a, b, 0, 0, 5e-4)
    assert _shared_origin_artifact(a, b, 3, 2, 5e-4)
    assert not _shared_origin_artifact(a, b, 3, 3, 5e-4)  # past three steps of both
    assert not _shared_origin_artifact(a, b, 0, 0, 2e-3)  # 1e-3 away from both starts
    assert not _shared_origin_artifact(a, wall(2, 2.0, ("bp", 1e-9 + 0j)), 0, 0, 5e-4)
