import collections
import hashlib
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from specnet import geometry, soliton_bps
from specnet.forest import build_forest_strands
from specnet.geometry import (
    NonGenericGeometry, Polyline, PolylineSet, Ratio, exact_point, interp, param_of, point_key,
    prepare, twist_sign as _perm_sign, walk_sheets)
from specnet.laurent import LaurentPoly
from specnet.nonabel import (
    LocalSystemRank1,
    Transport,
    _folds,
    _winding,
    augmentation,
    chord_map,
    homotopic_pair,
    network_punctures,
)
from specnet.soliton_bps import (BIRTH_PARAM, CAP_EPS, HomologyEngine, LiftedPath,
                                 _rational_sqrt_floor)
from specnet.weave import bend_weave, parse_weave

from conftest import (EXAMPLES, X_MOVE_WEAVES, assert_wall_classes_walk_as_the_whole_walk,
                      cut_set, just_left, left_cap_word, random_weave_builders, random_weave_texts,
                      top_boundary_fault, whole_cap_word)


@pytest.fixture(scope="module")
def transports(builders):
    return {name: Transport(builder) for name, builder in builders.items()}


def test_perm_sign_untouched_sheet():
    assert _perm_sign(2, 1, 1) == 1
    assert _perm_sign(2, 4, -1) == 1


def test_perm_sign_swapped_sheets_depend_on_side():
    assert _perm_sign(1, 1, 1) == -1
    assert _perm_sign(1, 2, 1) == 1
    assert _perm_sign(1, 1, -1) == 1
    assert _perm_sign(1, 2, -1) == -1


def _keys(points):
    return [point_key(p) for p in points]


def test_winding():
    square = _keys([(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(-1)),
                    (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)),
                    (Fraction(-1), Fraction(-1))])
    assert _winding(square, point_key((Fraction(0), Fraction(0)))) == 1
    assert _winding(square, point_key((Fraction(2), Fraction(0)))) == 0
    assert _winding(list(reversed(square)), point_key((Fraction(0), Fraction(0)))) == -1


def _quadrant_winding(loop, pt):
    """Reference winding number by quadrant counting, or None for a point on
    the loop.  Each vertex gets the quadrant of its direction from the point
    (half-open, counter-clockwise from the positive x axis); an edge moves one
    quadrant either way, or two, whose sense is the sign of the cross product
    (zero exactly when the edge runs through the point)."""
    px, py = pt

    def quadrant(x, y):
        x, y = x - px, y - py
        return 0 if x > 0 <= y else 1 if y > 0 >= x else 2 if x < 0 >= y else 3

    if any((x, y) == (px, py) for x, y in loop):
        return None
    quarters = 0
    for (ax, ay), (bx, by) in zip(loop, loop[1:]):
        step = (quadrant(bx, by) - quadrant(ax, ay)) % 4
        if step == 2:
            cross = (ax - px) * (by - py) - (ay - py) * (bx - px)
            if cross == 0:
                return None
            step = 2 if cross > 0 else -2
        quarters += -1 if step == 3 else step
    assert quarters % 4 == 0
    return quarters // 4


_GRID = st.integers(-3, 3).map(Fraction)
_LOOPS = st.lists(st.tuples(_GRID, _GRID), min_size=2, max_size=7).map(lambda pts: pts + pts[:1])


@seed(20261019)
@settings(max_examples=500, deadline=None)
@given(loop=_LOOPS, x=st.integers(-7, 7), y=st.integers(-7, 7))
def test_winding_matches_quadrant_counting(loop, x, y):
    """On small-grid loops, with the point on a half grid so that vertices
    often sit at its height, the exact winding number equals the quadrant
    count; a point on the loop raises."""
    pt = (Fraction(x, 2), Fraction(y, 2))
    expected = _quadrant_winding(loop, pt)
    if expected is None:
        with pytest.raises(NonGenericGeometry, match="winding query on the loop"):
            _winding(_keys(loop), point_key(pt))
    else:
        assert _winding(_keys(loop), point_key(pt)) == expected


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(loop=_LOOPS, edge=st.integers(0, 6), t=st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1]))
def test_winding_raises_for_every_point_on_the_loop(loop, edge, t):
    """Vertices, and points inside horizontal, vertical and slanted edges."""
    (ax, ay), (bx, by) = loop[edge % (len(loop) - 1): edge % (len(loop) - 1) + 2]
    with pytest.raises(NonGenericGeometry, match="winding query on the loop"):
        _winding(_keys(loop), point_key((ax + t * (bx - ax),
                                         ay + t * (by - ay))))


def test_winding_raises_on_a_horizontal_edge():
    """The square with corners (+-1, 0) and (+-1, 1): its bottom edge runs
    along the ray's line through (0, 0), the other edges meet it at
    vertices."""
    square = _keys([(Fraction(x), Fraction(y))
                    for x, y in ((-1, 0), (1, 0), (1, 1), (-1, 1), (-1, 0))])
    for pt in [(0, 0), (-1, 0), (1, 0), (Fraction(1, 2), 1), (1, Fraction(1, 2))]:
        with pytest.raises(NonGenericGeometry, match="winding query on the loop"):
            _winding(square, point_key(tuple(map(Fraction, pt))))
    assert _winding(square, point_key((Fraction(0), Fraction(1, 2)))) == 1
    assert _winding(square, point_key((Fraction(2), Fraction(0)))) == 0
    assert _winding(square, point_key((Fraction(-2), Fraction(1)))) == 0


def _fraction_winding(loop, pt):
    """The reference: ``_winding`` as it was on ``Fraction`` points."""
    px, py = pt
    total = 0
    for (ax, ay), (bx, by) in zip(loop, loop[1:]):
        if (ay <= py) == (by <= py):
            # a vertex at the point, or the point inside a horizontal edge
            if ay == py and (ax == px or by == py and (ax < px) != (bx < px)):
                raise NonGenericGeometry("winding query on the loop")
            continue
        # (x - px) (by - ay), with x where the edge meets the ray's line
        side = (ax - px) * (by - ay) + (py - ay) * (bx - ax)
        if side == 0:
            raise NonGenericGeometry("winding query on the loop")
        if (side > 0) == (by > ay):
            total += 1 if by > ay else -1
    return total


def _fraction_folds(points):
    """The reference: ``_folds`` as it was on ``Fraction`` points."""
    return any((ax - bx) * (cy - by) == (ay - by) * (cx - bx)
               and (ax - bx) * (cx - bx) + (ay - by) * (cy - by) > 0
               for (ax, ay), (bx, by), (cx, cy) in zip(points, points[1:], points[2:]))


def _outcome(call, *args):
    """The value of ``call``, or the message it raises."""
    try:
        return call(*args)
    except NonGenericGeometry as exc:
        return str(exc)


# a coarse grid over three denominators: the scaled points of a loop carry
# different d, and horizontal edges and collinear triples are common; query
# points come from the grid's middle, so many lie inside a loop
_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
_NEAR = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(loop=st.lists(st.tuples(_RATIONAL, _RATIONAL), min_size=3, max_size=7)
       .map(lambda pts: pts + pts[:1]),
       where=st.sampled_from(["free", "edge", "height"]), edge=st.integers(0, 6),
       t=st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1]), x=_NEAR, y=_NEAR)
def test_integer_winding_matches_fraction_reference(loop, where, edge, t, x, y):
    """The same winding number or the same raise as the reference, for a
    free point, a point on an edge (a vertex when t is 0 or 1) and a point
    at a vertex's height."""
    (ax, ay), (bx, by) = loop[edge % (len(loop) - 1): edge % (len(loop) - 1) + 2]
    pt = {"free": (x, y), "edge": (ax + t * (bx - ax), ay + t * (by - ay)),
          "height": (x, ay)}[where]
    assert _outcome(_winding, _keys(loop), point_key(pt)) == _outcome(_fraction_winding, loop, pt)


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(points=st.lists(st.tuples(_RATIONAL, _RATIONAL), min_size=2, max_size=7),
       at=st.integers(0, 6), t=st.sampled_from([-1, 0, Fraction(1, 2), 1, 2]))
def test_integer_folds_matches_fraction_reference(points, at, t):
    """The same answer as the reference, with a point put on the line
    through the two before it, before, between, on or past them."""
    if len(points) > 2:
        k = at % (len(points) - 2) + 2
        (ax, ay), (bx, by) = points[k - 2: k]
        points[k] = (ax + t * (bx - ax), ay + t * (by - ay))
    assert _folds(_keys(points)) == _fraction_folds(points)


def test_float_box_filter_keeps_the_exact_box(transports):
    """Every puncture in a quad's exact closed box passes the float box test
    ``homotopic_pair`` makes.  Corners are punctures, or punctures moved by
    less than a float can tell, so the box's sides run through punctures and
    round onto them."""
    rng = random.Random(20261020)
    for transport in transports.values():
        punctures, _ = transport.draw_region
        for _ in range(300):
            quad = [exact_point(rng.choice(punctures)[2]) for _ in range(4)]
            quad = [(x + Fraction(rng.choice([-1, 0, 1]), 10 ** 30), y) for x, y in quad]
            (lo_x, lo_y), (hi_x, hi_y) = map(min, zip(*quad)), map(max, zip(*quad))
            exact = [p for _, _, p in punctures
                     if lo_x <= Fraction(p[0], p[2]) <= hi_x
                     and lo_y <= Fraction(p[1], p[2]) <= hi_y]
            fxs, fys = [float(x) for x, _ in quad], [float(y) for _, y in quad]
            kept = [p for fx, fy, p in punctures
                    if min(fxs) <= fx <= max(fxs) and min(fys) <= fy <= max(fys)]
            assert exact and set(exact) <= set(kept)


def test_branch_monodromy_identity_quick(transports):
    transport = transports["mutation_a"]
    for vertex in transport.builder.weave.trivalent_vertices():
        assert transport.is_identity(transport.branch_monodromy(vertex.id))


def test_joint_monodromy_identity_quick(transports):
    transport = transports["five_crossing"]
    assert transport.builder.joints
    for joint in transport.builder.joints:
        assert transport.is_identity(transport.joint_monodromy(joint))


def _exact_clearances(builder, centers):
    """At each center, the least exact distance to a segment of an obstacle
    or a strand that does not pass through it, by brute force in integers
    (every point times the lcm s of all denominators), floored as
    ``clearance`` floors it."""
    polys = [seg.points for seg in builder.obstacles] + [s.polyline for s in builder.strands]
    s = math.lcm(*(c.denominator for pts in polys + [centers] for p in pts for c in p))
    segments = []
    for pts in polys:
        ints = [(int(x * s), int(y * s)) for x, y in pts]
        segments += zip(ints, ints[1:])
    out = []
    for cx, cy in centers:
        px, py = int(cx * s), int(cy * s)
        best = None
        for (ax, ay), (bx, by) in segments:
            dx, dy, ex, ey = bx - ax, by - ay, px - ax, py - ay
            dot, length2 = ex * dx + ey * dy, dx * dx + dy * dy
            if dot <= 0:
                d2 = Fraction(ex * ex + ey * ey)
            elif dot >= length2:
                d2 = Fraction((px - bx) ** 2 + (py - by) ** 2)
            else:
                d2 = Fraction((ex * dy - ey * dx) ** 2, length2)
            if d2 and (best is None or d2 < best):
                best = d2
        out.append(_rational_sqrt_floor(best / (s * s)))
    return out


def test_clearance_equals_exact_minimum(builders):
    """``clearance``, the least nonzero squared distance over the segments
    each on its own scale, gives the brute-force minimum on one common
    scale at every branch point and joint of the fixtures and of the
    seed-7 corpus weaves that build."""
    built = list(builders.values())
    for text in random_weave_texts(7, 400):
        try:
            built.append(build_forest_strands(bend_weave(parse_weave(text))))
        except RuntimeError:
            continue
    assert len(built) == 5 + 162
    for builder in built:
        transport = Transport(builder)
        centers = [v.point for v in builder.weave.trivalent_vertices()]
        centers += [tuple(joint["point"]) for joint in builder.joints]
        assert [transport.engine.clearance(c) for c in centers] == _exact_clearances(builder, centers)


# ----- reference: clearance in Fraction arithmetic -----

def _fraction_seg_distance2(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return (px - ax) ** 2 + (py - ay) ** 2
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = max(0, min(1, t))
    qx, qy = ax + t * dx, ay + t * dy
    return (px - qx) ** 2 + (py - qy) ** 2


def _fraction_clearance(builder, center):
    """``clearance`` with ``Fraction`` segments: the float pass orders them,
    and exact distances are taken while a float one may still win."""
    segments = []
    for pts in [seg.points for seg in builder.obstacles] + [s.polyline for s in builder.strands]:
        floats = [(float(x), float(y)) for x, y in pts]
        segments += zip(pts, pts[1:], floats, floats[1:])
    c = (float(center[0]), float(center[1]))
    approx = sorted(((math.sqrt(_fraction_seg_distance2(c, fa, fb)), a, b)
                     for a, b, fa, fb in segments), key=lambda entry: entry[0])
    best = None
    for distance, a, b in approx:
        if best is not None and distance > bound:
            break
        d = _fraction_seg_distance2(center, a, b)
        if d and (best is None or d < best):
            best, bound = d, math.sqrt(d) * (1 + 1e-9) + 1e-9
    return _rational_sqrt_floor(best)


def test_integer_distances_match_fraction_reference(builders):
    """The integer ``_seg_distance2`` and the clearance it serves equal the
    ``Fraction`` reference on the fixtures and the seed-20261018 random
    weaves: the exact distance to each segment of the forest's weave-line
    and wall tables and the clearance at every branch point and joint and
    at seeded points."""
    rng = random.Random(20261019)
    for builder in list(builders.values()) + list(random_weave_builders()):
        transport = Transport(builder)
        centers = [v.point for v in builder.weave.trivalent_vertices()]
        centers += [tuple(joint["point"]) for joint in builder.joints]
        centers += [(Fraction(rng.randint(0, 4000), 997), Fraction(-rng.randint(1, 4000), 997))
                    for _ in range(3)]
        for center in centers:
            px, py, pd = point_key(center)
            for *_, x, y, dx, dy, s in builder.weave_lines.segments + builder.walls.segments:
                a, b = (x, y), (x + dx, y + dy)
                n, m = soliton_bps._seg_distance2((px * s, py * s), (a[0] * pd, a[1] * pd),
                                              (b[0] * pd, b[1] * pd))
                assert Fraction(n, m * (pd * s) ** 2) == _fraction_seg_distance2(
                    center, exact_point((*a, s)), exact_point((*b, s)))
            assert transport.engine.clearance(center) == _fraction_clearance(builder, center)


def test_weave_line_check_reads_a_float_tied_param_exactly():
    """``transport_path`` rejects a wall crossing at one of the wall's
    weave-line params only when the two are exactly equal: an event whose
    float ties with the crossing's param but which lies just past it changes
    nothing, and one equal to it in other terms raises."""
    builder = build_forest_strands(bend_weave(parse_weave(EXAMPLES["five_crossing"])))
    path = [(Fraction(3619, 1994), Fraction(-199303, 63808)),
            (Fraction(17489, 1994), Fraction(-42411, 31904)),
            (Fraction(7937, 997), Fraction(-447425, 63808)),
            (Fraction(5975, 1994), Fraction(-420601, 63808)),
            (Fraction(10649, 1994), Fraction(-26235, 15952))]
    expected = Transport(builder).transport_path(path)
    # wall 2 is no joint's parent; the event goes past its later crossing
    wall = builder.strands[2]
    assert all(2 not in joint["parents"] for joint in builder.joints)
    j, f, t = max(pb for _, sid, pb, _, _ in builder.walls.crossings(path) if sid == 2)
    past = (j, f, Ratio(t.numerator * 2 ** 80 + t.denominator, t.denominator * 2 ** 80))
    assert past[2].numerator / past[2].denominator == f
    crossings = wall.crossings
    wall.crossings = sorted(crossings + [(past, 1, 1)])
    assert Transport(builder).transport_path(path) == expected
    wall.crossings = sorted(crossings + [((j, f, Ratio(2 * t.numerator, 2 * t.denominator)), 1, 1)])
    with pytest.raises(NonGenericGeometry,
                       match="path crosses wall 2 where it crosses a weave line"):
        Transport(builder).transport_path(path)


def test_wall_crossing_matrices_unipotent(transports):
    """(M - I) has a single off-diagonal entry and squares to zero."""
    transport = transports["mutation_a"]
    zero = LaurentPoly.zero(transport.gens)
    one = LaurentPoly.constant(transport.gens, 1)
    for strand in transport.builder.strands:
        param = param_of(len(strand.polyline) - 2, Fraction(1, 2))
        m = transport.transport_short(strand.id, param, 1)
        n = [[m[i][j] - (one if i == j else zero) for j in range(transport.n)]
             for i in range(transport.n)]
        nonzero = [(i, j) for i in range(transport.n)
                   for j in range(transport.n) if not n[i][j].is_zero()]
        assert len(nonzero) == 1
        sq = transport.matmul(n, n)
        assert all(sq[i][j].is_zero() for i in range(transport.n)
                   for j in range(transport.n))


def test_homotopy_invariance_smoke(transports):
    transport = transports["mutation_b"]
    rng = random.Random(7)
    for _ in range(5):
        p, q = homotopic_pair(transport, rng)
        assert transport.transport_path(p) == transport.transport_path(q)


def test_homotopic_pairs_do_not_fold(transports):
    """Draw 146 of this stream once returned a path whose first three
    vertices were collinear with the middle one outermost; its first two
    segments met one weave-line point, and transport raised
    NonGenericGeometry("duplicate crossing point").  Folding draws are
    drawn again, so every pair of the stream transports alike."""
    transport = transports["three_strand"]
    rng = random.Random("transport_paths:2501:three_strand")
    for _ in range(147):
        p, q = homotopic_pair(transport, rng)
        assert not _folds(_keys(p)) and not _folds(_keys(q))
        assert transport.transport_path(p) == transport.transport_path(q)


def test_homotopic_pairs_have_no_corner_on_a_line(transports):
    """Candidate 33 of this stream once had a corner on a weave line, at
    (2902/997, -2448/997), and transport raised NonGenericGeometry("polyline
    corner hit").  A point on a weave line or wall is drawn again, so every
    pair of the stream transports alike."""
    transport = transports["five_crossing"]
    rng = random.Random("transport_paths:5202:five_crossing")
    lines = transport.builder.weave_lines.segments + transport.builder.walls.segments
    for _ in range(34):
        p, q = homotopic_pair(transport, rng)
        assert not any(soliton_bps.on_a_segment(lines, point) for point in _keys(p + q))
        assert transport.transport_path(p) == transport.transport_path(q)


def test_folds_needs_collinear_points_with_the_middle_outside():
    assert _folds(_keys([(0, 0), (2, 0), (1, 0)]))
    assert _folds(_keys([(5, 5), (0, 0), (1, 1), (0, 0)]))
    assert not _folds(_keys([(0, 0), (1, 0), (2, 0)]))  # straight on
    assert not _folds(_keys([(0, 0), (1, 0), (1, 1)]))  # a turn
    assert not _folds(_keys([(0, 0), (0, 0), (1, 0)]))  # a repeated point is not a fold
    assert not _folds(_keys([(0, 0), (1, 0)]))


# sha256 of the exact text of every branch and joint monodromy matrix and of
# both matrices of 20 seeded homotopic pairs per fixture
TRANSPORT_DIGEST = "664835ce099563517b29208c90e3321ec809f6d239c0dd37baa2bf7db1a7e2f3"


def test_transport_matrices_equal_recorded_digest(builders):
    """Transport stays exactly what it was when the digest was recorded."""
    digest = hashlib.sha256()
    for name, builder in builders.items():
        transport = Transport(builder)
        matrices = [transport.branch_monodromy(v.id) for v in builder.weave.trivalent_vertices()]
        matrices += [transport.joint_monodromy(j) for j in builder.joints]
        rng = random.Random(23)
        for _ in range(20):
            p, q = homotopic_pair(transport, rng)
            matrices += [transport.transport_path(p), transport.transport_path(q)]
        for matrix in matrices:
            digest.update(("%s %r\n" % (name, [[str(e) for e in row] for row in matrix])).encode())
    assert digest.hexdigest() == TRANSPORT_DIGEST


# sha256 of the repr of 20 homotopic pairs per fixture, each fixture's drawn
# from random.Random("draws:<fixture>"), and of each stream's next random()
DRAWS_DIGEST = "a74f5f027fe6159ccd2bbc57a1c18747deb86b53e9b5369c262809e1eb094375"


def test_homotopic_pair_draws_are_pinned(transports):
    """The drawn points themselves, not only their transports, and the rng
    calls that drew them, stay what they were when the digest was recorded."""
    digest = hashlib.sha256()
    for name, transport in transports.items():
        rng = random.Random("draws:" + name)
        for _ in range(20):
            digest.update(("%s %r\n" % (name, homotopic_pair(transport, rng))).encode())
        digest.update(("%s %r\n" % (name, rng.random())).encode())
    assert digest.hexdigest() == DRAWS_DIGEST


def test_punctures_include_marked_point(builders):
    builder = builders["mutation_a"]
    pts = network_punctures(builder)
    assert point_key(exact_point(builder.bent.marked)) in pts


def test_local_system_respects_class_relations(transports):
    """The generator classes are independent, so a random unit per
    generator is a local system: the exact identity evaluates to the
    identity, and evaluation is multiplicative on two generators."""
    transport = transports["mutation_a"]
    rng = random.Random(3)
    engine = transport.engine
    for _ in range(5):
        ls = LocalSystemRank1.random(transport, rng)
        # exact identity matrix evaluates to the numeric identity
        ident = transport.identity()
        vals = ls.evaluate_matrix(ident)
        assert vals == [[1 if i == j else 0 for j in range(transport.n)]
                        for i in range(transport.n)]
        # evaluation is multiplicative on monomial products
        a = LaurentPoly.generator(transport.gens, engine.gen_names[0])
        b = LaurentPoly.generator(transport.gens, engine.gen_names[1])
        assert ls.evaluate(a * b) == ls.evaluate(a) * ls.evaluate(b)


def test_mutation_pair_shares_marked_point_values():
    table_a = augmentation(bend_weave(parse_weave(EXAMPLES["mutation_a"])))
    table_b = augmentation(bend_weave(parse_weave(EXAMPLES["mutation_b"])))
    for name in ("t_1", "t_2"):
        assert str(table_a[name]) == str(table_b[name])


DOUBLE_R3 = "n=3\ntop: 2 1 2\nmoves: h1 h1"


def test_double_hexavalent_chord_map_is_identity():
    weave = parse_weave(DOUBLE_R3)
    mapping = chord_map(weave)
    for name, value in mapping.items():
        assert value == LaurentPoly.generator(value.gens, name), name


def test_tetravalent_chord_map_swaps_the_two_chords():
    mapping = chord_map(parse_weave("n=4\ntop: 1 3\nmoves: x1"))
    gens = mapping["z_1"].gens
    z1, z2 = (LaurentPoly.generator(gens, g) for g in gens)
    assert mapping == {"z_1": z2, "z_2": z1}
    assert chord_map(parse_weave("n=4\ntop: 1 3\nmoves: x1 x1")) == {"z_1": z1, "z_2": z2}


def test_hexavalent_then_tetravalent_chord_map_composes_the_rules():
    """h1 on 1 2 1 sends z_1 to z_3, z_3 to z_1 and z_2 to z_2 + z_1 z_3
    (letters 1 < 2: sign +1); x3 on the slice 2 1 2 4 then swaps z_3 and
    z_4 in each image."""
    mapping = chord_map(parse_weave("n=5\ntop: 1 2 1 4\nmoves: h1 x3"))
    gens = mapping["z_1"].gens
    z1, z2, z3, z4 = (LaurentPoly.generator(gens, g) for g in gens)
    assert mapping == {"z_1": z4, "z_2": z2 + z1 * z4, "z_3": z1, "z_4": z3}


def test_single_hexavalent_chord_map_is_r3_substitution():
    weave = parse_weave("n=3\ntop: 2 1 2\nmoves: h1")
    mapping = chord_map(weave)
    gens = next(iter(mapping.values())).gens
    z = {k: LaurentPoly.generator(gens, "z_%d" % k) for k in (1, 2, 3)}
    assert mapping["z_1"] == z[3]
    assert mapping["z_3"] == z[1]
    assert mapping["z_2"] in (z[2] + z[1] * z[3], z[2] - z[1] * z[3])


# ----- the transport memos against direct computation -----

# the tests count the solves the memos make on each engine, so direct values
# call the class's own solver
_solve = HomologyEngine.class_of_chain


def _twist_at(builder, sid, param):
    """The twisting sign wall ``sid`` picks up at its own weave-line
    crossings before ``param``."""
    strand = builder.strands[sid]
    return walk_sheets(strand.start_label, strand.crossings, param)[1]


def _wall_sign(builder, sid):
    """The Stokes sign of a wall at its start, by the recursion over joint
    parents that ``Transport.stokes_sign`` unrolls over the flowtree: +1 for
    a seed wall; at a joint, the handedness of the parent tangents times
    each parent's sign and twist up to the joint."""
    joint = builder.born_at.get(sid)
    if joint is None:
        return 1
    value = 1 if joint["twist"] else -1
    for pid in joint["parents"]:
        value *= _wall_sign(builder, pid) * _twist_at(builder, pid, joint["params"][pid])
    return value


def _direct_coefficient(transport, sid, param):
    """The wall's Stokes coefficient at ``param``, computed afresh with the
    recursive sign, which the flowtree fold must equal."""
    builder, engine = transport.builder, transport.engine
    cls = _solve(engine, engine.tree_chain(sid, root_param=param))
    sign = _wall_sign(builder, sid) * _twist_at(builder, sid, param)
    assert transport.stokes_sign(sid, param) == sign, (sid, param)
    return LaurentPoly.monomial(transport.gens, cls, sign)


def _direct_free(transport, poly):
    """The free transport along ``poly``, computed afresh."""
    engine, n = transport.engine, transport.n
    path = LiftedPath(poly, transport.builder.events_along(poly))
    out = [[LaurentPoly.zero(transport.gens)] * n for _ in range(n)]
    for start in range(1, n + 1):
        (sheet,), sign = walk_sheets((start,), path.events)
        cls = _solve(engine, [(path, start, 1), (engine.cap(point_key(poly[0])), start, -1),
                              (engine.cap(point_key(poly[-1])), sheet, 1)])
        out[sheet - 1][start - 1] = LaurentPoly.monomial(transport.gens, cls, sign)
    return out


def _wall_params(transport, strand, rng, per_segment):
    """Seeded params on every segment (vertical legs included), the wall's
    weave-line events, and params where the cap's first leg runs at,
    inside and just outside CAP_EPS of a branch point's vertical line,
    where the slit word can change: x in and around [bx - CAP_EPS, bx]."""
    params = [p for p, _, _ in strand.crossings]
    branch_xs = sorted({v.point[0] for v in transport.builder.weave.trivalent_vertices()})
    for i, (a, b) in enumerate(zip(strand.polyline, strand.polyline[1:])):
        params += [param_of(i, Fraction(rng.randint(1, 996), 997)) for _ in range(per_segment)]
        if a[0] == b[0]:
            continue
        for bx in branch_xs:
            for x in [bx + CAP_EPS, bx - 2 * CAP_EPS] + [bx - CAP_EPS * k / 6 for k in range(7)]:
                t = (x - a[0]) / (b[0] - a[0])
                if 0 < t < 1:
                    params.append(param_of(i, t))
    rng.shuffle(params)
    return params


def _free_paths(transport, rng, count):
    """Seeded paths in y < 0: families with close ends (so keys repeat),
    straight paths whose start or end cap runs within CAP_EPS of a branch
    point's vertical line, just above or below the branch point, and paths
    that wind once or twice round a branch point."""
    engine = transport.engine
    branch = [v.point for v in transport.builder.weave.trivalent_vertices()]

    def point():
        return (Fraction(rng.randint(1, 999), 1000) * engine.x_max,
                engine.y_deep * Fraction(rng.randint(5, 995), 1000))

    def near(p):
        return (p[0] + Fraction(rng.randint(-50, 50), 10007),
                min(p[1] + Fraction(rng.randint(-50, 50), 10007), Fraction(-1, 64)))

    paths = []
    ends = [point() for _ in range(3)]
    for _ in range(count):
        kind = rng.randrange(4)
        first, last = near(rng.choice(ends)), near(rng.choice(ends))
        middle = [point() for _ in range(rng.randint(0, 2))]
        if kind in (1, 2):
            bx, by = rng.choice(branch)
            first = (bx - CAP_EPS * Fraction(rng.randint(0, 7), 7),
                     min(by + rng.choice((1, -1)) * Fraction(rng.randint(1, 40), 997),
                         Fraction(-1, 64)))
            middle = []
        if kind == 3:
            (bx, by), r = rng.choice(branch), Fraction(1, 5)
            middle = [(bx + r, by - r), (bx + r, by + r), (bx - r, by + r),
                      (bx - r, by - r)] * rng.randint(1, 2)
        path = [first] + middle + [last]
        paths.append(path[::-1] if kind == 2 else path)
    return paths


def _check_memos(transport, rng, walls, per_segment, paths):
    """Compare memo and direct values on ``walls`` seeded walls and
    ``paths`` seeded paths; returns the number of comparisons."""
    queries = 0
    strands = transport.builder.strands
    for strand in rng.sample(strands, min(walls, len(strands))):
        for param in _wall_params(transport, strand, rng, per_segment):
            try:
                direct = _direct_coefficient(transport, strand.id, param)
            except NonGenericGeometry:
                continue
            word = transport.engine.cap_word(interp(strand.path, param))
            assert transport.soliton_coefficient(strand.id, param, word) == direct, \
                (strand.id, param)
            queries += 1
    for poly in _free_paths(transport, rng, paths):
        try:
            direct = _direct_free(transport, poly)
        except NonGenericGeometry:
            continue
        memo = transport.transport_free(poly)
        assert memo == direct, poly
        memo[0][0] = None  # a caller may change what it gets back
        assert transport.transport_free(poly) == direct
        # the end cap's sheets _free_factor hands back, walked with the
        # start cap's sheets carried in
        (_, part, _, _), = transport._sub_paths(prepare(poly))
        _, sheets = transport._free_factor(part, _fresh_cap_sheets(transport, poly[0]))
        assert sheets == _fresh_cap_sheets(transport, poly[-1]), poly
        queries += 1
    return queries


def _fresh_cap_sheets(transport, point):
    """The sheet permutation of a cap at ``point``, walked afresh."""
    events = transport.builder.events_along(Polyline(transport.engine.cap_points(point_key(point))))
    return walk_sheets(tuple(range(1, transport.n + 1)), events)[0]


def test_transport_memos_equal_direct_values(builders):
    """Every Stokes coefficient and free transport the memos hand back
    equals a fresh computation, and the Stokes sign fold equals the
    recursion at every param compared: on the fixtures and on 30 seeded
    random weaves, at seeded params, at the walls' weave-line events and
    where the cap's first leg runs at, inside or just outside CAP_EPS of a
    branch point's vertical line, and along paths whose caps run past such
    a line."""
    rng = random.Random(20261019)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 30))
    assert len(forests) == 35
    queries = solves = 0
    for builder in forests:
        transport = Transport(builder)
        calls = []
        transport.engine.class_of_chain = lambda pieces: calls.append(1) or _solve(
            transport.engine, pieces)
        if builder in builders.values():
            queries += _check_memos(transport, rng, len(builder.strands), 2, 40)
        else:
            queries += _check_memos(transport, rng, 4, 1, 4)
        solves += len(calls)
    assert solves < queries  # the memos were hit


def _capped_wall_loop(transport, strand, p1, p2):
    """The loop cap(p1)^-1 wall[p1, p2] cap(p2), for p1 < p2 on ``strand``,
    built directly from the two caps and the wall's corners between."""
    path, caps = strand.path, transport.engine.cap_points
    corners = [(x, y, path.scale) for x, y in path.ints[p1[0] + 1: p2[0] + 1]]
    return Polyline(caps(interp(path, p1))[::-1] + corners + caps(interp(path, p2)))


def test_stokes_keys_equal_the_reference(builders):
    """For two params p1 < p2 on one wall, with wall words W,
    reduced(W(p1)^-1 W(p2)) equals the reduced slit word of the loop
    cap(p1)^-1 wall[p1, p2] cap(p2), built directly: at ``_wall_params``'s
    params, band edges included, on the fixtures and 10 seeded random
    weaves.  Pairs whose loop query raises are skipped."""
    rng = random.Random(20261024)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 10))
    compared = empty = 0
    for builder in forests:
        transport = Transport(builder)
        for strand in builder.strands:
            keyed = {}
            for param in _wall_params(transport, strand, rng, 1):
                word = transport.engine.cap_word(interp(strand.path, param))
                keyed[param[0], Fraction(param[2].numerator, param[2].denominator)] = \
                    param, transport.engine._wall_word(strand.id, param, word)
            for (p1, w1), (p2, w2) in itertools.combinations(
                    [keyed[t] for t in sorted(keyed)], 2):
                try:
                    crossings = cut_set(transport.engine).crossings(
                        _capped_wall_loop(transport, strand, p1, p2))
                except NonGenericGeometry:
                    continue
                loop = soliton_bps.freely_reduced([(cut, side) for _, cut, _, _, side in crossings])
                walked = soliton_bps.freely_reduced([(cut, -side) for cut, side in w1[::-1]] + w2)
                assert walked == loop, (strand.id, p1, p2)
                compared, empty = compared + 1, empty + (loop == ())
    assert 0 < empty < compared and compared > 5000, (empty, compared)


def test_cap_through_a_branch_point_reads_as_the_cap_left_of_it(builders):
    """A cap whose first leg runs through a branch point b, which ends its
    cut and its weave lines, meets neither there (a touch at a point that
    ends a line is no crossing), and is read as the cap just left of b: a
    path from a seeded start to the cap's start has the key, the direct
    free transport and the end cap sheets of the path to the point just
    left of it.  On the fixtures and 60 seeded random weaves, two probes per
    branch point; probes where a direct value raises are counted."""
    rng = random.Random(20261025)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 60))
    agreed = raised = 0
    for builder in forests:
        transport = Transport(builder)
        engine = transport.engine
        for bx, by in [v.point for v in builder.weave.trivalent_vertices()] * 2:
            # the cap from (x, by - h) runs to (x + CAP_EPS, -CAP_EPS / 2), through b
            h = Fraction(rng.randint(1, 200), 997)
            through = (bx - CAP_EPS * h / (h - by - CAP_EPS / 2), by - h)
            left = (through[0] - CAP_EPS / 1000, through[1])
            turn = exact_point(engine.cap_points(point_key(through))[1])
            assert (bx - through[0]) * (turn[1] - by) == (by - through[1]) * (turn[0] - bx)
            start = (Fraction(rng.randint(1, 999), 1000) * engine.x_max,
                     engine.y_deep * Fraction(rng.randint(5, 995), 1000))
            try:
                values = [(_direct_free(transport, [start, end]), _fresh_cap_sheets(transport, end))
                          for end in (through, left)]
            except NonGenericGeometry:
                raised += 1
                continue
            parts = [part for (_, part, _, _), in
                     (transport._sub_paths(prepare([start, end])) for end in (through, left))]
            assert parts[0] == parts[1] and parts[0] is not None, (bx, by)
            assert values[0] == values[1], (bx, by)
            agreed += 1
    assert agreed > 300 and raised < agreed / 4, (agreed, raised)


def test_cap_word_box_shortcut_equals_the_query(builders):
    """``cap_word`` answers [] with no query for a point whose float x is
    past every slit's float box; every answer, shortcut or queried, equals
    the whole cap's cut-set query, or where that has none (the point lies on
    a cut) the query at the point 2^-80 left of it (``left_cap_word``).
    Seeded points at each slit's top x and at the rightmost one, at a float
    tie (2^-70) away, at 1/10007 and at a seeded distance left and right of
    them, at y = 0, at the slit's height and deeper, and on each slit, on
    the fixtures, the two n = 4 x-move weaves and 20 seeded random weaves."""
    rng = random.Random(20261027)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 20))
    forests += [build_forest_strands(bend_weave(parse_weave(text))) for text in X_MOVE_WEAVES]
    counts = collections.Counter()
    for builder in forests:
        engine = Transport(builder).engine
        right = max(top[0] for _, top in engine.cuts)
        assert engine._cuts_right == float(right)
        points = []
        for (bx, by), (tx, _) in engine.cuts:
            t = Fraction(rng.randint(1, 999), 1000)
            points.append((bx + (tx - bx) * t, by * (1 - t)))
            for x in (tx, right):
                for dx in (0, Fraction(1, 2 ** 70), Fraction(1, 10007),
                           Fraction(rng.randint(1, 997), 997)):
                    for y in (Fraction(0), by * Fraction(rng.randint(1, 999), 1000),
                              engine.y_deep * Fraction(rng.randint(5, 995), 1000)):
                        points += [(x + dx, y), (x - dx, y)]
        for p in points:
            point = point_key(p)
            word = engine.cap_word(point)
            assert word == left_cap_word(engine, point), p
            shortcut = point[0] / point[2] > engine._cuts_right
            counts["shortcut" if shortcut else "left" if whole_cap_word(engine, point) is None
                   else "crossed" if word else "queried"] += 1
    assert min(counts.values()) > 50, counts


def test_junction_caps_make_no_crossing_query(builders, monkeypatch):
    """At every junction of two seeded homotopic pairs per fixture, each
    path's two ends and its wall crossings, ``cap_word`` makes no
    ``PolylineSet.crossings`` call: a cap's first-leg slits are read off
    the cut lines.  Each transported path makes three: the walls and the
    weave lines on the whole path, and the weave lines on its start cap's
    first leg; its cut crossings are read off the cut lines too."""
    calls = []
    crossings = PolylineSet.crossings
    monkeypatch.setattr(PolylineSet, "crossings",
                        lambda self, poly: calls.append(1) or crossings(self, poly))
    rng = random.Random(20261030)
    junctions = 0
    for builder in builders.values():
        transport = Transport(builder)
        for _ in range(2):
            for poly in homotopic_pair(transport, rng):
                path = prepare(poly)
                points = [*path.ends] + [pt for _, _, _, pt, _ in builder.walls.crossings(path)]
                calls.clear()
                for point in points:
                    transport.engine.cap_word(point)
                assert not calls, points
                transport.transport_path(poly)
                assert len(calls) == 3, poly
                junctions += len(points)
    assert junctions > 250, junctions


def test_forest_growth_makes_no_point_key_call(monkeypatch):
    """The forest reads the weave's integer layout and grows its strands
    as scaled integer points: on every fixture, ``build_forest_strands``
    makes no ``point_key`` call, through ``geometry`` or any ``specnet``
    module that imports it by name."""
    calls = []
    original = geometry.point_key
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "specnet"]:
        if getattr(module, "point_key", None) is original:
            monkeypatch.setattr(module, "point_key",
                                lambda point: calls.append(point) or original(point))
    for name, text in EXAMPLES.items():
        bent = bend_weave(parse_weave(text))
        builder = build_forest_strands(bent)
        assert not calls, (name, calls[:3])
        assert builder.strands
    # the count sees a call: prepare reads Fraction points through point_key
    geometry.prepare([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))])
    assert len(calls) == 2


def test_wall_classes_walk_on_from_prefix_states(builders):
    """``wall_class``, walked on from the wall's per-wall prefix states,
    equals the whole walk from its origin
    (``assert_wall_classes_walk_as_the_whole_walk``) at every wall's birth
    param and chord end and at every wall crossing of the TRANSPORT_DIGEST
    pairs, on the fixtures (the two corpus tests check the birth params
    and chord ends on every built weave)."""
    compared = 0
    for builder in builders.values():
        transport = Transport(builder)
        rng = random.Random(23)
        paths = [poly for _ in range(20) for poly in homotopic_pair(transport, rng)]
        compared += assert_wall_classes_walk_as_the_whole_walk(transport, paths)
    assert compared > 1800, compared


def test_path_reaching_y_0_has_no_free_key(builders):
    """A path that touches the boundary y = 0, or leaves y < 0, has no
    homotopy key: ``_sub_paths`` raises, naming the point, before it yields
    a sub-path, and so do ``transport_free`` and ``transport_path``.  The
    homotopic path below it runs left of every weave line, so it has a key
    with an empty slit word, and transports as the direct solve does."""
    low = [(Fraction(1, 4), -3), (Fraction(1, 2), -1), (Fraction(3, 4), -3)]
    for name, builder in builders.items():
        transport = Transport(builder)
        for top in (Fraction(0), Fraction(1, 2)):
            poly = [low[0], (Fraction(1, 2), top), low[2]]
            message = r"path point at or above y = 0: \(Fraction\(1, 2\), Fraction\(%d, %d\)\)" \
                % top.as_integer_ratio()
            for run in (lambda: next(transport._sub_paths(prepare(poly))),
                        lambda: transport.transport_free(poly),
                        lambda: transport.transport_path(poly)):
                with pytest.raises(NonGenericGeometry, match=message):
                    run()
        (_, part, _, _), = transport._sub_paths(prepare(low))
        assert part[1] == (), name
        assert transport.transport_free(low) == _direct_free(transport, low), name


def _direct_free_classes(transport, poly):
    """Per start sheet s of the free path ``poly``, computed afresh as
    ``_direct_free`` does: s's sheet at the marked point through the start
    cap, the class of the capped lift from s, the end sheet and twisting
    sign of the path's lift, and the end sheet at the marked point."""
    engine = transport.engine
    path = LiftedPath(poly, transport.builder.events_along(poly))
    start_cap, end_cap = (engine.cap(point_key(p)) for p in (poly[0], poly[-1]))
    starts, ends = (_fresh_cap_sheets(transport, p) for p in (poly[0], poly[-1]))
    out = []
    for start in range(1, transport.n + 1):
        (sheet,), sign = walk_sheets((start,), path.events)
        cls = _solve(engine, [(path, start, 1), (start_cap, start, -1), (end_cap, sheet, 1)])
        out.append((starts[start - 1], cls, sheet, sign, ends[sheet - 1]))
    return out


def test_free_classes_depend_on_marked_sheet_and_word_alone(builders):
    """The capped lift of a keyed sub-path from start sheet s runs from
    sheet t at the marked point, the start cap's sheet there, back to the
    marked point, along a loop whose class in the half-plane less the
    branch points is the reduced slit word w.  So its class and end marked
    sheet are functions of (t, w): direct per-sheet values, grouped by
    (t, w), agree within each group, and an empty word gives class 0 and
    end sheet t.  Along seeded homotopic pairs
    on the fixtures and 30 seeded random weaves, walked as transport walks
    them, ``_free_factor`` also hands back the direct entries and end cap
    sheets, and solves no class."""
    rng = random.Random(20261026)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 30))
    groups = collections.defaultdict(list)
    empty = 0
    for index, builder in enumerate(forests):
        transport = Transport(builder)
        calls = []
        transport.engine.class_of_chain = lambda pieces: calls.append(1) or _solve(
            transport.engine, pieces)
        for _ in range(3 if index < len(builders) else 1):
            for poly in homotopic_pair(transport, rng):
                path = prepare(poly)
                sheets = transport.engine.cap_sheets(path.ends[0])
                for points, part, _, _ in transport._sub_paths(path, builder.walls.crossings(path)):
                    solved = len(calls)
                    factor, sheets = transport._free_factor(part, sheets)
                    direct = _direct_free_classes(transport, [exact_point(p) for p in points])
                    word = part[1]
                    assert factor == [(sheet, cls, sign) for _, cls, sheet, sign, _ in direct], points
                    assert sheets == _fresh_cap_sheets(transport, exact_point(points[-1]))
                    for t, cls, _, _, marked in direct:
                        groups[index, t, word].append((cls, marked))
                        if not word:
                            assert (cls, marked) == ((0,) * len(transport.gens), t), points
                    assert len(calls) == solved, points
                    empty += not word
    assert all(len(set(values)) == 1 for values in groups.values())
    shared = sum(len(values) > 1 for (_, _, word), values in groups.items() if word)
    assert empty > 500 and shared > 100, (empty, shared)


def test_each_letter_is_a_signed_transposition(builders):
    """Each cut's letter, read from every marked sheet, swaps exactly two
    marked sheets, with classes c and -c, and leaves every other sheet in
    place with class 0: which is why a walk may ignore the side a loop
    crosses a cut.  On the fixtures and 20 seeded random weaves."""
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 20))
    letters = 0
    for builder in forests:
        transport = Transport(builder)
        zero = (0,) * len(transport.gens)
        for k in range(len(transport.engine.cuts)):
            row = {t: transport.engine._letters[t, k] for t in range(1, transport.n + 1)}
            (a, (c, b)), (b2, (c2, a2)) = [(t, v) for t, v in row.items() if v[1] != t]
            assert (a2, b2) == (a, b) and c2 == tuple(-x for x in c), (k, row)
            assert all(v == (zero, t) for t, v in row.items() if t not in (a, b)), (k, row)
            letters += 1
    assert letters > 80, letters


def test_after_construction_no_class_calls_tree_chain(builders, monkeypatch):
    """Once an engine is built, every wall class is read off slit words:
    ``bps_table``, ``augmentation`` and seeded homotopic pairs call
    ``tree_chain`` for no wall, and the pairs solve no class, every
    sub-path having a key, on the fixtures and 10 seeded random weaves.  ``augmentation`` builds its own engine, whose
    construction calls ``tree_chain`` for no strand: the letters' classes
    invert the b-strands' letter words, with no basis chain."""
    rng = random.Random(20261028)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 10))
    keyed = 0
    for builder in forests:
        transport = Transport(builder)
        engine, calls, walls = transport.engine, [], []
        engine.class_of_chain = lambda pieces: calls.append(1) or _solve(engine, pieces)
        engine.tree_chain = lambda sid, root_param=None: walls.append(sid) or \
            HomologyEngine.tree_chain(engine, sid, root_param)
        transport.catalog.bps_table()
        for _ in range(4):
            for poly in homotopic_pair(transport, rng):
                transport.transport_path(poly)
                keyed += len(_walk(transport, poly))
        assert not walls and not calls, (walls, calls)
        tree_chain = HomologyEngine.tree_chain
        with monkeypatch.context() as patch:
            patch.setattr(HomologyEngine, "tree_chain", lambda self, sid, root_param=None:
                          walls.append(sid) or tree_chain(self, sid, root_param))
            augmentation(builder.bent)  # on a forest grown again, alike
        assert not walls, walls
    assert keyed > 1000, keyed


def test_wall_classes_by_pieces_equal_direct_solves(builders):
    """``wall_class``, walked from the wall's origin, equals the class of
    the wall's tree chain solved directly: at each wall's birth param, its
    chord end, each joint param where it is a parent and ``_wall_params``'
    seeded params, on the fixtures and 20 seeded random weaves.  The first
    three always have a word, so no class there calls ``tree_chain``;
    seeded params whose direct solve raises are skipped."""
    rng = random.Random(20261029)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 20))
    counts = collections.Counter()
    for builder in forests:
        transport = Transport(builder)
        engine, walls = transport.engine, []
        engine.tree_chain = lambda sid, root_param=None: walls.append(sid) or \
            HomologyEngine.tree_chain(engine, sid, root_param)
        at_joints = collections.defaultdict(list)
        for joint in builder.joints:
            for pid, param in joint["params"].items():
                at_joints[pid].append(param)
        for strand in builder.strands:
            fixed = [BIRTH_PARAM, None] + at_joints[strand.id]
            for k, param in enumerate(fixed + _wall_params(transport, strand, rng, 1)):
                try:
                    direct = _solve(engine, HomologyEngine.tree_chain(engine, strand.id, param))
                except NonGenericGeometry:
                    assert k >= len(fixed), (strand.id, param)
                    continue
                point = strand.path.ends[1] if param is None else interp(strand.path, param)
                solved = len(walls)
                assert engine.wall_class(strand.id, param, engine.cap_word(point)) == direct, \
                    (strand.id, param)
                walked = len(walls) == solved
                assert walked or k >= len(fixed), (strand.id, param)
                counts["fixed" if k < len(fixed) else "walked" if walked else "solved"] += 1
    assert counts["fixed"] > 500 and counts["walked"] > 2000, counts


def _capped_loop(transport, path):
    """The loop the reference key is read from: the start cap reversed,
    ``path`` and the end cap."""
    caps, s = transport.engine.cap_points, path.scale
    return Polyline(caps(path.ends[0])[::-1] + [(x, y, s) for x, y in path.ints[1:]]
                    + caps(path.ends[1])[1:])


def _reference_free_key(transport, path, events, sheets):
    """A sub-path's free-memo key from one cut query on its capped loop, as
    transport formed it before the key was read off one walk of the whole
    path; None where a corner is not below y = 0 or the loop query raises."""
    if any(y >= 0 for _, y in path.ints):
        return None
    try:
        crossings = cut_set(transport.engine).crossings(_capped_loop(transport, path))
    except NonGenericGeometry:
        return None
    word = []
    for _, cut, _, _, side in crossings:
        if word and word[-1] == (cut, -side):
            word.pop()
        else:
            word.append((cut, side))
    return sheets, tuple((letter, side) for _, letter, side in events), tuple(word)


def _walk(transport, poly):
    """Each sub-path of ``poly`` as ``Transport._sub_paths`` walks it: (its
    ``Polyline``, its key part)."""
    path = prepare(poly)
    return [(Polyline(points), part) for points, part, _, _
            in transport._sub_paths(path, transport.builder.walls.crossings(path))]


def _check_walk_keys(transport, poly):
    """Check each key the walk forms along ``poly`` against the reference
    key: equal wherever that gives one.  Where it gives none, the capped
    loop meeting a cut at a corner (a sub-path end on a cut, or a cap
    turning on one) or one cut twice at one point (both caps of a sub-path
    whose ends share an x run one last leg), the sub-path transports as the
    direct solve does.  Returns the keys compared and the sub-paths
    checked directly."""
    equal = direct = 0
    for sub, part in _walk(transport, poly):
        sheets = transport.engine.cap_sheets(sub.ends[0])
        key = _reference_free_key(transport, sub, transport.builder.events_along(sub), sheets)
        if key is not None:
            assert (sheets,) + part == key, poly
            equal += 1
            continue
        points = [exact_point((x, y, sub.scale)) for x, y in sub.ints]
        assert transport.transport_free(points) == _direct_free(transport, points)
        direct += 1
    return equal, direct


def test_walk_keys_equal_the_reference(builders):
    """Along seeded homotopic pairs on every fixture, after each path has
    been transported, every key the walk forms checks out against the
    reference (``_check_walk_keys``), and the sub-paths with none, whose
    capped loops meet a cut twice at one point, transport as the direct
    solve does."""
    rng = random.Random(20261022)
    equal = direct = 0
    for builder in builders.values():
        transport = Transport(builder)
        for _ in range(24):
            for poly in homotopic_pair(transport, rng):
                try:
                    transport.transport_path(poly)
                except NonGenericGeometry:
                    continue
                counts = _check_walk_keys(transport, poly)
                equal, direct = equal + counts[0], direct + counts[1]
    assert equal > 2000 and direct > 10, (equal, direct)


def test_sub_paths_touching_a_cut_read_it_as_left_of_it(builders):
    """A path that starts or ends inside a branch cut, starts where its cap
    turns on a cut, or crosses a wall where the wall crosses a cut, reads
    that point as left of the cut: every sub-path has a key, including
    those touching the point, whose capped loops meet the cut at a corner
    and have no reference key (``_check_walk_keys`` checks them against the
    direct solve), and the path transports as the product of directly
    solved pieces does (``_direct_transport``)."""
    rng = random.Random(20261023)
    touched = 0
    for builder in builders.values():
        transport = Transport(builder)
        engine = transport.engine
        for b, top in transport.engine.cuts:
            inside = (b[0] + (top[0] - b[0]) * 3 / 7, b[1] * 4 / 7)
            # the cap from here turns at (x + CAP_EPS, -CAP_EPS / 2), inside the cut
            t = 1 - CAP_EPS / 2 / -b[1]
            turning = (b[0] + (top[0] - b[0]) * t - CAP_EPS, b[1] * 4 / 7)
            with pytest.raises(NonGenericGeometry, match="corner hit"):
                cut_set(engine).crossings(Polyline(engine.cap_points(point_key(turning))))
            other = (Fraction(rng.randint(1, 999), 1000) * engine.x_max,
                     engine.y_deep * Fraction(rng.randint(5, 995), 1000))
            for poly in ([inside, other], [other, inside], [turning, other]):
                assert all(part is not None for _, part in _walk(transport, poly))
                assert _check_walk_keys(transport, poly)[1] == 1, poly
                assert transport.transport_path(poly) == _direct_transport(transport, poly)
                touched += 1
            for _, _, _, pt, _ in builder.walls.crossings([b, top]):
                x, y = exact_point(pt)
                poly = [(x - Fraction(1, 61), y + Fraction(1, 53)),
                        (x + Fraction(1, 61), y - Fraction(1, 53))]
                assert (x, y) in [exact_point(sub.ends[1]) for sub, _ in _walk(transport, poly)]
                assert _check_walk_keys(transport, poly)[1] == 2, poly
                assert transport.transport_path(poly) == _direct_transport(transport, poly)
                touched += 1
    assert touched == 67


def test_corner_in_a_cut_or_segment_along_one_reads_as_moved_left(builders):
    """A path with a corner strictly inside a cut, and one with a segment
    along a cut, on which the cut query raises a corner hit (and on the
    segment alone a collinear overlap): a point on a cut lies left of it,
    so each transports as the same path with those points moved 2^-80 left
    does, through every cut of every fixture between two seeded points."""
    rng = random.Random(20261031)
    paths = 0
    for builder in builders.values():
        transport = Transport(builder)
        engine = transport.engine
        for b, top in engine.cuts:
            on = [(b[0] + (top[0] - b[0]) * t, b[1] * (1 - t))
                  for t in (Fraction(2, 7), Fraction(3, 7), Fraction(5, 7))]
            start, end = [(Fraction(rng.randint(1, 999), 1000) * engine.x_max,
                           engine.y_deep * Fraction(rng.randint(5, 995), 1000)) for _ in range(2)]
            with pytest.raises(NonGenericGeometry, match="collinear overlap"):
                cut_set(engine).crossings([on[0], on[2]])
            for inside in ([on[1]], [on[0], on[2]]):
                poly = [start, *inside, end]
                with pytest.raises(NonGenericGeometry, match="corner hit"):
                    cut_set(engine).crossings(poly)
                moved = [start, *(exact_point(just_left(point_key(p))) for p in inside), end]
                assert transport.transport_path(poly) == transport.transport_path(moved), poly
                paths += 1
    assert paths == 30


def test_path_ends_at_or_just_below_a_branch_point(builders):
    """A path that starts or ends at a branch point, a puncture, is rejected
    by name.  A point on a cut's line just below its branch point lies off
    the cut, so a path that starts there heading right, or ends there
    coming from the right, crosses no cut there: its capped loops have
    reference keys, equal to the walk's, and it transports as the product
    of directly solved pieces does."""
    for builder in builders.values():
        transport = Transport(builder)
        for b, top in transport.engine.cuts:
            below = (b[0] - (top[0] - b[0]) / 97, b[1] * 98 / 97)
            right = (transport.engine.x_max * 999 / 1000, below[1])
            for poly in ([b, right], [right, b]):
                with pytest.raises(NonGenericGeometry, match="path end at a branch point"):
                    transport.transport_path(poly)
            for poly in ([below, right], [right, below]):
                assert _check_walk_keys(transport, poly)[1] == 0, poly
                assert transport.transport_path(poly) == _direct_transport(transport, poly)


def test_path_through_a_branch_point_is_rejected(transports):
    """A path that meets a branch point, a puncture, at a corner or inside
    a segment is rejected by name, as one ending there is: the weave lines
    and the cut end there, so no query would see the touch.  On the five
    fixtures, for each of the 15 cut branch points b, the path (bx - 1/3,
    by - 1/5) -> b -> (bx + 1/4, by - 1/7) and a straight segment through
    b each raise."""
    paths = 0
    for transport in transports.values():
        for (bx, by), _ in transport.engine.cuts:
            corner = [(bx - Fraction(1, 3), by - Fraction(1, 5)), (bx, by),
                      (bx + Fraction(1, 4), by - Fraction(1, 7))]
            straight = [(bx - Fraction(1, 3), by - Fraction(1, 5)),
                        (bx + Fraction(1, 3), by + Fraction(1, 5))]
            for poly in (corner, straight):
                with pytest.raises(NonGenericGeometry, match=re.escape(
                        "path through a branch point: %r" % ((bx, by),))):
                    transport.transport_path(poly)
                paths += 1
    assert paths == 30


def _twice_through(x, y):
    """A path through (x, y) twice, with a wide loop between the passes."""
    steps = [(Fraction(1, 64), Fraction(-1, 32)), (Fraction(-1, 64), Fraction(1, 32)),
             (Fraction(55, 64), Fraction(-1, 64)), (Fraction(7, 64), Fraction(-9, 64)),
             (Fraction(-7, 64), Fraction(9, 64))]
    return [(x + dx, y + dy) for dx, dy in steps]


def test_path_meeting_a_weave_line_twice_at_one_point_is_rejected(builders):
    """A path whose two sub-paths cross one weave line at one point, with a
    wall crossed in between: the whole-path weave-line query raises, and so
    does ``transport_path``, with its error."""
    builder = builders["five_crossing"]
    poly = _twice_through(Fraction(3, 2), Fraction(-1, 4))
    with pytest.raises(NonGenericGeometry, match="duplicate crossing point"):
        builder.events_along(poly)
    assert any(pa[0] in (1, 2) for pa, *_ in builder.walls.crossings(poly))
    with pytest.raises(NonGenericGeometry, match="duplicate crossing point"):
        Transport(builder).transport_path(poly)


def test_path_meeting_a_cut_twice_at_one_point_transports_as_its_halves(builders):
    """A path whose two passes cross one cut at one point, with a wall
    crossed in between, on which the cut query raises "duplicate crossing
    point": the cut crossings are read per segment, so ``transport_path``
    equals the ``matmul`` product of the path's two halves, split at a
    corner between the two passes."""
    builder = builders["five_crossing"]
    transport = Transport(builder)
    (bx, by), (tx, _) = transport.engine.cuts[0]
    poly = _twice_through(bx + (tx - bx) * 3 / 7, by * 4 / 7)
    with pytest.raises(NonGenericGeometry, match="duplicate crossing point"):
        cut_set(transport.engine).crossings(poly)
    assert any(pa[0] in (1, 2) for pa, *_ in builder.walls.crossings(poly))
    halves = [transport.transport_path(half) for half in (poly[:3], poly[2:])]
    assert transport.transport_path(poly) == transport.matmul(halves[1], halves[0])


def test_branch_cuts_disjoint_and_left_of_marked_point(builders):
    for builder in builders.values():
        transport = Transport(builder)
        branch = [v.point for v in builder.weave.trivalent_vertices()]
        assert [cut[0] for cut in transport.engine.cuts] == branch
        for (b, top), (c, top2) in itertools.combinations(transport.engine.cuts, 2):
            assert not _segments_meet(b, top, c, top2)
        for _b, (x, y) in transport.engine.cuts:
            assert y == 0 and x < exact_point(builder.bent.marked)[0]


def _segments_meet(a, b, c, d):
    """Whether closed segments ab and cd share a point, exact."""
    def orient(p, q, r):
        value = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (value > 0) - (value < 0)

    def within(p, q, r):
        return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and \
            min(p[1], q[1]) <= r[1] <= max(p[1], q[1])

    o = [orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)]
    if o[0] != o[1] and o[2] != o[3] and 0 not in o:
        return True
    return any(value == 0 and within(*seg, r) for value, seg, r in
               zip(o, ((a, b), (a, b), (c, d), (c, d)), (c, d, a, b)))


# ----- transport_path's row operations against the matrix product -----

def _direct_short(transport, sid, param, side):
    """The Stokes matrix for crossing wall ``sid`` at ``param`` on
    ``side``, its coefficient solved afresh (``_direct_coefficient``)."""
    (i, j), out = transport.builder.strands[sid].label_at(param), transport.identity()
    out[i - 1][j - 1] += _direct_coefficient(transport, sid, param) * side
    return out


def _direct_transport(transport, poly):
    """Transport along ``poly`` as the matmul product of its pieces, each
    solved afresh by pairing: ``_direct_free`` and ``_direct_short``."""
    return _matrix_product_transport(transport, poly, lambda sub: _direct_free(transport, sub),
                                     lambda *crossing: _direct_short(transport, *crossing))


def _matrix_product_transport(transport, poly, free=None, short=None):
    """Transport along ``poly`` as the matmul product of the ``free`` and
    ``short`` matrices (default: transport_free and transport_short), each
    sub-path capped afresh."""
    free, short = free or transport.transport_free, short or transport.transport_short

    def dedupe(points):
        return [p for k, p in enumerate(points) if k == 0 or p != points[k - 1]]

    poly = [tuple(p) for p in poly]
    total = transport.identity()
    prev_pt, prev_idx = poly[0], 0
    for pa, sid, pb, pt, side in transport.builder.walls.crossings(poly):
        pt = exact_point(pt)
        sub = dedupe([prev_pt] + poly[prev_idx + 1: pa[0] + 1] + [pt])
        if len(sub) > 1:
            total = transport.matmul(free(sub), total)
        total = transport.matmul(short(sid, pb, side), total)
        prev_pt, prev_idx = pt, pa[0]
    sub = dedupe([prev_pt] + poly[prev_idx + 1:])
    if len(sub) > 1:
        total = transport.matmul(free(sub), total)
    return total


def test_transport_path_equals_matrix_product(builders):
    """The row operations of transport_path give the matmul product of the
    elementary matrices: along seeded homotopic pairs and the memo tests'
    paths, on the fixtures, on 10 seeded random weaves and on the two n = 4
    x-move weaves.  Every entry is a polynomial in the transport's
    generators with no zero coefficient: ``LaurentPoly`` equality compares
    the raw term dicts, so a kept zero would break it."""
    rng = random.Random(20261020)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 10))
    forests += [build_forest_strands(bend_weave(parse_weave(text))) for text in X_MOVE_WEAVES]
    compared = 0
    for builder in forests:
        transport = Transport(builder)
        paths = [path for _ in range(3) for path in homotopic_pair(transport, rng)]
        paths += _free_paths(transport, rng, 6)
        for poly in paths:
            try:
                expected = _matrix_product_transport(transport, poly)
            except NonGenericGeometry:
                continue
            matrix = transport.transport_path(poly)
            assert matrix == expected, poly
            assert all(entry.gens == transport.gens and all(entry.terms.values())
                       for row in matrix for entry in row), poly
            compared += 1
    assert compared >= 10 * len(forests)


def test_weave_with_no_branch_point_transports_without_a_solve():
    """A weave with no trivalent vertex has no cut, no wall and no cycle
    generator: every cap word is [] with no query, so every capped loop in
    y < 0 is contractible and transport solves no class.  Homotopic pairs
    transport alike, and as the directly solved free transport does.  The
    empty basis also solves the augmentation: every chord is 0 and every
    t_i is -1, and the top-boundary identity holds."""
    for text in ("n=3\ntop: 1 2 1\nmoves: h1", "n=4\ntop: 1 3 2\nmoves: x1"):
        builder = build_forest_strands(bend_weave(parse_weave(text)))
        transport = Transport(builder)
        assert not transport.engine.cuts and not builder.strands and transport.engine._cuts_right == -math.inf
        assert transport.gens == ()
        rng = random.Random(text)
        pairs = [homotopic_pair(transport, rng) for _ in range(3)]
        direct = [_direct_free(transport, p) for p, _ in pairs]
        calls = []
        transport.engine.class_of_chain = lambda pieces: calls.append(1) or _solve(
            transport.engine, pieces)
        for (p, q), expected in zip(pairs, direct):
            assert transport.transport_path(p) == transport.transport_path(q) == expected, text
        assert not calls, text
        table = augmentation(builder.bent)
        assert table == {**{name: LaurentPoly.zero(()) for name in builder.bent.chord_names},
                         **{"t_%d" % i: LaurentPoly.constant((), -1)
                            for i in range(1, transport.n + 1)}}, text
        assert top_boundary_fault(transport, table) is None, text


def test_top_boundary_transport_is_the_augmentation(transports):
    """On each fixture, transport just below the top boundary is the
    product of one braid matrix B(i_q, c_q) per chord, diagonal with
    entries plus or minus the inverse t_i, and each c_q has the monomials
    of the chord's augmentation value (``top_boundary_fault``)."""
    for name, transport in transports.items():
        assert top_boundary_fault(transport, augmentation(transport.builder.bent)) is None, name


def test_repeated_corner_leaves_transport_unchanged(builders):
    """A path with a corner repeated, at its start, inside or at its end,
    gives the matrix of the path without the repeat, on fresh transports
    so that no memo entry of the plain path serves the repeated one."""
    rng = random.Random(20261021)
    for name, builder in builders.items():
        plain, repeated = Transport(builder), Transport(builder)
        for _ in range(2):
            for path in homotopic_pair(plain, rng):
                k = rng.randrange(len(path))
                for poly in (path[:1] + path, path[:k + 1] + path[k:], path + path[-1:]):
                    assert repeated.transport_path(poly) == plain.transport_path(path), (name, poly)


def test_path_through_a_wall_weave_line_crossing_names_the_wall(builders):
    """A path that crosses a wall exactly where the wall crosses a weave line
    raises an error naming the wall (the neighbouring sub-paths both end at
    that point, where the weave-line event is no crossing of either)."""
    transport = Transport(builders["three_strand"])
    path = [(Fraction(1277, 768), Fraction(-5867, 10752)),
            (Fraction(1789, 768), Fraction(-4843, 10752))]
    point = (Fraction(511, 256), Fraction(-255, 512))
    wall = transport.builder.strands[0]
    hits = [(pb, exact_point(pt))
            for _, sid, pb, pt, _ in transport.builder.walls.crossings(path) if sid == 0]
    assert hits == [(param_of(8, Fraction(1, 256)), point)]
    assert param_of(8, Fraction(1, 256)) in [param for param, letter, _ in wall.crossings
                                             if letter == 2]
    with pytest.raises(NonGenericGeometry, match="path crosses wall 0 where it crosses a weave line"):
        transport.transport_path(path)


@pytest.mark.parametrize("text, strands", [(X_MOVE_WEAVES[0], 3), (X_MOVE_WEAVES[1], 6)],
                         ids=["one-branch-point", "two-branch-points"])
def test_strand_climbing_through_a_tetravalent_vertex(text, strands):
    """A strand walking up to its chord passes straight through a
    tetravalent (x move) vertex.  Monodromy stays the identity, the BPS
    recursion equals brute force and homotopic paths transport alike."""
    bent = bend_weave(parse_weave(text))
    weave = bent.weave
    builder = build_forest_strands(bent)
    # a strand climbing through a vertex passes delta left of its point
    climbed = [v.kind for v in weave.vertices for s in builder.strands
               if (v.point[0] - s.delta, v.point[1]) in s.polyline]
    assert len(builder.strands) == strands and "tetravalent" in climbed
    transport = Transport(builder)
    loops = [transport.branch_monodromy(v.id) for v in weave.trivalent_vertices()]
    loops += [transport.joint_monodromy(joint) for joint in builder.joints]
    assert all(transport.is_identity(m) for m in loops)
    assert transport.catalog.bps_table() == transport.catalog.bps_table_bruteforce()
    rng = random.Random(1)
    for _ in range(3):
        p, q = homotopic_pair(transport, rng)
        assert transport.transport_path(p) == transport.transport_path(q)
