import itertools
import random
from fractions import Fraction

import pytest

from specnet.geometry import NonGenericGeometry, twist_sign as _perm_sign, walk_sheets
from specnet.laurent import LaurentPoly
from specnet.nonabel import (
    LocalSystemRank1,
    Transport,
    _winding,
    augmentation,
    chord_map,
    homotopic_pair,
    network_punctures,
)
from specnet.soliton_bps import CAP_EPS, HomologyEngine, LiftedPiece
from specnet.weave import bend_weave, parse_weave

from conftest import EXAMPLES, random_weave_builders


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


def test_winding():
    square = [(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(-1)),
              (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)),
              (Fraction(-1), Fraction(-1))]
    assert _winding(square, (Fraction(0), Fraction(0))) == 1
    assert _winding(square, (Fraction(2), Fraction(0))) == 0
    assert _winding(list(reversed(square)), (Fraction(0), Fraction(0))) == -1


def test_branch_monodromy_identity_quick(transports):
    transport = transports["mutation_a"]
    for vertex in transport.builder.weave.trivalent_vertices():
        assert transport.is_identity(transport.branch_monodromy(vertex.id))


def test_joint_monodromy_identity_quick(transports):
    transport = transports["five_crossing"]
    assert transport.builder.joints
    for joint in transport.builder.joints:
        assert transport.is_identity(transport.joint_monodromy(joint))


def test_wall_crossing_matrices_unipotent(transports):
    """(M - I) has a single off-diagonal entry and squares to zero."""
    transport = transports["mutation_a"]
    zero = LaurentPoly.zero(transport.gens)
    one = LaurentPoly.constant(transport.gens, 1)
    for strand in transport.builder.strands:
        param = (len(strand.polyline) - 2, Fraction(1, 2))
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


def test_punctures_include_marked_point(builders):
    builder = builders["mutation_a"]
    pts = network_punctures(builder)
    assert (builder.bent.marked_x, Fraction(0)) in pts


def test_local_system_respects_class_relations(transports):
    """Generator values come from test-curve pairings, so any integer
    relation among basis classes evaluates consistently."""
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
        b = LaurentPoly.generator(transport.gens, "t_1")
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


def _direct_coefficient(transport, sid, param):
    """The wall's Stokes coefficient at ``param``, computed afresh."""
    engine, strand = transport.engine, transport.builder.strands[sid]
    cyc, arc = _solve(engine, engine.tree_chain(sid, root_param=param))
    sign = transport.wall_sign(sid) * walk_sheets(strand.start_label, strand.crossings, param)[1]
    return LaurentPoly.monomial(transport.gens, cyc + arc, sign)


def _direct_free(transport, poly):
    """The free transport along ``poly``, computed afresh."""
    engine, n = transport.engine, transport.n
    path = LiftedPiece(poly, 1, transport.builder.events_along(poly), 1)
    out = [[LaurentPoly.zero(transport.gens)] * n for _ in range(n)]
    for start in range(1, n + 1):
        (sheet,), sign = walk_sheets((start,), path.events)
        cyc, arc = _solve(engine, [path.relift(start, 1), engine.cap(poly[0], start, -1),
                                   engine.cap(poly[-1], sheet, 1)])
        out[sheet - 1][start - 1] = LaurentPoly.monomial(transport.gens, cyc + arc, sign)
    return out


def _wall_params(transport, strand, rng, per_segment):
    """Seeded params on every segment (vertical legs included), the wall's
    weave-line events, and params at, inside and just outside each band
    [bx - CAP_EPS, bx] the wall crosses."""
    params = [p for p, _, _ in strand.crossings]
    for i, (a, b) in enumerate(zip(strand.polyline, strand.polyline[1:])):
        params += [(i, Fraction(rng.randint(1, 996), 997)) for _ in range(per_segment)]
        if a[0] == b[0]:
            continue
        for bx in transport.branch_xs:
            for x in [bx + CAP_EPS, bx - 2 * CAP_EPS] + [bx - CAP_EPS * k / 6 for k in range(7)]:
                t = (x - a[0]) / (b[0] - a[0])
                if 0 < t < 1:
                    params.append((i, t))
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
            assert transport.soliton_coefficient(strand.id, param) == direct, (strand.id, param)
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
        queries += 1
    return queries


def test_transport_memos_equal_direct_values(builders):
    """Every Stokes coefficient and free transport the memos hand back
    equals a fresh computation: on the fixtures and on 30 seeded random
    weaves, at seeded params, params at cut params and in the bands, and
    along paths whose caps run past a branch point's vertical line."""
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


def test_branch_cuts_disjoint_and_left_of_marked_point(builders):
    for builder in builders.values():
        transport = Transport(builder)
        branch = [v.point for v in builder.weave.trivalent_vertices()]
        assert [cut[0] for cut in transport.cuts] == branch
        for (b, top), (c, top2) in itertools.combinations(transport.cuts, 2):
            assert not _segments_meet(b, top, c, top2)
        for _b, (x, y) in transport.cuts:
            assert y == 0 and x < builder.bent.marked_x


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
