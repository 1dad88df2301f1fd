import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from specnet import nonabel
from specnet.geometry import (
    NonGenericGeometry, exact_point, twist_sign as _perm_sign, walk_sheets)
from specnet.laurent import LaurentPoly
from specnet.nonabel import (
    LocalSystemRank1,
    Transport,
    _dedupe,
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
        # the end cap's sheets free_factor hands back, from the memo where
        # the path has a key, with the start cap's sheets carried in
        _, sheets = transport.free_factor(poly, _fresh_cap_sheets(transport, poly[0]))
        assert sheets == _fresh_cap_sheets(transport, poly[-1]), poly
        queries += 1
    return queries


def _fresh_cap_sheets(transport, point):
    """The sheet permutation of a cap at ``point``, walked afresh."""
    events = transport.builder.events_along(transport.engine.cap_polyline(tuple(point)))
    return walk_sheets(tuple(range(1, transport.n + 1)), events)[0]


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


class _InsertLog(dict):
    """A dict that logs each key stored and its size after the store."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.log.append((key, len(self)))


def test_free_memo_bound_evicts_oldest_and_keeps_matrices(builders, monkeypatch):
    """With MAX_FREE_KEYS at 2, transport matrices equal those of a
    transport whose memo never evicts, the memo never holds more than 2
    entries, and the 2 it keeps are the newest."""
    rng = random.Random(20261019)
    for name in ("five_crossing", "three_strand"):
        unbounded = Transport(builders[name])
        paths = [path for _ in range(4) for path in homotopic_pair(unbounded, rng)]
        expected = [unbounded.transport_path(path) for path in paths]
        assert 2 < len(unbounded._free) < nonabel.MAX_FREE_KEYS
        monkeypatch.setattr(nonabel, "MAX_FREE_KEYS", 2)
        bounded = Transport(builders[name])
        bounded._free = memo = _InsertLog()
        assert [bounded.transport_path(path) for path in paths] == expected
        assert max(size for _, size in memo.log) == 2 < len(memo.log)
        assert list(memo) == [key for key, _ in memo.log[-2:]]
        monkeypatch.undo()


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


# ----- transport_path's row operations against the matrix product -----

def _matrix_product_transport(transport, poly):
    """Transport along ``poly`` as the matmul product of the transport_free
    and transport_short matrices, each sub-path capped afresh."""
    poly = [tuple(p) for p in poly]
    total = transport.identity()
    prev_pt, prev_idx = poly[0], 0
    for pa, sid, pb, pt, side in transport.builder.walls.crossings(poly):
        pt = exact_point(pt)
        sub = _dedupe([prev_pt] + poly[prev_idx + 1: pa[0] + 1] + [pt])
        if len(sub) > 1:
            total = transport.matmul(transport.transport_free(sub), total)
        total = transport.matmul(transport.transport_short(sid, pb, side), total)
        prev_pt, prev_idx = pt, pa[0]
    sub = _dedupe([prev_pt] + poly[prev_idx + 1:])
    if len(sub) > 1:
        total = transport.matmul(transport.transport_free(sub), total)
    return total


def test_transport_path_equals_matrix_product(builders):
    """The row operations of transport_path give the matmul product of the
    elementary matrices: along seeded homotopic pairs and the memo tests'
    paths, on the fixtures and on 10 seeded random weaves."""
    rng = random.Random(20261020)
    forests = list(builders.values()) + list(itertools.islice(random_weave_builders(), 10))
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
            assert transport.transport_path(poly) == expected, poly
            compared += 1
    assert compared >= 10 * len(forests)


def test_path_through_a_wall_weave_line_crossing_names_the_wall(builders):
    """A path that crosses a wall exactly where the wall crosses a weave line
    raises an error naming the wall (the neighbouring sub-paths both end at
    that point, where the weave-line event is no crossing of either)."""
    transport = Transport(builders["three_strand"])
    path = [(Fraction(1277, 768), Fraction(-5867, 10752)),
            (Fraction(1789, 768), Fraction(-4843, 10752))]
    point = (Fraction(511, 256), Fraction(-255, 512))
    wall = transport.builder.strands[0]
    hits = [(pb, exact_point(pt)) for _, sid, pb, pt, _ in transport.builder.walls.crossings(path)
            if sid == 0]
    assert hits == [((8, Fraction(1, 256)), point)]
    assert (8, Fraction(1, 256)) in [param for param, letter, _ in wall.crossings if letter == 2]
    with pytest.raises(NonGenericGeometry, match="path crosses wall 0 where it crosses a weave line"):
        transport.transport_path(path)
