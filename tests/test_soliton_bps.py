import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings, strategies as st

from specnet.forest import build_forest_strands
from specnet.geometry import NonGenericGeometry, PolylineSet, param_of, point_key, prepare, transpose
from specnet.laurent import LaurentPoly, solve_rational
from specnet.nonabel import Transport, augmentation
from specnet.soliton_bps import (
    BIRTH_PARAM,
    CAP_EPS,
    HomologyEngine,
    LiftedPath,
    PairingLines,
    SolitonCatalog,
    SolitonClass,
    quadratic_refinement,
)
from specnet.weave import bend_weave, parse_weave

from conftest import (EXAMPLES, X_MOVE_WEAVES, arc_chains, assert_arc_walks_equal_solves,
                      assert_basis_walks_are_units, assert_caps_read_off_the_top_line,
                      assert_letters_read_off_the_cuts, cap_sheets_or_message, left_cap_word,
                      random_weave_builders, whole_cap_sheets, whole_cap_word)
from test_laurent import _gauss_jordan_solve, factors, fraction_factors


@pytest.fixture(scope="module")
def catalogs(builders):
    return {name: SolitonCatalog(builder)
            for name, builder in builders.items()}


def test_quadratic_refinement_values():
    assert quadratic_refinement(()) == 0
    assert quadratic_refinement((1,)) == 0
    assert quadratic_refinement((2,)) == 1
    assert quadratic_refinement((-1,)) == 1
    assert quadratic_refinement((-1, -1)) == 2
    assert quadratic_refinement((3, -2)) == 6


def test_effective_sign_and_twist():
    assert SolitonClass((1, 0), 1, 0).effective_sign == 1
    assert SolitonClass((1, 0), 1, 1).effective_sign == -1
    assert SolitonClass((1, 0), -1, 1).effective_sign == 1


def test_engine_matrix_full_rank(catalogs):
    # construction runs the rank check; re-assert the shape here
    for catalog in catalogs.values():
        engine = catalog.engine
        cols = len(engine.gen_names)
        assert all(len(row) == cols for row in engine.matrix)
        assert engine._factored.pivots == list(range(cols))


def test_class_additivity_at_joints(catalogs):
    """The child's class at birth is the sum of the parents' at the joint."""
    for catalog in catalogs.values():
        engine = catalog.engine
        builder = catalog.builder
        for joint in builder.joints:
            child = joint["child"]
            cls_c = engine.class_of_chain(engine.tree_chain(child, root_param=BIRTH_PARAM))
            total = [0] * len(cls_c)
            for pid in joint["parents"]:
                cls = engine.class_of_chain(
                    engine.tree_chain(pid, root_param=joint["params"][pid]))
                total = [a + b for a, b in zip(total, cls)]
            assert tuple(total) == cls_c


def _check_joint_records(builder):
    """Each joint lists its parents as (ij, jk), and its twist bit is 1
    exactly when d_ij x d_jk > 0 for the parents' tangents there."""
    for joint in builder.joints:
        pij, pjk = joint["parents"]
        lij = builder.strands[pij].label_at(joint["params"][pij])
        ljk = builder.strands[pjk].label_at(joint["params"][pjk])
        assert lij[1] == ljk[0]
        assert (lij[0], ljk[1]) == builder.strands[joint["child"]].start_label
        dij = _tangent(builder.strands[pij].polyline, joint["params"][pij][0])
        djk = _tangent(builder.strands[pjk].polyline, joint["params"][pjk][0])
        assert joint["twist"] == (1 if dij[0] * djk[1] - dij[1] * djk[0] > 0 else 0)


def test_joint_parent_order_shares_lower_sheet(catalogs):
    for catalog in catalogs.values():
        _check_joint_records(catalog.builder)


def test_joint_records_on_random_weaves():
    """The joint record against the tangents on seeded random weaves with
    a reduced bottom (t and h moves on n = 3 strands)."""
    joints = 0
    for builder in random_weave_builders():
        _check_joint_records(builder)
        joints += len(builder.joints)
    assert joints >= 50  # 99 joints on 19 of the 45 weaves that build


def test_bps_recursion_matches_bruteforce_small(catalogs):
    for name in ("mutation_a", "five_crossing"):
        catalog = catalogs[name]
        assert catalog.bps_table() == catalog.bps_table_bruteforce()


def test_initial_wall_indices_are_unit(catalogs):
    for catalog in catalogs.values():
        # one class per wall, of index 1; an initial wall's has no twist
        table = catalog.bps_table()
        assert len(table) == len(catalog.builder.strands)
        for strand, rho in zip(catalog.builder.strands, table):
            if strand.origin[0] == "branch":
                assert rho.h_parity == 0


def test_marked_point_arc_product_is_unit():
    """The boundary-arc values multiply to +-1: the arcs tile the boundary,
    so every cycle generator cancels from the product."""
    for text in EXAMPLES.values():
        bent = bend_weave(parse_weave(text))
        table = augmentation(bent)
        n = bent.weave.strand_count
        gens = next(iter(table.values())).gens
        prod = LaurentPoly.constant(gens, 1)
        for i in range(1, n + 1):
            prod = prod * table["t_%d" % i]
        assert prod in (LaurentPoly.constant(gens, 1),
                        LaurentPoly.constant(gens, -1))


def test_augmentation_values_are_laurent_in_s_only():
    bent = bend_weave(parse_weave(EXAMPLES["sigma1_6"]))
    table = augmentation(bent)
    for value in table.values():
        assert all(g.startswith("s_") for g in value.gens)


# ----- reference: every test lift paired separately, then a fresh solve -----

def _test_lines(engine):
    """The engine's test curves as point lists, in pairing-matrix order."""
    lines = []
    x = Fraction(1, 3)
    while x < engine.x_max + 1:
        lines.append([(x, Fraction(0)), (x, engine.y_deep - 2)])
        x += 1
    y = Fraction(-1, 3)
    while y > engine.y_deep:
        lines.append([(Fraction(-3), y), (engine.x_max + 3, y)])
        y -= 1
    return lines


def _reference_tests(engine):
    """The engine's test curves as separate (path, sheet, orientation)
    lifts, in pairing-matrix row order."""
    n, lines = engine.weave.strand_count, _test_lines(engine)
    # weave-line events line by line, each segment a set of its own; a
    # LiftedPath takes its events sorted, so the merged lists are sorted
    segments = [PolylineSet([(seg.points, seg.letter)]) for seg in engine.obstacles]
    events = [sorted((pa, letter, side) for one in segments
                     for pa, letter, _, _, side in one.crossings(poly)) for poly in lines]
    return [(LiftedPath(poly, line_events), sheet, 1)
            for poly, line_events in zip(lines, events) for sheet in range(1, n + 1)]


def _sheet_at(lift, param):
    path, sheet, _ = lift
    for p, letter, _ in path.events:
        if p >= param:
            break
        sheet = transpose(sheet, letter)
    return sheet


def _tangent(poly, i):
    return (poly[i + 1][0] - poly[i][0], poly[i + 1][1] - poly[i][1])


def _reference_vector(chain, tests):
    vector = []
    for test in tests:
        one = PolylineSet([(test[0].polyline, 0)])
        total = 0
        for lift in chain:
            path, _, orientation = lift
            # side is the sign of (test tangent) x (path tangent)
            for pa, _, pb, _pt, side in one.crossings(path.polyline):
                if _sheet_at(lift, pa) == _sheet_at(test, pb):
                    total -= orientation * side
        vector.append(total)
    return vector


def _answers_like_members(whole, members, P, joins=()):
    """Whether ``whole.crossings(P)`` found crossings without raising,
    after checking that it equals the sorted union of the answers of the
    one-member sets of ``members`` (tags kept) and that it raises exactly
    when one of those does, with the message of the first that does."""
    expected, fault = [], None
    for Q, tag in members:
        try:
            expected += PolylineSet([(Q, tag)], joins).crossings(P)
        except NonGenericGeometry as err:
            fault = fault or str(err)
    if fault is not None:
        with pytest.raises(NonGenericGeometry) as raised:
            whole.crossings(P)
        assert str(raised.value) == fault
        return False
    assert whole.crossings(P) == sorted(expected)
    return bool(expected)


def test_whole_sets_answer_like_their_members(catalogs):
    """On the five fixtures, the weave lines and the walls, queried with
    every strand path and every test line, answer like their one-member
    sets: the weave lines as ``ForestBuilder`` tags them, with every slot a
    join, and the walls in the order the forest added them."""
    answered = 0
    for catalog in catalogs.values():
        builder = catalog.builder
        weave_lines = [(prepare(seg.points), (seg.letter, seg.id)) for seg in builder.obstacles]
        vertex_points = {v.point for v in builder.weave.vertices}
        joins = [seg.points[-1] for seg in builder.obstacles
                 if seg.points[-1] not in vertex_points]
        walls = [(builder.strands[sid].path, sid) for sid in builder.walls.tags]
        assert sorted(builder.walls.tags) == [s.id for s in builder.strands]
        for P in [s.path for s in builder.strands] + _test_lines(catalog.engine):
            answered += _answers_like_members(builder.weave_lines, weave_lines, P, joins)
            answered += _answers_like_members(builder.walls, walls, P)
    assert answered > 100


def test_pairing_reads_a_float_tied_line_event_exactly():
    """A path that meets a test line at a param whose float ties with a
    weave-line event on the line, but which lies exactly before or after
    it, pairs with the lift of the line on its own side of the event."""
    third = Fraction(1, 3)
    event = third + Fraction(1, 2 ** 60)
    ys = [third, third + Fraction(1, 2 ** 70), event + Fraction(1, 2 ** 80),
          third + Fraction(1, 2 ** 59)]
    assert {float(y) for y in ys} == {float(event)}
    # the line's param is y; past the letter-1 event its lift from sheet 1 is on sheet 2
    builder = SimpleNamespace(events_along=lambda line: [(param_of(0, event), 1, 1)])
    lines = PairingLines([[(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))]], builder, 2)
    rows = [lines.pairing(LiftedPath([(Fraction(-1), y), (Fraction(1), y)], []))[0][0]
            for y in ys]
    assert rows == [(0,), (0,), (1,), (1,)]


def test_engine_matches_per_test_reference(catalogs):
    """Matrix and classes equal the separate pairing of every test lift
    followed by a fresh exact solve: full trees, detours at every joint
    param, and boundary arcs."""
    for name, catalog in catalogs.items():
        engine = catalog.engine
        builder = catalog.builder
        tests = _reference_tests(engine)
        columns = [_reference_vector(chain, tests) for chain in engine._basis_chains]
        matrix = [list(row) for row in zip(*columns)]
        assert matrix == engine.matrix, name
        chains = [engine.tree_chain(s.id) for s in builder.strands]
        chains += [engine.tree_chain(pid, root_param=joint["params"][pid])
                   for joint in builder.joints for pid in joint["parents"]]
        chains += arc_chains(engine)
        for chain in chains:
            solution = solve_rational(matrix, _reference_vector(chain, tests))
            assert all(v.denominator == 1 for v in solution)
            exps = tuple(int(v) for v in solution)
            assert engine.class_of_chain(chain) == exps, name


def test_marked_point_walks_equal_the_arc_solve(catalogs):
    """Each t_i is the walk of the engine's ``arc_word`` from marked sheet
    i: the word is the boundary arc's cut crossings, and the walk's class
    and end sheet are those of the arc chain solved by pairing, on the
    fixtures, the two n = 4 x-move weaves and two weaves with no branch
    point (whose arc word is empty and every t_i is the empty class)."""
    engines = [catalog.engine for catalog in catalogs.values()]
    engines += [HomologyEngine(build_forest_strands(bend_weave(parse_weave(text))))
                for text in X_MOVE_WEAVES + ["n=3\ntop: 1 2 1\nmoves: h1",
                                            "n=4\ntop: 1 3 2\nmoves: x1"]]
    for engine in engines:
        assert_arc_walks_equal_solves(engine)
    assert [len(engine.arc_word) for engine in engines] == [2, 2, 5, 2, 4, 1, 2, 0, 0]


def test_letters_read_off_the_cuts_equal_the_loop_built_ones(builders, monkeypatch):
    """Each letter read off its cut and the top line is the one the loop
    round its branch point reads (``assert_letters_read_off_the_cuts``),
    one per marked sheet and cut, on the fixtures, the two n = 4 x-move
    weaves and two weaves with no branch point (the two corpus tests check
    the same on every built weave).  Engine set-up builds no loop."""
    forests = list(builders.values())
    forests += [build_forest_strands(bend_weave(parse_weave(text)))
                for text in X_MOVE_WEAVES + ["n=3\ntop: 1 2 1\nmoves: h1", "n=4\ntop: 1 3 2\nmoves: x1"]]
    with monkeypatch.context() as patch:
        patch.setattr(HomologyEngine, "loop", None)
        engines = [HomologyEngine(builder) for builder in forests]
    for engine in engines:
        assert_letters_read_off_the_cuts(engine)
    assert [len(engine._letters) for engine in engines] == [4, 4, 10, 6, 12, 4, 8, 0, 0]


def test_slit_top_at_or_right_of_the_marked_point_is_rejected():
    """The arc word holds only while every slit top lies left of the marked
    point, so an engine whose marked point is moved left of a slit top
    raises where the cuts are built."""
    builder = build_forest_strands(bend_weave(parse_weave(EXAMPLES["three_strand"])))
    tops = sorted(top[0] for _, top in HomologyEngine(builder).cuts)
    for x in (tops[-1], (tops[-2] + tops[-1]) / 2):
        builder.bent.marked_x = x
        with pytest.raises(NonGenericGeometry, match="a slit top lies at or right of the marked point"):
            HomologyEngine(builder)


def test_caps_read_off_the_top_line_equal_the_whole_caps(builders):
    """Every cap word and cap permutation read off the engine's top-line
    tables equals the whole cap's query, on the fixtures, the two n = 4
    x-move weaves and two weaves with no branch point (the two corpus
    tests check the same on every built weave)."""
    forests = list(builders.values())
    forests += [build_forest_strands(bend_weave(parse_weave(text)))
                for text in X_MOVE_WEAVES + ["n=3\ntop: 1 2 1\nmoves: h1", "n=4\ntop: 1 3 2\nmoves: x1"]]
    assert [assert_caps_read_off_the_top_line(Transport(builder)) for builder in forests] == \
        [34, 34, 81, 52, 104, 15, 34, 8, 8]


def test_cap_corner_on_a_top_line_crossing_gives_the_whole_caps_outcome(builders):
    """A cap whose corner (x + CAP_EPS, -CAP_EPS/2) lands exactly on a
    crossing of the top line meets that line at the corner.  On a weave
    line ``cap_sheets`` raises the whole cap's corner hit.  On a slit the
    whole cap's query raises too, and ``cap_word`` reads the corner as left
    of the slit: it is the word of the cap 2^-80 left (``left_cap_word``),
    whether the start lies off the slit or on it, its first leg then
    parallel to the slit.  A corner 2^-70 either side of the crossing ties
    it as a float and is decided exactly, and reads the whole cap's word
    and permutation."""
    engine = HomologyEngine(builders["three_strand"])
    for table, hit in ((engine._top_lines, "sheets"), (engine._top_cuts, "word")):
        assert table[0]
        for x, d in table[1]:
            for dx in (0, Fraction(1, 2 ** 70), -Fraction(1, 2 ** 70)):
                start = point_key((Fraction(x, d) + dx - CAP_EPS, -CAP_EPS / 2))
                corner = engine.cap_points(start)[1]
                assert corner[0] / corner[2] == x / d
                word, sheets = engine.cap_word(start), cap_sheets_or_message(engine, start)
                assert word == left_cap_word(engine, start)
                assert sheets == whole_cap_sheets(engine, start)
                if dx:
                    assert word == whole_cap_word(engine, start) and isinstance(sheets, tuple)
                elif hit == "sheets":
                    assert sheets.startswith("polyline corner hit")
                else:
                    assert whole_cap_word(engine, start) is None
                    # a start 1000 CAP_EPS below the corner, on the slit: a leg parallel to it
                    on_slit = point_key((Fraction(x, d) - CAP_EPS, -CAP_EPS * 2001 / 2))
                    assert engine.cap_points(on_slit)[1] == corner
                    assert engine.cap_word(on_slit) == left_cap_word(engine, on_slit) \
                        and whole_cap_word(engine, on_slit) is None


@pytest.fixture(scope="module")
def leg_engines(builders):
    """The engines of the fixtures and the two n = 4 x-move weaves."""
    forests = list(builders.values())
    forests += [build_forest_strands(bend_weave(parse_weave(text))) for text in X_MOVE_WEAVES]
    return [HomologyEngine(builder) for builder in forests]


def _leg_start(engine, k, kind, u, t):
    """A cap start near cut k, y <= 0: on the cut's line at height by u / 20
    (above its branch point b for u < 20, at it for u = 20, below it past
    that; at its top for u = 0), where the first leg runs through b, at the
    cut's top-line x or a CAP_EPS left of it (so the corner lands on the
    cut's top-line crossing), or inside the cut's x span at depth
    y_deep u / 40, where a leg can cross cuts stacked in one column."""
    (bx, by), (tx, _) = engine.cuts[k]
    y = by * u / 20
    if kind == "line":
        return bx + (y - by) / 1000, y
    if kind == "through":
        h = -by * (u + 1) / 20
        return bx - CAP_EPS * h / (h - by - CAP_EPS / 2), by - h
    top_x = bx - (by + CAP_EPS / 2) / 1000
    if kind == "top":
        return top_x, y
    if kind == "corner":
        return top_x - CAP_EPS, y
    return bx + (tx - bx) * t / 1000, engine.y_deep * u / 40


@seed(20261030)
@settings(max_examples=600, deadline=None)
@given(which=st.integers(0, 6), cut=st.integers(0, 4),
       kind=st.sampled_from(["line", "through", "top", "corner", "span"]),
       u=st.integers(0, 40), t=st.integers(1, 999),
       shift=st.sampled_from([0, Fraction(1, 2 ** 70), -Fraction(1, 2 ** 70), CAP_EPS / 7,
                              -CAP_EPS / 7, Fraction(1, 997), -Fraction(1, 997)]))
def test_cap_legs_read_off_the_cut_lines_equal_the_query(leg_engines, which, cut, kind, u, t,
                                                         shift):
    """A cap's first-leg cut crossings, read off the parallel cut lines,
    are the query's: ``cap_word`` equals the whole cap's cut query, or
    where that has none the query 2^-80 left (``left_cap_word``), at starts
    drawn near each cut (``_leg_start``) and shifted by 0, a float tie,
    CAP_EPS / 7 or 1/997 either way, on the fixtures and the two n = 4
    x-move weaves."""
    engine = leg_engines[which]
    x, y = _leg_start(engine, cut % len(engine.cuts), kind, u, t)
    point = point_key((x + shift, y))
    assert engine.cap_word(point) == left_cap_word(engine, point), (x + shift, y)


@pytest.mark.parametrize("text", [EXAMPLES["three_strand"], X_MOVE_WEAVES[0]],
                         ids=["hexavalent", "tetravalent"])
def test_weave_vertex_on_a_cut_is_rejected(text, monkeypatch):
    """The letters walk up the cuts, whose weave-line queries pass over a
    touch at a line's end: the lowest branch point, moved so that its cut
    runs through the weave's first hexavalent or tetravalent vertex,
    raises by name where the cuts are built."""
    weave = parse_weave(text)
    builder = build_forest_strands(bend_weave(weave))
    vertex = next(v for v in weave.vertices if v.kind != "trivalent")
    low, *rest = sorted(weave.trivalent_vertices(), key=lambda v: v.point[1])
    (x, y), by = vertex.point, low.point[1]
    low = dataclasses.replace(low, point=(x - (y - by) / 1000, by))
    monkeypatch.setattr(weave, "trivalent_vertices", lambda: [low] + rest)
    with pytest.raises(NonGenericGeometry, match="%s weave vertex %d lies on a cut"
                       % (vertex.kind, vertex.id)):
        HomologyEngine(builder)


def test_weave_line_crossing_a_cut_on_the_top_line_is_rejected():
    """The letters carry each branch point's sheets up its cut to the top
    line, so a weave line moved to cross the cut of the rightmost top just
    where the cut crosses the top line raises by name where the letters
    are built: its top end is moved along y = 0 to put the line's top
    segment through that point."""
    builder = build_forest_strands(bend_weave(parse_weave(EXAMPLES["three_strand"])))
    engine = HomologyEngine(builder)
    k = engine.arc_word[-1][0]
    (bx, by), _ = engine.cuts[k]
    tx, ty = bx - (by + CAP_EPS / 2) / 1000, -CAP_EPS / 2
    lines = [(seg.points, (seg.letter, seg.id)) for seg in builder.obstacles]
    m = min((abs(points[0][0] - tx), m) for m, (points, _) in enumerate(lines)
            if points[0][1] == 0)[1]
    lx, ly = lines[m][0][1]
    moved = [(lx + (tx - lx) * ly / (ly - ty), Fraction(0))] + lines[m][0][1:]
    builder.weave_lines = PolylineSet((moved, tag) if j == m else (points, tag)
                                      for j, (points, tag) in enumerate(lines))
    with pytest.raises(NonGenericGeometry, match="a weave line crosses cut %d on the top line" % k):
        HomologyEngine(builder)


def test_vertex_in_the_top_strip_is_rejected():
    """Caps read their second leg off the line y = -CAP_EPS/2 only while no
    weave-line or slit vertex lies in -CAP_EPS/2 <= y < 0, so an engine
    whose highest weave-line vertex below the top is moved there raises at
    set-up."""
    builder = build_forest_strands(bend_weave(parse_weave(EXAMPLES["three_strand"])))
    lines = [(seg.points, (seg.letter, seg.id)) for seg in builder.obstacles]
    y, x = max((y, x) for points, _ in lines for x, y in points if y < 0)
    for moved in (-CAP_EPS / 2, -CAP_EPS / 4, -CAP_EPS / 2 ** 30):
        builder.weave_lines = PolylineSet(
            ([(px, moved) if (px, py) == (x, y) else (px, py) for px, py in points], tag)
            for points, tag in lines)
        with pytest.raises(NonGenericGeometry, match="slit vertex lies in -CAP_EPS/2 <= y < 0"):
            HomologyEngine(builder)


def test_collinear_cuts_are_rejected(builders, monkeypatch):
    """Two branch points whose slits lie on one line, one moved up the
    other's slit line, raise where the cuts are built."""
    weave = builders["three_strand"].weave
    low, high, *rest = sorted(weave.trivalent_vertices(), key=lambda v: v.point[1])
    (x, y), by = low.point, high.point[1]
    high = dataclasses.replace(high, point=(x + (by - y) / 1000, by))
    monkeypatch.setattr(weave, "trivalent_vertices", lambda: [low, high] + rest)
    with pytest.raises(NonGenericGeometry, match="two branch cuts are collinear"):
        HomologyEngine(builders["three_strand"])


def test_rank_check_rejects_dependent_cycle_columns(builders):
    """Test curves that miss every cycle leave the cycle columns dependent.
    The engine builds without them, and the first pairing solve raises."""
    engine = HomologyEngine(builders["mutation_a"])
    far = [(engine.x_max + 10, Fraction(0)), (engine.x_max + 10, engine.y_deep - 2)]
    engine._tests = PairingLines([far], engine.builder, engine.weave.strand_count)
    with pytest.raises(NonGenericGeometry, match="rank 0"):
        engine.class_of_chain(engine.tree_chain(engine.basis_strands[0]))


def test_basis_strands_walk_to_unit_classes(builders, monkeypatch):
    """M C = I seen from outside: each b-strand's walked class at its chord
    end is its own generator e_j, on the fixtures and the two n = 4 x-move
    weaves (the two corpus tests check the same on every built weave), and
    no pairing is built for it.  A letter matrix M that is singular, or
    invertible only over the rationals, is rejected by name."""
    forests = list(builders.values())
    forests += [build_forest_strands(bend_weave(parse_weave(text))) for text in X_MOVE_WEAVES]
    for builder in forests:
        assert_basis_walks_are_units(HomologyEngine(builder))
    builder = builders["five_crossing"]
    columns = HomologyEngine._basis_columns
    for bad in (lambda cols: [tuple(2 * v for v in cols[0])] + cols[1:],
                lambda cols: [cols[0]] + cols[:-1]):
        monkeypatch.setattr(HomologyEngine, "_basis_columns",
                            lambda self, bases, bad=bad: bad(columns(self, bases)))
        with pytest.raises(NonGenericGeometry, match="letter matrix is not unimodular"):
            HomologyEngine(builder)


def test_open_chain_is_rejected(catalogs):
    """A flowtree chain without its two caps ends off the marked points.
    The message names the loose ends as sorted (``Fraction`` point, sheet)
    pairs, though the residue is keyed by integers."""
    engine = catalogs["mutation_a"].engine
    chain = engine.tree_chain(engine.basis_strands[0])
    engine._check_boundary(chain)
    end = "(Fraction(1151, 384), Fraction(0, 1))"
    for pieces, loose in ((chain[:-2], "[(%s, 1), (%s, 2)]" % (end, end)),
                          (chain[:-3], "[((Fraction(5, 2), Fraction(-1, 2)), 1), (%s, 1)]" % end)):
        with pytest.raises(NonGenericGeometry) as raised:
            engine._check_boundary(pieces)
        assert str(raised.value) == "chain boundary off the marked points: " + loose


def test_pairing_outside_basis_span_is_rejected(catalogs):
    """A pairing vector no chain of basis classes has: no solution."""
    engine = catalogs["mutation_a"].engine
    rhs = [0] * len(engine.matrix)
    rhs[0] = 1
    assert solve_rational(engine.matrix, rhs) is None
    assert engine._factored.solve(rhs) is None


def test_sparse_solve_equals_dense_solve(catalogs):
    """``FactoredMatrix.solve``, which runs over nonzeros only, equals the
    dense Gauss-Jordan solve on each fixture engine's matrix, for seeded
    sparse vectors inside the column span (the matrix times a sparse
    integer vector) and off it (a few random nonzero rows)."""
    rng = random.Random(20261019)
    verdicts = set()
    for engine in (catalog.engine for catalog in catalogs.values()):
        factored, nrows, ncols = engine._factored, len(engine.matrix), len(engine.matrix[0])
        for draw in range(40):
            if draw % 2:
                x = [0] * ncols
                for c in rng.sample(range(ncols), min(2, ncols)):
                    x[c] = rng.choice((-2, -1, 1, 2))
                rhs = [sum(a * b for a, b in zip(row, x)) for row in engine.matrix]
            else:
                rhs = [0] * nrows
                for row in rng.sample(range(nrows), min(3, nrows)):
                    rhs[row] = rng.choice((-2, -1, 1, 2))
            solution, expected = factored.solve(rhs), _gauss_jordan_solve(engine.matrix, rhs)
            verdicts.add(expected is None)
            if expected is None:
                assert solution is None
            else:
                assert [Fraction(v, factored.scale) for v in solution] == expected
    assert verdicts == {True, False}


def test_engine_factors_match_fraction_reference(catalogs):
    """Each fixture engine's and each seed-20261018 corpus engine's
    ``FactoredMatrix`` equals the one the Fraction elimination builds."""
    engines = [catalog.engine for catalog in catalogs.values()]
    engines += [HomologyEngine(builder) for builder in random_weave_builders()]
    for engine in engines:
        assert factors(engine._factored) == fraction_factors(engine.matrix)
