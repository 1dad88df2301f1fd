import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from specnet.forest import MAX_FOREST_STRANDS, Strand, build_forest_strands
from specnet.geometry import (
    NonGenericGeometry,
    Polyline,
    PolylineSet,
    Ratio,
    exact_point,
    interp,
    param_of,
    point_key,
    transpose,
    truncated,
    twist_sign,
    walk_sheets,
)
from specnet.network import OPEN_END_PREFIX, classify_vertex
from specnet.soliton_bps import BIRTH_PARAM
from specnet.weave import MAX_LETTERS, bend_weave, parse_weave

from conftest import EXAMPLES, random_weave_builders

STRAND_COUNTS = {
    "mutation_a": 6,
    "mutation_b": 6,
    "sigma1_6": 15,
    "five_crossing": 8,
    "three_strand": 20,
}


def test_strand_counts(builders):
    for name, builder in builders.items():
        assert len(builder.strands) == STRAND_COUNTS[name], name


def test_strand_bound_admits_the_longest_staircase():
    """The two-strand staircase at the most letters a weave may have grows
    3L - 3 strands, under MAX_FOREST_STRANDS; its forest takes about 1.1 s
    on a 2-core x86-64 box."""
    letters = MAX_LETTERS
    text = "n=2\ntop: %s\nmoves: %s\n" % (" ".join(["1"] * letters),
                                          " ".join(["t1"] * (letters - 1)))
    builder = build_forest_strands(bend_weave(parse_weave(text)))
    assert len(builder.strands) == 3 * letters - 3 == 189 < MAX_FOREST_STRANDS


def test_every_strand_reaches_a_chord(builders):
    for builder in builders.values():
        names = set(builder.bent.chord_names)
        for strand in builder.strands:
            assert strand.chord in names


def test_seed_labels_are_adjacent_transpositions(builders):
    for builder in builders.values():
        for strand in builder.strands:
            if strand.origin[0] == "branch":
                vertex = builder.weave.vertices[strand.origin[1]]
                assert strand.start_label == (vertex.letter, vertex.letter + 1)


def test_three_seeds_per_branch_point(builders):
    for builder in builders.values():
        branch_strands = [s for s in builder.strands if s.origin[0] == "branch"]
        assert len(branch_strands) == 3 * len(builder.weave.trivalent_vertices())


def test_network_shape(builders):
    for name, builder in builders.items():
        net = builder.to_network()
        assert net.inconsistent_vertices() == []
        kinds = [v.kind for v in net.vertices]
        assert kinds.count("initial") == len(builder.weave.trivalent_vertices())
        assert kinds.count("interaction_creation") == len(builder.joints)
        open_ends = [w for w in net.walls
                     if isinstance(w.target, str)
                     and w.target.startswith(OPEN_END_PREFIX)]
        # every strand contributes exactly one open end (its chord)
        assert len(open_ends) == len(builder.strands)


def test_joint_labels_compose(builders):
    for builder in builders.values():
        for joint in builder.joints:
            p1, p2 = joint["parents"]
            l1 = builder.strands[p1].label_at(joint["params"][p1])
            l2 = builder.strands[p2].label_at(joint["params"][p2])
            child = builder.strands[joint["child"]].start_label
            composed = {(l1[0], l2[1])} if l1[1] == l2[0] else set()
            composed |= {(l2[0], l1[1])} if l2[1] == l1[0] else set()
            assert child in composed


# vertices of the forest's network export whose stubs match no local model:
# the export labels each wall piece by its label at the piece's start, so
# the in-stubs at a creation joint need not be the joint's (ij), (jk)
MISLABELLED_JOINTS = {"five_crossing": [2, 3], "three_strand": [4, 5, 7, 8, 10, 11]}


def test_export_stub_labels_at_joints(builders):
    """Exactly the vertices in MISLABELLED_JOINTS fail to classify (all are
    creation joints); every other vertex classifies as its stored kind.  A
    vertex newly failing or newly matching fails the test."""
    for name, builder in builders.items():
        net = builder.to_network()
        failing = []
        for vertex in net.vertices:
            try:
                kind = classify_vertex(net.stubs(vertex.id))
            except ValueError as err:
                assert str(err).startswith("no local model matches stubs")
                assert vertex.kind == "interaction_creation"
                failing.append(vertex.id)
                continue
            assert kind == vertex.kind, (name, vertex.id)
        assert failing == MISLABELLED_JOINTS.get(name, []), name


def test_crossings_sorted_and_conjugation_consistent(builders):
    for builder in builders.values():
        for strand in builder.strands:
            params = [c[0] for c in strand.crossings]
            assert params == sorted(params)
            label = strand.start_label
            for _, letter, _ in strand.crossings:
                label = tuple(transpose(s, letter) for s in label)
            assert label == strand.label_at()


def test_path_through_a_weave_line_join_is_a_corner_hit(builders):
    """At a slot one weave line continues into the next.  A path through
    that point raises instead of missing both segments, and a path bent just
    past it crosses the line once."""
    builder = builders["three_strand"]
    a = (4 - Fraction(1, 97), -1 - Fraction(1, 1009))
    b = (4 + Fraction(1, 97), -1 + Fraction(1, 1009))
    for path in ([a, b], [a, (Fraction(4), Fraction(-1)), b]):
        with pytest.raises(NonGenericGeometry, match="polyline corner hit"):
            builder.events_along(path)
    bent = [a, (4 + Fraction(1, 7919), -1 + Fraction(1, 7919)), b]
    assert [letter for _, letter, _ in builder.events_along(bent)] == [1]


def _perm_sign(letter, sheet_pre, side):
    """The twisting sign as nonabel computed it before ``twist_sign``."""
    if sheet_pre not in (letter, letter + 1):
        return 1
    lower = sheet_pre == letter
    return -1 if (lower == (side > 0)) else 1


@st.composite
def sheet_walks(draw):
    n = draw(st.integers(2, 5))
    params = st.tuples(st.integers(0, 3), st.fractions(0, 1, max_denominator=4))
    events = sorted(draw(st.lists(st.tuples(params, st.integers(1, n - 1),
                                            st.sampled_from((-1, 1))), max_size=8)))
    sheets = tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=3)))
    return events, sheets, draw(st.none() | params)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(sheet_walks())
def test_walk_sheets_matches_the_loops_it_replaced(walk):
    """The sheets reached equal the strand label loop, and the sign equals
    the product over sheets of the transport sign loop, both cut at the
    stop param."""
    events, sheets, stop = walk
    kept = [e for e in events if stop is None or e[0] < stop]
    for _, letter, side in kept:
        for sheet in sheets:
            assert twist_sign(letter, sheet, side) == _perm_sign(letter, sheet, side)
    label = sheets
    for p, letter, _ in events:  # Strand.label_at
        if stop is not None and p >= stop:
            break
        label = tuple(transpose(s, letter) for s in label)
    total = 1
    for start in sheets:  # Transport.transport_free, one start sheet
        sheet, sign = start, 1
        for _, letter, side in kept:
            sign *= _perm_sign(letter, sheet, side)
            sheet = transpose(sheet, letter)
        total *= sign
    assert walk_sheets(sheets, events, stop) == (label, total)


def test_build_forest_is_deterministic():
    text = EXAMPLES["five_crossing"]
    a = build_forest_strands(bend_weave(parse_weave(text))).to_network()
    b = build_forest_strands(bend_weave(parse_weave(text))).to_network()
    from specnet.network import network_to_json

    assert network_to_json(a) == network_to_json(b)


def test_non_reduced_bottom_is_rejected():
    """The forest is grown only when the weave's bottom is a reduced word."""
    bent = bend_weave(parse_weave("n=2\ntop: 1 1 1\nmoves: t1\n"))
    with pytest.raises(ValueError, match="n=2; 1 1 is not a reduced word"):
        build_forest_strands(bent)


def test_conjugate():
    """A sheet-pair label conjugates sheet by sheet."""
    def conjugate(label, k):
        return (transpose(label[0], k), transpose(label[1], k))

    assert conjugate((1, 3), 1) == (2, 3)
    assert conjugate((2, 3), 1) == (1, 3)
    assert conjugate((1, 2), 3) == (1, 2)


def test_poly_crossings_basic():
    P = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))]
    Q = [(Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))]
    out = PolylineSet([(Q, "q")]).crossings(P)
    assert len(out) == 1
    (_, _, t), tag, pb, pt, side = out[0]
    assert t == pb[2] == Fraction(1, 2) and tag == "q"
    assert exact_point(pt) == (Fraction(1), Fraction(1))
    assert side == 1  # (Q's tangent) x (P's tangent) = (2, -2) x (2, 2) = 8


def test_poly_crossings_rejects_collinear_overlap():
    P = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))]
    Q = [(Fraction(1), Fraction(0)), (Fraction(3), Fraction(0))]
    with pytest.raises(NonGenericGeometry):
        PolylineSet([(Q, 0)]).crossings(P)


def test_poly_crossings_rejects_slanted_collinear_overlap():
    """Off the axes, collinearity is a cross product of two nonzero terms:
    P and Q on the line y = x overlap and raise, while Q moved on along the
    line, touching P only at their shared end, crosses nothing."""
    P = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))]
    Q = [(Fraction(1), Fraction(1)), (Fraction(3), Fraction(3))]
    with pytest.raises(NonGenericGeometry, match="collinear overlap"):
        PolylineSet([(Q, 0)]).crossings(P)
    Q = [(Fraction(2), Fraction(2)), (Fraction(3), Fraction(3))]
    assert PolylineSet([(Q, 0)]).crossings(P) == []


def test_poly_crossings_parallel_disjoint():
    P = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))]
    Q = [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))]
    assert PolylineSet([(Q, 0)]).crossings(P) == []


# 1/3 + 2^-70 rounds to the float of 1/3: params at the two tie as floats
THIRD = Fraction(1, 3)
TIED = THIRD + Fraction(1, 2 ** 70)


def test_float_tied_params_keep_the_exact_order():
    """Two members cross P at params whose floats are equal: the crossings
    come in the exact order of the params, not in tag order."""
    P = _poly((0, 0), (1, 0))
    members = PolylineSet([(_poly((THIRD, -1), (THIRD, 1)), 1),
                           (_poly((TIED, -1), (TIED, 1)), 0)])
    out = members.crossings(P)
    assert [tag for _, tag, _, _, _ in out] == [1, 0]
    (_, f1, t1), (_, f0, t0) = out[0][0], out[1][0]
    assert f1 == f0 and (t1, t0) == (THIRD, TIED)


# 1/3 + 2^-60 rounds to the float of 1/3 as well
TIED_60 = THIRD + Fraction(1, 2 ** 60)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["third-first", "tied-first"])
def test_float_tied_members_cross_in_exact_order(order):
    """Vertical members at x = 1/3 and x = 1/3 + 2^-60, whose floats are
    equal, cross (0, 0)->(1, 0) in the exact order of their params, the 1/3
    member first, whichever member joins the set first and against the
    order of their tags."""
    assert float(THIRD) == float(TIED_60)
    members = [(_poly((THIRD, -1), (THIRD, 1)), 1), (_poly((TIED_60, -1), (TIED_60, 1)), 0)]
    out = PolylineSet([members[k] for k in order]).crossings(_poly((0, 0), (1, 0)))
    assert [tag for _, tag, _, _, _ in out] == [1, 0]
    assert [exact_point(pt)[0] for _, _, _, pt, _ in out] == [THIRD, TIED_60]
    (pa, _, _, _, _), (pb, _, _, _, _) = out
    assert pa[1] == pb[1] and pa < pb and pa != pb


# params on one segment, some float-tied: k * 2^-70 from a coarse rational
tied_params = st.tuples(st.integers(0, 2), st.fractions(0, 1, max_denominator=12),
                        st.integers(-2, 2)).map(lambda d: (d[0], d[1] + Fraction(d[2], 2 ** 70)))


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.lists(tied_params, min_size=2, max_size=8), st.integers(1, 5))
@example([(0, THIRD), (0, TIED)], 1)
@example([(1, TIED), (1, THIRD), (0, TIED)], 3)
def test_param_order_is_the_exact_order(pairs, scale):
    """Params built by ``param_of`` from a ``Fraction``, or from a ``Ratio``
    not in lowest terms, order and compare as their (segment, ``Fraction``)
    pairs do, float ties included."""
    built = [param_of(i, t) for i, t in pairs]
    assert built == [param_of(i, Ratio(t.numerator * scale, t.denominator * scale))
                     for i, t in pairs]
    for a, pa in zip(pairs, built):
        for b, pb in zip(pairs, built):
            assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    assert sorted(range(len(pairs)), key=built.__getitem__) == order


# ----- reference: interp and truncated in Fraction arithmetic -----

def _fraction_interp(polyline, i, t):
    p0, p1 = polyline[i], polyline[i + 1]
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _fraction_truncated(polyline, i, t):
    return list(polyline[: i + 1]) + [_fraction_interp(polyline, i, t)]


def test_interp_and_truncated_match_fraction_reference(builders):
    """``interp`` and ``truncated`` on a strand's integer form give exactly
    the points, floats and end keys of the ``Fraction`` reference: on the
    fixtures and the seed-20261018 random weaves, at every strand's
    weave-line params, joint params, birth param and end, and at seeded
    params on each segment."""
    rng = random.Random(20261019)
    read = 0
    for builder in list(builders.values()) + list(random_weave_builders()):
        for strand in builder.strands:
            last = len(strand.polyline) - 2
            params = [p for p, _, _ in strand.crossings] + [BIRTH_PARAM, param_of(last, 1)]
            params += [joint["params"][strand.id] for joint in builder.joints
                       if strand.id in joint["params"]]
            params += [param_of(i, Fraction(rng.randint(0, 996), 996)) for i in range(last + 1)]
            for param in params:
                i, t = param[0], Fraction(param[2].numerator, param[2].denominator)
                assert param[1] == float(t)
                assert exact_point(interp(strand.path, param)) == \
                    _fraction_interp(strand.polyline, i, t)
                cut = truncated(strand.path, param)
                expected = _fraction_truncated(strand.polyline, i, t)
                assert [exact_point((x, y, cut.scale)) for x, y in cut.ints] == expected
                assert cut.floats == [(float(x), float(y)) for x, y in expected]
                assert cut.ends == (point_key(expected[0]), point_key(expected[-1]))
                read += 1
    assert read > 2000


def test_march_right_reports_the_first_corner_on_its_ray(builders):
    """A rightward ray level with weave-line corners raises at the first of
    them in obstacle order: on ``three_strand`` at height -1 that is (4, -1),
    though (2, -1) lies nearer the start."""
    builder = builders["three_strand"]
    strand = Strand(len(builder.strands), ("branch", 0, "c"), (1, 2), 1, Fraction(1, 64))
    start = (3, -2, 2)  # (3/2, -1)
    with pytest.raises(NonGenericGeometry) as raised:
        builder._march_right(strand, [start], (1, 2))
    assert str(raised.value) == \
        "weave-line corner on ray at (Fraction(4, 1), Fraction(-1, 1))"


def test_delta_offsets_distinct(builders):
    for builder in builders.values():
        deltas = [s.delta for s in builder.strands]
        assert len(set(deltas)) == len(deltas)


# Coordinates on a coarse grid make corner hits, endpoint anchors and
# collinear overlaps common; the finer fractions keep generic cases in play.
coords = (st.integers(-6, 6).map(lambda k: Fraction(k, 2))
          | st.fractions(-3, 3, max_denominator=7))
polylines = st.lists(st.tuples(coords, coords), min_size=2, max_size=6)


def _poly(*points):
    return [(Fraction(x), Fraction(y)) for x, y in points]


ONE, THREE, MINUS_ONE = Fraction(1), Fraction(3), Fraction(-1)


def _axis(axis, line_coords, start, end):
    """Axis-parallel segments: coordinate ``axis`` fixed at each of
    ``line_coords``, the other running from ``start`` to ``end``."""
    return [[(c, start), (c, end)] if axis == 0 else [(start, c), (end, c)]
            for c in line_coords]


# ----- reference: the Fraction crossing rules, segment pair by segment pair -----

def _direction(polyline, i):
    return (polyline[i + 1][0] - polyline[i][0], polyline[i + 1][1] - polyline[i][1])


def _cross_sign(u, v):
    """Sign of u x v; tangent directions are non-generic."""
    c = u[0] * v[1] - u[1] * v[0]
    if c == 0:
        raise NonGenericGeometry("tangent segments at a crossing")
    return 1 if c > 0 else -1


def _sub_cross(a0, a1, b0, b1):
    """Intersection params (t, u) of segments a and b, or None if parallel
    and disjoint.  Raises on collinear overlap."""
    dax, day = a1[0] - a0[0], a1[1] - a0[1]
    dbx, dby = b1[0] - b0[0], b1[1] - b0[1]
    ex, ey = b0[0] - a0[0], b0[1] - a0[1]
    det = dax * dby - day * dbx
    if det == 0:
        if ex * day - ey * dax != 0:
            return None  # parallel, distinct lines
        # collinear: positive-length overlap is non-generic
        if dax or day:
            t0 = (ex * dax + ey * day) / (dax * dax + day * day)
            t1 = t0 + (dbx * dax + dby * day) / (dax * dax + day * day)
            lo, hi = min(t0, t1), max(t0, t1)
            if hi > 0 and lo < 1:
                raise NonGenericGeometry("collinear overlap")
        return None
    t = (ex * dby - ey * dbx) / det
    u = (ex * day - ey * dax) / det
    return (t, u)


class _Fault(NonGenericGeometry):
    """A reference fault and where the reference met it: (P segment, Q
    segment) for a corner hit or an overlap, None for a point found twice."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


def _reference_crossings(P, Q, q_anchors):
    """Proper transversal crossings of P and Q as sorted (paramP, paramQ,
    pt, side), side the sign of (Q's tangent) x (P's tangent).  Touches at
    P's own ends (param 0 of its first segment and param 1 of its last)
    and at ``q_anchors`` are ignored, any other touch raises at the first
    segment pair with one (P's segment major), and so does a crossing
    point found twice, once every pair is done."""
    out = []
    for i in range(len(P) - 1):
        for j in range(len(Q) - 1):
            try:
                r = _sub_cross(P[i], P[i + 1], Q[j], Q[j + 1])
            except NonGenericGeometry as err:
                raise _Fault(str(err), (i, j)) from None
            if r is None:
                continue
            t, u = r
            if not (0 <= t <= 1 and 0 <= u <= 1):
                continue
            pt = (P[i][0] + t * (P[i + 1][0] - P[i][0]),
                  P[i][1] + t * (P[i + 1][1] - P[i][1]))
            if 0 < t < 1 and 0 < u < 1:
                out.append(((i, t), (j, u), pt,
                            _cross_sign(_direction(Q, j), _direction(P, i))))
            elif t == 0 and i == 0 or t == 1 and i == len(P) - 2 or pt in q_anchors:
                continue
            else:
                raise _Fault("polyline corner hit at %r" % (pt,), (i, j))
    points = [pt for _, _, pt, _ in out]
    if len(set(points)) != len(points):
        raise _Fault("duplicate crossing point")
    return sorted(out)


def _exact(param):
    """A param triple as the reference's (segment, ``Fraction``) pair, once
    its float is checked to be the ``Fraction``'s."""
    i, f, t = param
    t = Fraction(t.numerator, t.denominator)
    assert f == float(t)
    return i, t


def _read(crossings):
    """``PolylineSet.crossings`` with each param read as a (segment,
    ``Fraction``) pair and each scaled point as its point."""
    return [(_exact(pa), tag, _exact(pb), exact_point(pt), side)
            for pa, tag, pb, pt, side in crossings]


def test_pass_through_a_shared_corner_is_a_corner_hit():
    """A path through a corner that both polylines share raises, like any
    other touch off an anchor, whichever of the two is the member; moved off
    the corner it crosses once."""
    P, Q = _poly((0, -1), (0, 0), (-1, 1)), _poly((-1, 0), (0, 0), (1, 1))
    with pytest.raises(NonGenericGeometry, match="polyline corner hit"):
        PolylineSet([(Q, 0)]).crossings(P)
    with pytest.raises(NonGenericGeometry, match="polyline corner hit"):
        PolylineSet([(P, 0)]).crossings(Q)
    corner = (Fraction(-1, 1000), Fraction(1, 1000))
    P = [(Fraction(0), Fraction(-1)), corner, (Fraction(-1), Fraction(1))]
    assert len(PolylineSet([(Q, 0)]).crossings(P)) == 1


LINE = _poly((1, 3), (1, -1))
NO_JOINS = ([], None)


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(polylines, st.lists(polylines, min_size=1, max_size=4),
       st.tuples(st.lists(st.integers(0, 7), max_size=3), st.none() | st.integers(0, 7)))
@example(_poly((0, 0), (2, 2)), [LINE], NO_JOINS)  # transversal
@example(_poly((0, 0), (1, 1), (2, 0)), [LINE], NO_JOINS)  # corner hit
@example(_poly((1, 0), (1, 2)), [LINE], NO_JOINS)  # collinear overlap
@example(_poly((0, 0), (1, 1)), [LINE], NO_JOINS)  # own end anchor
@example(_poly((0, 0), (2, 2)), [_poly((1, 1), (1, -1))], NO_JOINS)  # line end anchor
@example(_poly((0, 0), (2, 2)), [_poly((1, 1), (1, -1))], ([0], None))  # line end join
@example(_poly((0, 0), (2, 2)), [_poly((1, -1), (1, 1))], ([1], None))  # last end join
@example(_poly((0, 0), (2, 2), (2, 0), (0, 2)), [LINE], NO_JOINS)  # self-crossing on the line
@example(_poly((0, 0), (2, 2), (3, -1), (-1, 3)), [LINE], NO_JOINS)  # ... at two scales
@example(_poly((0, 0), (2, 2)), [_poly((0, 2), (2, 0), (2, 1), (0, 1))],
         NO_JOINS)  # member self-crossing on the path, at two scales
@example(_poly((0, 0), (2, 2)), [_poly((3, 0), (3, 2)), LINE], NO_JOINS)  # a disjoint box
@example(_poly((0, 0), (2, 2)), [LINE, _poly((1, 0), (1, 2))], NO_JOINS)  # second line raises
@example(_poly((0, 0), (2, 0)),
         [_poly((-1, 0), (0, 0)), _poly((2, 0), (3, 0))], NO_JOINS)  # collinear touches at anchors
@example(_poly((0, 0), (2, 2)), _axis(0, [ONE], THREE, MINUS_ONE), NO_JOINS)  # transversal
@example(_poly((0, 0), (1, 1), (2, 0)), _axis(0, [ONE], THREE, MINUS_ONE), NO_JOINS)  # corner hit
@example(_poly((1, 0), (1, 2)), _axis(0, [ONE], THREE, MINUS_ONE), NO_JOINS)  # collinear overlap
@example(_poly((0, 0), (1, 1)), _axis(0, [ONE], THREE, MINUS_ONE), NO_JOINS)  # own end anchor
@example(_poly((0, 0), (2, 2)), _axis(0, [ONE], ONE, MINUS_ONE), NO_JOINS)  # line end anchor
@example(_poly((0, 0), (2, 2), (2, 0), (0, 2)), _axis(0, [ONE], THREE, MINUS_ONE),
         NO_JOINS)  # self-crossing on the line
@example(_poly((Fraction(1, 2), -2), (Fraction(1, 2), 2)),
         _axis(1, [Fraction(0), ONE], MINUS_ONE, ONE), NO_JOINS)  # crossing horizontal lines
@example(_poly((0, 0), (1, 0)), _axis(0, [TIED, THIRD], MINUS_ONE, ONE),
         NO_JOINS)  # float-tied params, exact order against tag order
def test_polyline_set_matches_poly_crossings(P, lines, joined):
    """One-member sets and the whole set equal the reference rules: the
    same crossings, tagged, with the same sides and, read by
    ``exact_point``, the same points, and raising on exactly the inputs
    where some member's reference raises.  ``joined`` picks member
    ends (first and last end of each member in turn) as joins, which the
    reference then does not count as anchors, and optionally one end that
    P is routed through."""
    picks, through = joined
    ends = [end for Q in lines for end in (Q[0], Q[-1])]
    joins = frozenset(ends[k % len(ends)] for k in picks)
    if through is not None:
        P = [P[0], ends[through % len(ends)]] + P[1:]
    expected, raised = [], False
    for k, Q in enumerate(lines):
        anchors = tuple(end for end in (Q[0], Q[-1]) if end not in joins)
        one = PolylineSet([(Q, k)], map(point_key, joins))
        try:
            found = _reference_crossings(P, Q, anchors)
        except NonGenericGeometry:
            with pytest.raises(NonGenericGeometry):
                one.crossings(P)
            raised = True
            continue
        assert _read(one.crossings(P)) == [(pa, k, pb, pt, side) for pa, pb, pt, side in found]
        expected += [(pa, k, pb, pt, side) for pa, pb, pt, side in found]
    whole = PolylineSet(joins=map(point_key, joins))
    for k, Q in enumerate(lines):
        q = Polyline(list(map(point_key, Q)))
        whole.add(q.ints, q.scale, k)
    if raised:
        with pytest.raises(NonGenericGeometry):
            whole.crossings(P)
        return
    assert _read(whole.crossings(P)) == sorted(expected)


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(polylines, st.lists(polylines, min_size=1, max_size=5))
@example(_poly((0, 0), (2, 2)), [_poly((3, 0), (3, 2)), LINE])  # a member off P's box first
# faults in two members, the second member's pair met first along P, so
# its message is raised: an overlap, then a corner hit; a point met twice,
# then a corner hit
@example(_poly((0, 0), (2, 0), (2, 2)), [_poly((2, 1), (2, 3)), _poly((0, 1), (1, 0), (1, 1))])
@example(_poly((0, 0), (2, 2), (2, 0), (0, 2)), [LINE, _poly((2, 1), (2, 3))])
def test_polyline_set_grown_by_add_answers_like_its_members(P, lines):
    """A set grown one ``add`` at a time, as ``ForestBuilder.walls`` grows,
    answers P after the k-th ``add`` with the sorted union of its first k
    members' reference crossings, and raises exactly when one of those
    references raises, with the message of the first fault in scan order:
    the corner hit or overlap with the least (P segment, member, Q
    segment), else a crossing point found twice."""
    grown, expected, faults = PolylineSet(), [], []
    for k, Q in enumerate(lines):
        q = Polyline(list(map(point_key, Q)))
        grown.add(q.ints, q.scale, k)
        try:
            found = _reference_crossings(P, Q, (Q[0], Q[-1]))
            expected += [(pa, k, pb, pt, side) for pa, pb, pt, side in found]
        except _Fault as err:
            at = (err.where[0], k, err.where[1]) if err.where else (math.inf,)
            faults.append((at, str(err)))
        if not faults:
            assert _read(grown.crossings(P)) == sorted(expected)
        else:
            with pytest.raises(NonGenericGeometry) as raised:
                grown.crossings(P)
            assert str(raised.value) == min(faults)[1]
