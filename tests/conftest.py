import random
from fractions import Fraction

import pytest

from specnet.forest import build_forest_strands
from specnet.geometry import (NonGenericGeometry, Polyline, PolylineSet, exact_point, interp,
                              point_key, prepare, walk_sheets)
from specnet.laurent import LaurentPoly
from specnet.nonabel import homotopic_pair
from specnet.soliton_bps import BIRTH_PARAM, CAP_EPS, LiftedPath, freely_reduced, on_a_segment
from specnet.weave import (LAYOUT_SCALE, Move, _apply_move, bend_weave, demazure_product, length,
                           parse_weave)

EXAMPLES = {
    "mutation_a": "n=2\ntop: 1 1 1\nmoves: t2 t1",
    "mutation_b": "n=2\ntop: 1 1 1\nmoves: t1 t1",
    "sigma1_6": "n=2\ntop: 1 1 1 1 1 1\nmoves: t5 t3 t2 t1 t1",
    "five_crossing": "n=3\ntop: 2 1 2 1 2\nmoves: h1 t3 h2 t1",
    "three_strand": "n=3\ntop: 2 1 2 1 2 1 2\nmoves: h1 t3 h2 t1 t3 h2 t1",
}

# two n = 4 weaves in which a strand climbs through a tetravalent vertex
X_MOVE_WEAVES = ["n=4\ntop: 1 2 1 3 1 2\nmoves: x3 t4 x3 x3",
                 "n=4\ntop: 1 3 1 3 2 3\nmoves: x3 t2 x1 t2 x1"]


@pytest.fixture(scope="session")
def builders():
    """One forest builder per example weave, shared across the whole run."""
    return {name: build_forest_strands(bend_weave(parse_weave(text)))
            for name, text in EXAMPLES.items()}


def random_weave_texts(seed, draws, n=3):
    """Weave texts of ``draws`` seeded random n-strand draws, skipping those
    whose bottom is not reduced: tops of 5-9 letters from 1..n-1 and 4-10
    random t, h and x moves, drawn from ``random.Random(seed)``.  For n = 3
    no x move is possible, so the draws are those of the t and h moves alone."""
    rng = random.Random(seed)
    for _ in range(draws):
        top = tuple(rng.choice(range(1, n)) for _ in range(rng.randint(5, 9)))
        word, moves = top, []
        for _ in range(rng.randint(4, 10)):
            spots = ([("t", p + 1) for p in range(len(word) - 1) if word[p] == word[p + 1]]
                     + [("h", p + 1) for p in range(len(word) - 2)
                        if word[p] == word[p + 2] and abs(word[p] - word[p + 1]) == 1]
                     + [("x", p + 1) for p in range(len(word) - 1)
                        if abs(word[p] - word[p + 1]) > 1])
            if not spots:
                break
            move = Move(*rng.choice(spots))
            moves.append("%s%d" % (move.kind, move.position))
            word = _apply_move(word, move)
        if length(demazure_product(n, word)) == len(word):
            yield "n=%d\ntop: %s\nmoves: %s" % (n, " ".join(map(str, top)), " ".join(moves))


def random_weave_builders():
    """Forests of the random weave texts of 100 draws at seed 20261018.
    Weaves whose geometry the forest rejects are skipped."""
    for text in random_weave_texts(20261018, 100):
        try:
            yield build_forest_strands(bend_weave(parse_weave(text)))
        except RuntimeError:
            continue


def cut_set(engine):
    """The engine's cuts as a ``PolylineSet`` tagged by cut: the query that
    ``slits_along`` is checked against where it answers, a corner hit, a
    collinear overlap or a duplicate crossing point raising."""
    return PolylineSet((cut, k) for k, cut in enumerate(engine.cuts))


def arc_chains(engine):
    """Per marked sheet i, the boundary arc's chain lifted from sheet i: one
    loop at the marked point that runs right to x_max + 2, down below every
    line, left to x = -2, up, and back right along y = -CAP_EPS, with its
    weave-line events.  The reference the walked marked-point values are
    checked against."""
    marked = (engine.x_max, Fraction(0))
    arc = prepare([marked, (engine.x_max + 2, -CAP_EPS), (engine.x_max + 2, engine.y_deep - 1),
                   (Fraction(-2), engine.y_deep - 1), (Fraction(-2), -CAP_EPS),
                   (engine.x_max - CAP_EPS, -CAP_EPS), marked])
    path = LiftedPath(arc, engine.builder.events_along(arc))
    return [[(path, i, 1)] for i in range(1, engine.weave.strand_count + 1)]


def assert_arc_walks_equal_solves(engine):
    """The engine's ``arc_word`` is the arc's cut-crossing word, and its walk
    from each marked sheet gives the class that pairing solves for the arc
    chain and the sheet the arc's events carry that sheet to."""
    chains = arc_chains(engine)
    arc = chains[0][0][0]
    assert [(cut, side) for _, cut, _, _, side in cut_set(engine).crossings(arc.polyline)] \
        == engine.arc_word
    solved = [(engine.class_of_chain(chain), walk_sheets((i,), arc.events)[0][0])
              for i, chain in enumerate(chains, 1)]
    assert [engine.walk(i, engine.arc_word) for i in range(1, len(chains) + 1)] == solved


def assert_basis_walks_are_units(engine):
    """Each b-strand's ``wall_class`` at its chord end is its own unit
    vector e_j, read off walks with no pairing built: the engine's letter
    classes invert the matrix of the b-strands' letter words."""
    gens = len(engine.gen_names)
    for j, sid in enumerate(engine.basis_strands):
        chord_end = engine.builder.strands[sid].path.ends[1]
        assert engine.wall_class(sid, None, engine.cap_word(chord_end)) == \
            tuple(int(i == j) for i in range(gens)), sid
    assert not pairing_built(engine)


def loop_letters(engine):
    """The engine's letter table as the loop round each branch point reads
    it, with formal classes: per (marked sheet, cut), +e_k from the lower
    marked sheet of the cut's transposition, -e_k from the upper and 0
    elsewhere, and the end marked sheet.  The cuts are read from the
    rightmost top leftward.  The loop round cut k's branch point has the
    reduced word u (k, +-1) v, every cut of u and v read already; its lift
    from marked sheet t, ending at marked sheet E, gives the letter from
    walk(t, u)'s end to walk(E, v reversed)'s.  The reference the letters
    read off the cuts are checked against."""
    letters, cuts = {}, len(engine.cuts)

    def walk(sheet, word):
        for cut, _ in word:
            sheet = letters[sheet, cut][1]
        return sheet

    for k, _ in reversed(engine.arc_word):
        loop = engine.walkable(prepare(engine.loop(engine.cuts[k][0])))
        cap_word = engine.cap_word(loop.ends[0])
        slits = engine.slits_along(loop.ints, loop.scale)
        word = freely_reduced([(cut, -side) for cut, side in reversed(cap_word)]
                              + [(cut, side) for _, cut, side in slits] + cap_word)
        assert [cut for cut, _ in word if (1, cut) not in letters] == [k], word
        at = [cut for cut, _ in word].index(k)
        # the loop is closed, so its start cap's sheets are those of its end cap
        sheets = engine.cap_sheets(loop.ends[0])
        ends, _ = walk_sheets(tuple(range(1, engine.weave.strand_count + 1)),
                              engine.builder.events_along(loop))
        for t, s in zip(sheets, ends):
            t1, end = walk(t, word[:at]), walk(sheets[s - 1], word[:at:-1])
            unit = (end > t1) - (end < t1)
            letters[t1, k] = tuple(unit if j == k else 0 for j in range(cuts)), end
    return letters


def assert_letters_read_off_the_cuts(engine):
    """The engine's letters, read off the cuts and the top line, are the
    loop-built ones (``loop_letters``): each ends where the reference's
    does, and its class is its cut's column of M^-1 times the reference's
    formal unit, the column being the class of the letter from the lower
    sheet of the cut's transposition."""
    reference = loop_letters(engine)
    assert engine._letters.keys() == reference.keys()
    columns = {k: engine._letters[t, k][0] for (t, k), (unit, _) in reference.items() if unit[k] == 1}
    assert len(columns) == len(engine.cuts)
    for (t, k), (unit, end) in reference.items():
        assert engine._letters[t, k] == (tuple(unit[k] * v for v in columns[k]), end), (t, k)


def unless_raising(query, path):
    """``query(path)``, or None where it raises NonGenericGeometry."""
    try:
        return query(path)
    except NonGenericGeometry:
        return None


def whole_cap_word(engine, point):
    """The cut crossings of the whole cap at the scaled ``point``, from one
    query on its two legs: None where the point lies on a cut or the query
    raises.  The reference the top-line cap words are checked against."""
    cuts = cut_set(engine)
    if on_a_segment(cuts.segments, point):
        return None
    crossings = unless_raising(cuts.crossings, Polyline(engine.cap_points(point)))
    return None if crossings is None else [(cut, side) for _, cut, _, _, side in crossings]


def just_left(point, shift=Fraction(1, 2 ** 80)):
    """The scaled ``point`` moved ``shift`` to the left."""
    x, y, d = point
    return point_key((Fraction(x, d) - shift, Fraction(y, d)))


def left_cap_word(engine, point):
    """The whole cap's word at the scaled ``point``, or where that has none,
    at the point 2^-80 left of it: the half-open rule's reference, a point
    on a cut read as left of it."""
    word = whole_cap_word(engine, point)
    return whole_cap_word(engine, just_left(point)) if word is None else word


def whole_cap_sheets(engine, point):
    """The sheet permutation of the whole cap at the scaled ``point``, from
    one weave-line query on its two legs, or the message of the
    NonGenericGeometry that query raises.  The reference the top-line cap
    sheets are checked against."""
    try:
        events = engine.builder.events_along(Polyline(engine.cap_points(point)))
    except NonGenericGeometry as err:
        return str(err)
    return walk_sheets(tuple(range(1, engine.weave.strand_count + 1)), events)[0]


def cap_sheets_or_message(engine, point):
    """``engine.cap_sheets(point)``, or the message of the NonGenericGeometry it raises."""
    try:
        return engine.cap_sheets(point)
    except NonGenericGeometry as err:
        return str(err)


def assert_caps_read_off_the_top_line(transport):
    """The transport engine's ``cap_word``, raw, and ``cap_sheets`` equal
    the whole cap's queries (for a word, ``left_cap_word``) at every
    wall's birth point and chord end, at every letter loop's start and at
    the junctions of two seeded homotopic pairs: the ends of each path and
    its wall crossings.  Returns the number of points compared."""
    engine, builder = transport.engine, transport.builder
    points = [point for strand in builder.strands
              for point in (interp(strand.path, BIRTH_PARAM), strand.path.ends[1])]
    points += [point_key(engine.loop(bottom)[0]) for bottom, _ in engine.cuts]
    rng = random.Random(20261020)
    for _ in range(2):
        for poly in homotopic_pair(transport, rng):
            path = prepare(poly)
            points += [path.ends[0], path.ends[1]]
            points += [pt for _, _, _, pt, _ in builder.walls.crossings(path)]
    for point in points:
        assert engine.cap_word(point) == left_cap_word(engine, point), point
        assert cap_sheets_or_message(engine, point) == whole_cap_sheets(engine, point), point
    return len(points)


def whole_walk_origins(engine):
    """Per wall, in id order, its origin as the engine kept it before its
    per-wall walk states: (C, W(p0)^-1, (m1, m2)), C a seed's walk from m2
    of W(p0)^-1 (k) W(p0) or a child's parents' classes at its start,
    each walked whole (``whole_walk_class``)."""
    origins = []
    for sid, strand in enumerate(engine.builder.strands):
        base, (m1, m2) = engine._origin(sid)
        prefix = [(cut, -side) for cut, side in reversed(base)]
        joint = engine.builder.born_at.get(sid)
        if joint is None:
            cut = engine._cut_of[strand.origin[1]]
            cls = engine.walk(m2, prefix + [(cut, 1)] + base)[0]
        else:
            parents = [whole_walk_class(engine, origins, pid, joint["params"][pid], base)
                       for pid in joint["parents"]]
            cls = tuple(map(sum, zip(*parents)))
        origins.append((cls, prefix, (m1, m2)))
    return origins


def whole_walk_class(engine, origins, sid, param, word):
    """Wall ``sid``'s class at ``param``, ``word`` the cap word there,
    walked whole from its ``whole_walk_origins`` entry: C + walk(m1, w) -
    walk(m2, w), w = W(p0)^-1 then the wall's cut crossings before
    ``param`` then ``word``.  The reference the prefix walk states are
    checked against."""
    cls, prefix, (m1, m2) = origins[sid]
    word = prefix + engine._wall_word(sid, param, word)
    (c1, _), (c2, _) = (engine.walk(m, word) for m in (m1, m2))
    return tuple(c + a - b for c, a, b in zip(cls, c1, c2))


def assert_wall_classes_walk_as_the_whole_walk(transport, paths=()):
    """The engine's ``wall_class``, walked on from its per-wall prefix
    states, equals the whole walk from the wall's origin
    (``whole_walk_class``) at every wall's birth param and chord end and
    at every wall crossing of the polylines ``paths``.  Returns the number
    of classes compared."""
    engine, builder = transport.engine, transport.builder
    origins = whole_walk_origins(engine)
    sites = [(strand.id, param, point) for strand in builder.strands
             for param, point in ((BIRTH_PARAM, interp(strand.path, BIRTH_PARAM)),
                                  (None, strand.path.ends[1]))]
    for poly in paths:
        sites += [(sid, param, point) for _, sid, param, point, _ in builder.walls.crossings(poly)]
    for sid, param, point in sites:
        word = engine.cap_word(point)
        assert engine.wall_class(sid, param, word) == \
            whole_walk_class(engine, origins, sid, param, word), (sid, param)
    return len(sites)


def pairing_built(engine):
    """Which of the engine's lazily built pairing parts exist: its test
    curves, its pairing matrix and that matrix's factors."""
    return vars(engine).keys() & {"_tests", "matrix", "_factored"}


# how far below the top boundary top_boundary_fault's paths run
TOP_Y = Fraction(-1, 10007)
# the one kind of coefficient difference seen between the two sides
PLUS_MINUS_TWO = "augmentation ±2 where c_q is 0"


def top_boundary_fault(transport, table):
    """The top-boundary identity between transport and the weave's
    augmentation ``table``, the path-matrix identity of the braid variety
    (Kalman 2005; Casals, Gorsky, Gorsky and Simental 2020).

    Chord q has letter i_q and lies between two stops on y = TOP_Y: the
    midpoints to its neighbours, x = 1/3 before the first chord and 1/3
    left of the marked point after the last.  Transport between the two
    stops must be B(i_q, c_q), the identity but for rows and columns i_q
    and i_q + 1, which hold [[0, 1], [-1, c_q]].  The product over the
    chords, in path order, must be diagonal with entry i plus or minus the
    inverse of t_i.  Both are asserted.  Returns None where each c_q has
    the monomials of the chord's augmentation value; otherwise
    PLUS_MINUS_TWO where c_q lacks only monomials whose augmentation
    coefficient is 2 or -2, and else each chord's two values."""
    bent, n = transport.builder.bent, transport.n
    letters = list(bent.weave.top) + list(reversed(bent.weave.bottom))
    xs = [Fraction(bent.top_xs[name], LAYOUT_SCALE) for name in bent.chord_names]
    stops = ([Fraction(1, 3)] + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
             + [exact_point(bent.marked)[0] - Fraction(1, 3)])
    zero = LaurentPoly.zero(transport.gens)
    total, differ = transport.identity(), []
    for name, i, x0, x1 in zip(bent.chord_names, letters, stops, stops[1:]):
        piece = transport.transport_path([(x0, TOP_Y), (x1, TOP_Y)])
        c = piece[i][i]
        braid = transport.identity()
        one = braid[i][i]
        braid[i - 1][i - 1], braid[i - 1][i], braid[i][i - 1], braid[i][i] = zero, one, -one, c
        assert piece == braid, (name, piece)
        total = transport.matmul(piece, total)
        if set(c.terms) != set(table[name].terms):
            differ.append((name, c, table[name]))
    for r in range(n):
        t = table["t_%d" % (r + 1)].inverse()
        assert total[r][r] in (t, -t) and all(total[r][k].is_zero() for k in range(n) if k != r), total
    if not differ:
        return None
    if all(set(c.terms) < set(value.terms) and all(abs(value.terms[m]) == 2 for m in
                                                   set(value.terms) - set(c.terms))
           for _, c, value in differ):
        return PLUS_MINUS_TWO
    return "; ".join("%s: c_q %s, augmentation %s" % entry for entry in differ)
