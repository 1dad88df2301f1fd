import random
from fractions import Fraction

import pytest

from specnet.forest import build_forest_strands
from specnet.geometry import prepare, walk_sheets
from specnet.laurent import LaurentPoly
from specnet.soliton_bps import CAP_EPS, LiftedPath
from specnet.weave import Move, _apply_move, bend_weave, demazure_product, length, parse_weave

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
    assert [(cut, side) for _, cut, _, _, side in engine.cut_set.crossings(arc.polyline)] \
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
    xs = [bent.top_positions[name] for name in bent.chord_names]
    stops = ([Fraction(1, 3)] + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
             + [bent.marked_x - Fraction(1, 3)])
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
