import random

import pytest

from specnet.forest import build_forest_strands
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
