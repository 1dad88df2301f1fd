import random

import pytest

from specnet.braid import BraidWord, demazure_product
from specnet.forest import build_forest_strands
from specnet.weave import Move, _apply_move, bend_weave, parse_weave

EXAMPLES = {
    "mutation_a": "n=2\ntop: 1 1 1\nmoves: t2 t1",
    "mutation_b": "n=2\ntop: 1 1 1\nmoves: t1 t1",
    "sigma1_6": "n=2\ntop: 1 1 1 1 1 1\nmoves: t5 t3 t2 t1 t1",
    "five_crossing": "n=3\ntop: 2 1 2 1 2\nmoves: h1 t3 h2 t1",
    "three_strand": "n=3\ntop: 2 1 2 1 2 1 2\nmoves: h1 t3 h2 t1 t3 h2 t1",
}


@pytest.fixture(scope="session")
def builders():
    """One forest builder per example weave, shared across the whole run."""
    return {name: build_forest_strands(bend_weave(parse_weave(text)))
            for name, text in EXAMPLES.items()}


def random_weave_builders():
    """Forests of 100 seeded random n = 3 weave draws with a reduced bottom:
    tops of 5-9 letters and 4-10 random t and h moves.  Weaves whose
    geometry the forest rejects are skipped."""
    rng = random.Random(20261018)
    for _ in range(100):
        top = tuple(rng.choice((1, 2)) for _ in range(rng.randint(5, 9)))
        word, moves = top, []
        for _ in range(rng.randint(4, 10)):
            spots = ([("t", p + 1) for p in range(len(word) - 1) if word[p] == word[p + 1]]
                     + [("h", p + 1) for p in range(len(word) - 2)
                        if word[p] == word[p + 2] != word[p + 1]])
            if not spots:
                break
            move = Move(*rng.choice(spots))
            moves.append("%s%d" % (move.kind, move.position))
            word = _apply_move(word, move)
        if demazure_product(BraidWord(3, word)).length() != len(word):
            continue
        text = "n=3\ntop: %s\nmoves: %s" % (" ".join(map(str, top)), " ".join(moves))
        try:
            yield build_forest_strands(bend_weave(parse_weave(text)))
        except RuntimeError:
            continue
