import itertools
import random

import pytest
from hypothesis import given, strategies as st

from specnet.weave import bend_weave, demazure_product, length, parse_weave


def reduced_word(perm):
    """One reduced word, as a tuple of letters, for the permutation with
    images ``perm`` (leftmost-descent greedy)."""
    n = len(perm)
    images = list(perm)
    letters = []
    # Sort images back to identity by adjacent swaps recorded right-to-left.
    while images != list(range(1, n + 1)):
        for i in range(n - 1):
            if images[i] > images[i + 1]:
                images[i], images[i + 1] = images[i + 1], images[i]
                letters.append(i + 1)
                break
    letters.reverse()
    return tuple(letters)


# ----- independent oracle: exhaustive 0-Hecke multiplication in S_n -----

def hecke_oracle(n, letters):
    perm = tuple(range(1, n + 1))

    def apply(perm, i):
        # right multiplication by s_i, kept only if it adds an inversion
        lifted = list(perm)
        lifted[i - 1], lifted[i] = lifted[i], lifted[i - 1]
        def inv(p):
            return sum(1 for a, b in itertools.combinations(p, 2) if a > b)
        return tuple(lifted) if inv(lifted) > inv(list(perm)) else perm

    for letter in letters:
        perm = apply(perm, letter)
    return perm


def test_letters_must_be_in_range():
    with pytest.raises(ValueError, match=r"^letter 2 out of range \[1, 1\]$"):
        parse_weave("n=2\ntop: 2")
    with pytest.raises(ValueError, match=r"^letter 0 out of range \[1, 2\]$"):
        parse_weave("n=3\ntop: 0")
    with pytest.raises(ValueError, match="^strand count must be >= 2$"):
        parse_weave("n=1\ntop:")


def test_demazure_examples():
    assert demazure_product(2, (1, 1)) == (2, 1)
    assert demazure_product(3, ()) == (1, 2, 3)
    w0 = demazure_product(3, (2, 1, 2, 1, 2, 1, 2))
    assert w0 == (3, 2, 1)


words = st.integers(3, 5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n - 1), max_size=10).map(tuple)
    )
)


@given(words)
def test_demazure_matches_oracle(data):
    n, letters = data
    assert demazure_product(n, letters) == hecke_oracle(n, letters)


@given(words, st.randoms())
def test_demazure_invariant_under_legal_rewrites(data, rng):
    n, letters = data
    word = list(letters)
    reference = demazure_product(n, letters)
    for _ in range(10):
        spots = []
        for p in range(len(word) - 1):
            if abs(word[p] - word[p + 1]) > 1:
                spots.append(("swap", p))
        for p in range(len(word) - 2):
            i, j, k = word[p : p + 3]
            if i == k and abs(i - j) == 1:
                spots.append(("braid", p))
        if not spots:
            break
        kind, p = rng.choice(spots)
        if kind == "swap":
            word[p], word[p + 1] = word[p + 1], word[p]
        else:
            word[p : p + 3] = [word[p + 1], word[p], word[p + 1]]
        assert demazure_product(n, tuple(word)) == reference


@given(words)
def test_demazure_idempotence(data):
    n, letters = data
    result = demazure_product(n, letters)
    stabilized = letters + reduced_word(result)
    assert demazure_product(n, letters + letters) == demazure_product(n, stabilized)


def test_reduced_word_round_trip():
    for images in itertools.permutations(range(1, 5)):
        word = reduced_word(images)
        assert len(word) == length(images)
        assert demazure_product(4, word) == images


def test_chord_names_examples():
    bent = bend_weave(parse_weave("n=2\ntop: 1 1 1 1 1 1\nmoves: t5 t3 t2 t1 t1"))
    assert bent.chord_names[:-1] == ["z_6", "z_5", "z_4", "z_3", "z_2", "z_1"]
    assert bent.chord_names[-1:] == ["w_1"]

    bent = bend_weave(parse_weave("n=3\ntop: 2 1 2 1 2 1 2\nmoves: h1 t3 h2 t1 t3 h2 t1"))
    assert bent.weave.bottom == (1, 2, 1)
    assert bent.chord_names[0] == "z_7"
    assert bent.chord_names[6] == "z_1"
    assert bent.chord_names[7:] == ["w_3", "w_2", "w_1"]

    assert bend_weave(parse_weave("n=2\ntop:\nmoves:")).chord_names == []
