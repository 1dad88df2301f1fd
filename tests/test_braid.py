import itertools
import random

import pytest
from hypothesis import given, strategies as st

from specnet.braid import BraidWord, demazure_product, length
from specnet.weave import bend_weave, parse_weave


def reduced_word(perm):
    """One reduced word for the permutation with images ``perm``
    (leftmost-descent greedy)."""
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
    return BraidWord(n, tuple(letters))


# ----- independent oracle: exhaustive 0-Hecke multiplication in S_n -----

def hecke_oracle(word: BraidWord):
    n = word.strand_count
    perm = tuple(range(1, n + 1))

    def apply(perm, i):
        # right multiplication by s_i, kept only if it adds an inversion
        lifted = list(perm)
        lifted[i - 1], lifted[i] = lifted[i], lifted[i - 1]
        def inv(p):
            return sum(1 for a, b in itertools.combinations(p, 2) if a > b)
        return tuple(lifted) if inv(lifted) > inv(list(perm)) else perm

    for letter in word.letters:
        perm = apply(perm, letter)
    return perm


def test_letters_must_be_in_range():
    assert len(BraidWord(3, ())) == 0
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_demazure_examples():
    assert demazure_product(BraidWord(2, (1, 1))) == (2, 1)
    assert demazure_product(BraidWord(3, ())) == (1, 2, 3)
    w0 = demazure_product(BraidWord(3, (2, 1, 2, 1, 2, 1, 2)))
    assert w0 == (3, 2, 1)


words = st.integers(3, 5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n - 1), max_size=10).map(tuple)
    )
)


@given(words)
def test_demazure_matches_oracle(data):
    n, letters = data
    word = BraidWord(n, letters)
    assert demazure_product(word) == hecke_oracle(word)


@given(words, st.randoms())
def test_demazure_invariant_under_legal_rewrites(data, rng):
    n, letters = data
    word = list(letters)
    reference = demazure_product(BraidWord(n, tuple(word)))
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
        assert demazure_product(BraidWord(n, tuple(word))) == reference


@given(words)
def test_demazure_idempotence(data):
    n, letters = data
    word = BraidWord(n, letters)
    result = demazure_product(word)
    doubled = BraidWord(n, letters + letters)
    stabilized = BraidWord(n, letters + reduced_word(result).letters)
    assert demazure_product(doubled) == demazure_product(stabilized)


def test_reduced_word_round_trip():
    for images in itertools.permutations(range(1, 5)):
        word = reduced_word(images)
        assert len(word) == length(images)
        assert demazure_product(word) == images


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
