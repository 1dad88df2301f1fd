import itertools
import random

import pytest
from hypothesis import given, strategies as st

from specnet.braid import (
    BraidWord,
    Permutation,
    demazure_product,
    label_chords,
    reduced_word,
)


# ----- independent oracle: exhaustive 0-Hecke multiplication in S_n -----

def hecke_oracle(word: BraidWord) -> Permutation:
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
    return Permutation(perm)


def test_letters_must_be_in_range():
    assert len(BraidWord(3, ())) == 0
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_demazure_examples():
    assert demazure_product(BraidWord(2, (1, 1))) == Permutation((2, 1))
    assert demazure_product(BraidWord(3, ())).is_identity()
    w0 = demazure_product(BraidWord(3, (2, 1, 2, 1, 2, 1, 2)))
    assert w0 == Permutation((3, 2, 1))


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
        perm = Permutation(images)
        word = reduced_word(perm)
        assert len(word) == perm.length()
        assert demazure_product(word) == perm


def test_label_chords_examples():
    beta = BraidWord(2, (1,) * 6)
    labeling = label_chords(beta, BraidWord(2, (1,)))
    assert labeling.beta_chords == ("z_6", "z_5", "z_4", "z_3", "z_2", "z_1")
    assert labeling.delta_chords == ("w_1",)

    beta = BraidWord(3, (2, 1, 2, 1, 2, 1, 2))
    labeling = label_chords(beta, BraidWord(3, (1, 2, 1)))
    assert labeling.beta_chords[0] == "z_7"
    assert labeling.beta_chords[-1] == "z_1"
    assert labeling.delta_chords == ("w_3", "w_2", "w_1")

    empty = BraidWord(2, ())
    labeling = label_chords(empty, empty)
    assert labeling.beta_chords == () and labeling.delta_chords == ()

    with pytest.raises(ValueError):
        label_chords(BraidWord(2, (1,)), BraidWord(3, (1,)))
