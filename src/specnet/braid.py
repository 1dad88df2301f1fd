"""Positive braid words, permutations, Demazure products and chord labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class BraidWord:
    strand_count: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        if self.strand_count < 2:
            raise ValueError("strand count must be >= 2")
        for letter in self.letters:
            if not 1 <= letter <= self.strand_count - 1:
                raise ValueError(
                    "letter %d out of range [1, %d]" % (letter, self.strand_count - 1)
                )

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        body = " ".join(str(i) for i in self.letters) or "(empty)"
        return "n=%d; %s" % (self.strand_count, body)


@dataclass(frozen=True)
class Permutation:
    """A permutation of [1, n], stored by its images."""

    images: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("not a bijection on [1, %d]: %r" % (n, self.images))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    def __call__(self, value: int) -> int:
        return self.images[value - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(x) = self(other(x))
        return Permutation(tuple(self(other(x)) for x in range(1, len(self.images) + 1)))

    def length(self) -> int:
        """The number of inversions."""
        images = self.images
        return sum(
            1
            for a in range(len(images))
            for b in range(a + 1, len(images))
            if images[a] > images[b]
        )

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))


@dataclass(frozen=True)
class ChordLabeling:
    beta_chords: Tuple[str, ...]
    delta_chords: Tuple[str, ...]


def demazure_product(word: BraidWord) -> Permutation:
    """0-Hecke product of the word: s*s_i = s when that would shorten s."""
    n = word.strand_count
    result = Permutation.identity(n)
    for letter in word.letters:
        candidate = result * Permutation.transposition(n, letter)
        if candidate.length() > result.length():
            result = candidate
    return result


def reduced_word(perm: Permutation) -> BraidWord:
    """One reduced word for ``perm`` (leftmost-descent greedy)."""
    n = len(perm.images)
    images = list(perm.images)
    letters: List[int] = []
    # Sort images back to identity by adjacent swaps recorded right-to-left.
    while images != list(range(1, n + 1)):
        for i in range(n - 1):
            if images[i] > images[i + 1]:
                images[i], images[i + 1] = images[i + 1], images[i]
                letters.append(i + 1)
                break
    letters.reverse()
    return BraidWord(n, tuple(letters))


def label_chords(beta: BraidWord, delta_word: BraidWord) -> ChordLabeling:
    """Name one chord per crossing, z_k for beta and w_k for delta.

    Both words' chords are indexed right to left: the rightmost beta
    crossing is z_1.
    """
    if beta.strand_count != delta_word.strand_count:
        raise ValueError("mismatched strand counts")
    return ChordLabeling(tuple("z_%d" % i for i in range(len(beta), 0, -1)),
                         tuple("w_%d" % i for i in range(len(delta_word), 0, -1)))
