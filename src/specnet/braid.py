"""Positive braid words and their Demazure products.

A permutation of [1, n] is the tuple of its images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


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


def demazure_product(word: BraidWord) -> Tuple[int, ...]:
    """0-Hecke product of the word: s*s_i = s when that would shorten s."""
    images = list(range(1, word.strand_count + 1))
    for i in word.letters:
        if images[i - 1] < images[i]:
            images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def length(images: Tuple[int, ...]) -> int:
    """The number of inversions of a permutation."""
    return sum(a > b for k, a in enumerate(images) for b in images[k + 1:])
