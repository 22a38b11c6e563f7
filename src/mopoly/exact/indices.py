"""Multi-indices and permutations for the nearest-neighbor recurrences.

A multi-index n = (n_1, ..., n_p) of non-negative integers labels every
polynomial; |n| is the sum of its entries.  A permutation pi of {1, ..., p}
fixes the order in which components are decremented: the step vectors are

    s_0 = 0,    s_j = e_{pi(1)} + ... + e_{pi(j)},

and S(pi, j) = {i : j <= pi^{-1}(i)} collects the components not yet
decremented after j - 1 steps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from ..errors import InvalidShiftError


@dataclass(frozen=True)
class MultiIndex:
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ValueError("multi-index needs at least one entry")
        if any(not isinstance(e, int) or e < 0 for e in self.entries):
            raise InvalidShiftError(f"multi-index entries must be >= 0, got {self.entries}")

    @staticmethod
    def of(entries) -> "MultiIndex":
        return MultiIndex(tuple(int(e) for e in entries))

    @property
    def p(self) -> int:
        return len(self.entries)

    @property
    def size(self) -> int:
        """|n| = n_1 + ... + n_p."""
        return sum(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def add_unit(self, k: int) -> "MultiIndex":
        """n + e_k with k 1-based."""
        e = list(self.entries)
        e[k - 1] += 1
        return MultiIndex(tuple(e))

    def sub_unit(self, k: int) -> "MultiIndex":
        """n - e_k with k 1-based; raises below zero."""
        e = list(self.entries)
        e[k - 1] -= 1
        return MultiIndex.of(e)

    def shifted(self, delta) -> "MultiIndex":
        """n + delta entrywise; raises InvalidShiftError below zero."""
        return MultiIndex.of([a + b for a, b in zip(self.entries, delta)])

    def can_shift(self, delta) -> bool:
        return all(a + b >= 0 for a, b in zip(self.entries, delta))

    def without(self, i: int) -> tuple[int, ...]:
        """Entries with the 1-based i-th component removed (the *i vectors)."""
        return self.entries[: i - 1] + self.entries[i:]


def multi_indices(p: int, max_size: int, min_size: int = 0):
    """All multi-indices of length p with min_size <= |n| <= max_size, by size then lex."""
    for total in range(min_size, max_size + 1):
        for combo in itertools.product(range(total + 1), repeat=p):
            if sum(combo) == total:
                yield MultiIndex(combo)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1, ..., p}, stored as the image tuple (pi(1), ..., pi(p))."""

    image: tuple[int, ...]

    def __post_init__(self):
        p = len(self.image)
        if sorted(self.image) != list(range(1, p + 1)):
            raise ValueError(f"{self.image} is not a permutation of 1..{p}")

    @staticmethod
    def identity(p: int) -> "Permutation":
        return Permutation(tuple(range(1, p + 1)))

    @staticmethod
    def of(image) -> "Permutation":
        return Permutation(tuple(int(v) for v in image))

    @property
    def p(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self, i: int) -> int:
        return self.image.index(i) + 1


def all_permutations(p: int):
    for image in itertools.permutations(range(1, p + 1)):
        yield Permutation(image)


@functools.lru_cache(maxsize=256)
def step_sets(perm: Permutation, j: int):
    """Step vector and index sets at stage j of the recurrence.

    Returns (s_j, S(pi, j), S_complement) where s_j = sum_{i<=j} e_{pi(i)},
    S(pi, j) = {i : j <= pi^{-1}(i)} and S_complement is its complement in
    {1, ..., p}.  Stage j ranges over 0..p; s_0 is the zero vector.  The
    result depends on (perm, j) alone and is immutable, so it is cached.
    """
    p = perm.p
    if not 0 <= j <= p:
        raise ValueError(f"stage j must lie in 0..{p}, got {j}")
    s = [0] * p
    for i in range(1, j + 1):
        s[perm(i) - 1] += 1
    big_s = frozenset(i for i in range(1, p + 1) if j <= perm.inverse(i))
    comp = frozenset(range(1, p + 1)) - big_s
    return tuple(s), big_s, comp
