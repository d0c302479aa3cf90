"""Number-theoretic preprocessing: prime divisors, almost divisors, and
the leftover/residue/dense three-way split.

An integer d > 1 is an alpha-almost divisor of a multiset when at most
alpha elements are not divisible by d.  Peeling repeatedly divides out
an almost divisor until none remains, discarding the few non-divisible
elements at each step.  From a multiset with no alpha-almost divisor we
then extract a small residue set R whose subset sums cover every
residue class modulo every b in (1, alpha].

The full split of an instance produces, for alpha = ceil(sqrt(t/w)):

  leftover_part: elements discarded while peeling (small count and sum),
  residue_part:  the extracted residue generators, rescaled by the
                 accumulated divisor d,
  dense_part:    the remaining divisible bulk, carrying most of the mass.

Every element of residue_part and dense_part is divisible by d, and
(residue_part / d) generates all residues modulo every b up to alpha.

The split works on the instance's sorted distinct values and their
int64 counts (`Instance.multiset`), so it never reads a Python int and
makes no pass over the items: at w = 16 there are at most 16 values,
however many items.  An alpha-almost divisor divides one of any
alpha + 1 elements, so only the prime factors of the distinct values
among the alpha + 1 smallest are candidates, each checked with one `%`
over the values, weighted by their counts; dividing the values by one
keeps them sorted.  The alpha-prefix and 2alpha-prefix of the sorted
elements cut a value's count, so the residue set takes a prefix of each
value's copies, and the parts are multisets too.  `InstancePartition`
holds them as such and builds its sorted item arrays only when they are
read (checked mode, tests and tracing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import Instance, OracleBudgetError

SIEVE_LIMIT = 1 << 26


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit."""
    if limit < 2:
        return []
    if limit > SIEVE_LIMIT:
        raise OracleBudgetError("prime sieve limit exceeded")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return [int(p) for p in np.nonzero(flags)[0]]


def distinct_primes(items: Sequence[int]) -> list[int]:
    """The distinct primes that divide some item, ascending.

    Trial division of each distinct item by the sieved primes up to its
    square root; what is left of the item after that is 1 or a prime.
    """
    values = set(items)
    if any(x < 1 for x in values):
        raise ValueError("items must be >= 1")
    small = sieve_primes(math.isqrt(max(values, default=1)))
    primes = set()
    for rem in values:
        for p in small:
            if p * p > rem:
                break
            if rem % p == 0:
                primes.add(p)
                while rem % p == 0:
                    rem //= p
        if rem > 1:
            primes.add(rem)
    return sorted(primes)


def _almost_divisor(values: np.ndarray, counts: np.ndarray, alpha: int) -> Optional[int]:
    """Some d > 1 dividing all but at most alpha elements of the multiset
    (sorted distinct int64 values, positive counts), or None.

    Only primes need checking: any composite almost divisor has a prime
    factor that is at least as good.  Such a prime divides one of any
    alpha + 1 elements, so only the prime factors of the alpha + 1
    smallest are tried, in ascending order.  Returns the smallest
    qualifying prime.  When the multiset holds at most alpha elements
    every d > 1 qualifies vacuously and 2 is returned; an empty one gives
    None.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if values.size == 0:
        return None
    smallest = _prefix(counts, alpha + 1)
    if smallest.sum() <= alpha:
        return 2
    for p in distinct_primes(values[smallest > 0].tolist()):
        if counts[values % p != 0].sum() <= alpha:
            return p
    return None


def _prefix(counts: np.ndarray, k: int) -> np.ndarray:
    """How many copies of each value the k smallest elements of a multiset
    take, given its counts in ascending order of value."""
    return np.minimum(counts, np.maximum(k + counts - np.cumsum(counts), 0))


def _peel(
    values: np.ndarray, counts: np.ndarray, alpha: int
) -> tuple[int, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Iteratively divide out almost divisors of the multiset (sorted
    distinct int64 values, positive counts) until none remains.

    Returns (d, peeled, leftovers), each part a multiset of the same form:
    peeled = X(d)/d has no alpha-almost divisor, and leftovers collects
    the discarded non-divisible elements at their original scale.  Each
    step removes at most alpha elements and divides the rest by at least
    2, so there are at most about log2(w) steps and |leftovers| <= alpha *
    (log2(w) + 1).  For tiny multisets (at most alpha elements) every
    d > 1 qualifies and the cascade may consume everything, leaving
    peeled empty.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    d = 1
    leftovers = [(values[:0], counts[:0])]
    max_iters = max(int(values[-1]) if values.size else 0, 1).bit_length() + 1
    for _ in range(max_iters):
        if values.size == 0:
            break
        # dividing by p keeps the values sorted
        p = _almost_divisor(values, counts, alpha)
        if p is None:
            break
        stay = values % p == 0
        leftovers.append((values[~stay] * d, counts[~stay]))
        values, counts = values[stay] // p, counts[stay]
        d *= p
    else:
        raise AssertionError("divisor peeling failed to terminate")
    # one scale's leftovers are sorted already
    return d, (values, counts), _union(*leftovers) if len(leftovers) > 2 else leftovers[-1]


def _union(*multisets: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The union of multisets that share no value, as sorted distinct
    values and their counts.  The split's parts share none: a leftover of
    the scale d (not divisible by d * p) is no multiple of any later scale,
    and the residue and dense values are multiples of the last one."""
    values, counts = (np.concatenate(arrays) for arrays in zip(*multisets))
    order = np.argsort(values, kind="stable")
    return values[order], counts[order]


def _residue_counts(values: np.ndarray, counts: np.ndarray, alpha: int) -> np.ndarray:
    """How many copies of each value the residue set R takes from the
    multiset (sorted distinct int64 values, positive counts), which must
    have no alpha-almost divisor; subset sums of R cover every residue
    modulo every b <= alpha.

    Construction: take the first 2*alpha elements as a seed; for every
    prime p <= alpha that divides all but at most alpha of the seed,
    adjoin the first alpha elements not divisible by p (ValueError when
    there are fewer: p is then an alpha-almost divisor).  The result has
    at least min(alpha, b) elements not divisible by b for every
    1 < b <= alpha, hence subset sums of R cover all residues modulo b.
    |R| <= 4 * alpha * log2(w) up to rounding slack.  Every choice takes a
    prefix of each value's copies, so their union takes the longest."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    # the seed: the first 2 * alpha elements
    seed = _prefix(counts, 2 * alpha)
    if not values.size or seed[-1] == counts[-1]:
        # at most 2 * alpha elements: the seed takes them all
        return seed
    chosen = seed.copy()
    # Primes worth checking must divide >= alpha seed elements.
    for p in distinct_primes(values[seed > 0].tolist()):
        if p > alpha:
            break
        off = values % p != 0
        if seed[off].sum() > alpha:
            continue
        # adjoin the first alpha elements not divisible by p
        adjoin = _prefix(counts[off], alpha)
        if adjoin.sum() < alpha:
            raise ValueError(f"multiset has {alpha}-almost divisor {p}")
        chosen[off] = np.maximum(chosen[off], adjoin)
    return chosen


@dataclass(frozen=True, eq=False)
class InstancePartition:
    """Three-way split of the items with a common divisor for the bulk.

    leftover_part + residue_part + dense_part equals the items as a
    multiset; every element of residue_part and dense_part is divisible
    by divisor.  Each part is a sorted, read-only, 1-D int64 array.  Two
    partitions are equal when their divisors, alphas and parts are, and
    hash by them.

    The partition holds each part as a multiset, its sorted distinct
    values and their positive counts (int64 arrays, the form of
    `Instance.multiset`), which the solver reads; each part's array is
    built from its multiset on its first read (checked mode, tests and
    tracing read them).
    """

    divisor: int
    leftover_multiset: tuple[np.ndarray, np.ndarray]
    residue_multiset: tuple[np.ndarray, np.ndarray]
    dense_multiset: tuple[np.ndarray, np.ndarray]
    alpha: int

    @cached_property
    def leftover_part(self) -> np.ndarray:
        return _items(self.leftover_multiset)

    @cached_property
    def residue_part(self) -> np.ndarray:
        return _items(self.residue_multiset)

    @cached_property
    def dense_part(self) -> np.ndarray:
        return _items(self.dense_multiset)

    def _key(self) -> tuple:
        parts = (self.leftover_part, self.residue_part, self.dense_part)
        return (self.divisor, self.alpha, *(part.tobytes() for part in parts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstancePartition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _items(multiset: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The sorted, read-only int64 array of a multiset's elements."""
    return _read_only(np.repeat(*multiset))


def alpha_for(t: int, w: int) -> int:
    """Smallest integer a with a*a*w >= t (ceil of sqrt(t/w))."""
    if t < 1 or w < 1:
        raise ValueError("t and w must be >= 1")
    a = math.isqrt(t // w)
    while a * a * w < t:
        a += 1
    return max(a, 1)


def partition_instance(instance: Instance) -> InstancePartition:
    """Split the items into leftover / residue / dense parts.

    alpha = ceil(sqrt(t/w)); the divisor comes from peeling, the residue
    set from the peeled bulk, and everything else forms the dense part
    (rescaled back to the original magnitudes).  Works on the instance's
    multiset: each peeling step is linear in its distinct values.
    """
    if instance.target < 1 or instance.n == 0:
        raise ValueError("partition requires t >= 1 and non-empty items")
    alpha = alpha_for(instance.target, instance.w)
    d, (values, counts), leftover = _peel(*instance.multiset, alpha)
    # the residue set and the dense part, by copies of each peeled value
    # (both empty when peeling consumed every item)
    residue = _residue_counts(values, counts, alpha)
    dense = counts - residue
    values = values * d
    kept_r, kept_d = residue > 0, dense > 0
    return InstancePartition(
        d, leftover, (values[kept_r], residue[kept_r]), (values[kept_d], dense[kept_d]), alpha
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def verify_partition(part: InstancePartition, instance: Instance) -> None:
    """Internal consistency checks for a partition (used by tests and
    checked mode).  Raises AssertionError on violation."""
    leftover, residue, dense = (p.tolist() for p in (part.leftover_part, part.residue_part, part.dense_part))
    merged = sorted(leftover + residue + dense)
    assert merged == sorted(instance.items), "partition must preserve the multiset"
    d = part.divisor
    assert d >= 1
    assert all(x % d == 0 for x in residue + dense)
    w, t = instance.w, instance.target
    lg = math.log2(w) if w >= 2 else 1.0
    sqwt = math.sqrt(w * t)
    sigma_g = sum(leftover)
    sigma_r = sum(residue)
    # Ceiling slack on top of the sqrt(w*t)*log2(w)-scale bounds.
    assert sigma_g <= sqwt * lg + sqwt + w * (lg + 1), "leftover mass too large"
    assert sigma_r <= 4 * sqwt * lg + 4 * w * (lg + 1), "residue mass too large"
