"""Number-theoretic preprocessing: factorization, almost divisors, and
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

The split works on one sorted int64 array.  An alpha-almost divisor
divides one of any alpha + 1 elements, so only the prime factors of the
alpha + 1 smallest are candidates, each checked with one `%` over the
array; the parts are then taken from the array by position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Instance, OracleBudgetError

SIEVE_LIMIT = 1 << 26


@dataclass
class FactorTable:
    """Prime factorization of every item plus the distinct primes seen."""

    factors: list[dict[int, int]]
    primes: list[int]


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


def factorize_all(items: Sequence[int], w: Optional[int] = None) -> FactorTable:
    """Full prime factorization of every item.

    Sieves primes up to sqrt(w) and trial-divides; any cofactor left
    after removing all sieved primes is itself prime.
    """
    items = list(items)
    if w is None:
        w = max(items, default=0)
    if any(x < 1 or x > w for x in items):
        raise ValueError("item out of range [1, w]")
    small = sieve_primes(math.isqrt(w)) if w >= 4 else []
    factors = []
    seen: set[int] = set()
    for x in items:
        fd: dict[int, int] = {}
        rem = x
        for p in small:
            if p * p > rem:
                break
            while rem % p == 0:
                fd[p] = fd.get(p, 0) + 1
                rem //= p
        if rem > 1:
            fd[rem] = fd.get(rem, 0) + 1
        factors.append(fd)
        seen.update(fd)
    return FactorTable(factors, sorted(seen))


def find_almost_divisor(items: Sequence[int], alpha: int) -> Optional[int]:
    """Some d > 1 dividing all but at most alpha items, or None.

    Only primes need checking: any composite almost divisor has a prime
    factor that is at least as good.  Such a prime divides one of any
    alpha + 1 items, so only the prime factors of the alpha + 1 smallest
    are tried, in ascending order.  Returns the smallest qualifying
    prime.  When len(items) <= alpha every d > 1 qualifies vacuously and
    2 is returned.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    arr = np.sort(np.asarray(items, dtype=np.int64))
    if arr.size == 0:
        return None
    if arr.size <= alpha:
        return 2
    for p in factorize_all(arr[: alpha + 1].tolist()).primes:
        if np.count_nonzero(arr % p) <= alpha:
            return p
    return None


def peel_divisors(items: Sequence[int], alpha: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Iteratively divide out almost divisors until none remains.

    Returns (d, peeled, leftovers): peeled = X(d)/d has no alpha-almost
    divisor, and leftovers collects the discarded non-divisible elements
    at their original scale.  Each step removes at most alpha elements
    and divides the rest by at least 2, so there are at most about
    log2(w) steps and |leftovers| <= alpha * (log2(w) + 1).  For tiny
    multisets (at most alpha elements) every d > 1 qualifies and the
    cascade may consume everything, leaving peeled empty.  Both tuples
    are sorted.
    """
    d, peeled, leftovers = _peel(items, alpha)
    return d, tuple(peeled.tolist()), tuple(leftovers.tolist())


def _peel(items: Sequence[int], alpha: int) -> tuple[int, np.ndarray, np.ndarray]:
    """`peel_divisors` with sorted int64 arrays for outputs."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    arr = np.sort(np.asarray(items, dtype=np.int64))
    d = 1
    leftovers = [arr[:0]]
    max_iters = max(int(arr[-1]) if arr.size else 0, 1).bit_length() + 1
    for _ in range(max_iters):
        if arr.size == 0:
            break
        p = find_almost_divisor(arr, alpha)
        if p is None:
            break
        stay = arr % p == 0
        leftovers.append(arr[~stay] * d)
        arr = arr[stay] // p
        d *= p
    else:
        raise AssertionError("divisor peeling failed to terminate")
    return d, arr, np.sort(np.concatenate(leftovers))


def extract_residue_set(
    items: Sequence[int], alpha: int, checked: bool = False
) -> tuple[int, ...]:
    """Extract R subset of items covering residues modulo every b <= alpha.

    Requires that items has no alpha-almost divisor (the caller's
    obligation; verified when checked).  Construction: take the first
    2*alpha elements as a seed; for every prime p <= alpha that divides
    all but at most alpha of the seed, adjoin alpha elements not
    divisible by p.  The result has at least min(alpha, b) elements not
    divisible by b for every 1 < b <= alpha, hence subset sums of R
    cover all residues modulo b.  |R| <= 4 * alpha * log2(w) up to
    rounding slack.  R is returned sorted.
    """
    arr = np.sort(np.asarray(items, dtype=np.int64))
    if checked:
        bad = find_almost_divisor(arr, alpha)
        if bad is not None:
            raise ValueError(f"multiset has {alpha}-almost divisor {bad}")
    return tuple(arr[_residue_mask(arr, alpha)].tolist())


def _residue_mask(arr: np.ndarray, alpha: int) -> np.ndarray:
    """Which positions of the sorted int64 array `extract_residue_set`
    takes."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    chosen = np.zeros(arr.size, dtype=bool)
    chosen[: 2 * alpha] = True
    if arr.size <= 2 * alpha:
        return chosen
    seed = arr[: 2 * alpha]
    # Primes worth checking must divide >= alpha seed elements.
    for p in factorize_all(seed.tolist()).primes:
        if p > alpha:
            break
        if np.count_nonzero(seed % p) > alpha:
            continue
        adjoin = np.flatnonzero(arr % p)[:alpha]
        if adjoin.size < alpha:
            raise ValueError(f"multiset has {alpha}-almost divisor {p}")
        chosen[adjoin] = True
    return chosen


@dataclass(frozen=True, eq=False)
class InstancePartition:
    """Three-way split of the items with a common divisor for the bulk.

    leftover_part + residue_part + dense_part equals the items as a
    multiset; every element of residue_part and dense_part is divisible
    by divisor.  Each part is a sorted, read-only, 1-D int64 array.  Two
    partitions are equal when their divisors, alphas and parts are, and
    hash by them.
    """

    divisor: int
    leftover_part: np.ndarray
    residue_part: np.ndarray
    dense_part: np.ndarray
    alpha: int

    def _key(self) -> tuple:
        parts = (self.leftover_part, self.residue_part, self.dense_part)
        return (self.divisor, self.alpha, *(part.tobytes() for part in parts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstancePartition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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
    (rescaled back to the original magnitudes).
    """
    if instance.target < 1 or instance.n == 0:
        raise ValueError("partition requires t >= 1 and non-empty items")
    alpha = alpha_for(instance.target, instance.w)
    d, peeled, left = _peel(instance.items, alpha)
    # the residue set and the dense part, by position in the sorted array
    # (both empty when peeling consumed every item)
    chosen = _residue_mask(peeled, alpha)
    residue, dense_part = peeled[chosen] * d, peeled[~chosen] * d
    return InstancePartition(d, _read_only(left), _read_only(residue), _read_only(dense_part), alpha)


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
