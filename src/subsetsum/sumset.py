"""Sumset kernels: one dispatcher, an interval cap, and budgeted levels.

The sumset of A and B is {x + y : x in A, y in B}.  `dense_sumset` is
the one public entry point; it and every internal caller go through the
dispatcher `_sum_values`, which picks one of two exact kernels:

  * pairwise: direct enumeration, used whenever |A|*|B| <= PAIRWISE_LIMIT.
  * FFT: convolution of 0/1 indicator vectors shifted to a zero offset,
    with a 0.5 magnitude threshold to recover the support.  Runs in
    O(u log u) for u the hull (A's diameter plus B's diameter plus one),
    and is used whenever u <= HULL_FFT_LIMIT.

A larger hull is split: the operand with the larger diameter is halved
by value, both halves are summed with the other operand (recursively, so
every FFT stays within HULL_FFT_LIMIT), and the two sorted outputs are
merged.  The result is exact because only the two kernels above ever
compute a sum.

`cap` intersects a set with an interval; the merge stage uses its
tuple-level form `_cap_values` directly.  `sum_if_sparse` computes one
level of pairwise sumsets left to right and stops the moment the
accumulated output size reaches a budget, returning a signal instead of
the level.  A budget of at most half the number of input sets trips
immediately (each output has size >= 1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import SumSet, next_pow2

PAIRWISE_LIMIT = 2048
HULL_FFT_LIMIT = 1 << 22


@dataclass(frozen=True)
class DenseSignal:
    """Budget trip: the level's total size reached budget_k.

    observed_total_size is the running total at the moment of the stop
    (0 when the trip came from the small-budget rule).
    last_index_computed is the 1-based index of the last output set
    actually computed.
    """

    observed_total_size: int
    budget_k: int
    last_index_computed: int


def dense_sumset(a: SumSet, b: SumSet) -> SumSet:
    """Sumset of two non-empty SumSets.

    Pairwise enumeration when |a|*|b| <= PAIRWISE_LIMIT, one FFT when the
    hull is at most HULL_FFT_LIMIT, and otherwise the wider operand is
    halved by value until every FFT fits that limit.
    """
    if a.is_empty or b.is_empty:
        raise ValueError("empty operand")
    return SumSet(_sum_values(a.values, b.values))


def sum_if_sparse(sets: Sequence[SumSet], budget_k: int) -> Union[list[SumSet], DenseSignal]:
    """Compute pairwise sumsets B_i = sets[2i] + sets[2i+1] under a budget.

    Stops immediately once the accumulated size of computed B_i reaches
    budget_k and returns a DenseSignal; otherwise returns all B_i.  The
    total work is bounded: at most budget_k plus one extra set of size
    at most 2u + 1, where u is the largest input diameter.
    """
    ell = len(sets)
    if ell % 2 != 0:
        raise ValueError("number of sets must be even")
    for s in sets:
        if s.is_empty:
            raise ValueError("empty operand")
    if budget_k <= ell // 2:
        return DenseSignal(0, budget_k, 0)
    values = [s.values for s in sets]
    out, signal = _pair_level(values, budget_k)
    if signal is not None:
        return signal
    return [SumSet(v) for v in out]


def cap(a: SumSet, lo: int, hi: int) -> SumSet:
    """a intersected with the integer interval [lo, hi]; may be empty."""
    if lo > hi:
        raise ValueError("lo > hi")
    return SumSet(_cap_values(a.values, lo, hi))


# ---------------------------------------------------------------------------
# tuple-level kernels (hot paths avoid SumSet wrapping)
# ---------------------------------------------------------------------------


def _cap_values(values: tuple, lo: int, hi: int) -> tuple:
    i = bisect_left(values, lo)
    j = bisect_right(values, hi)
    return values[i:j]


def _pair_level(values: list[tuple], budget_k: int):
    """One level of pairwise sums with exact left-to-right budget stops.

    Returns (computed, signal): on a trip, computed holds the prefix of
    outputs up to and including the tripping one.  An empty operand
    yields an empty output (size 0): in the merge phase, interval
    capping can empty a node.
    """
    out = []
    total = 0
    for i in range(len(values) // 2):
        x, y = values[2 * i], values[2 * i + 1]
        z = _sum_values(x, y) if x and y else ()
        out.append(z)
        total += len(z)
        if total >= budget_k:
            return out, DenseSignal(total, budget_k, i + 1)
    return out, None


def _sum_values(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        raise ValueError("empty operand")
    if len(a) * len(b) <= PAIRWISE_LIMIT:
        return tuple(sorted({x + y for x in a for y in b}))
    hull = (a[-1] - a[0]) + (b[-1] - b[0]) + 1
    if hull <= HULL_FFT_LIMIT:
        return _fft_values(a, b)
    # Halve the wider operand by value: its diameter is at least
    # (hull - 1) / 2 > 0, so both halves are non-empty and each child's
    # hull shrinks.
    if a[-1] - a[0] < b[-1] - b[0]:
        a, b = b, a
    mid = bisect_right(a, (a[0] + a[-1]) // 2)
    z = np.sort(np.concatenate([
        np.asarray(_sum_values(a[:mid], b), dtype=np.int64),
        np.asarray(_sum_values(a[mid:], b), dtype=np.int64),
    ]))
    return tuple(z[np.append(True, z[1:] != z[:-1])].tolist())


def _fft_values(a: tuple, b: tuple) -> tuple:
    a0, b0 = a[0], b[0]
    la = a[-1] - a0 + 1
    lb = b[-1] - b0 + 1
    ia = np.zeros(la)
    ia[np.asarray(a, dtype=np.int64) - a0] = 1.0
    ib = np.zeros(lb)
    ib[np.asarray(b, dtype=np.int64) - b0] = 1.0
    n = la + lb - 1
    nfft = next_pow2(n)
    conv = np.fft.irfft(np.fft.rfft(ia, nfft) * np.fft.rfft(ib, nfft), nfft)[:n]
    idx = np.nonzero(conv > 0.5)[0]
    return tuple((idx + (a0 + b0)).tolist())
