"""Sumset kernels: one pair dispatcher, one level kernel, an interval cap.

The sumset of A and B is {x + y : x in A, y in B}.  `dense_sumset` is
the public entry point for one pair.  It, colour coding (phase 2) and
the solver's combine go through the pair dispatcher `_sum_values`, which
picks one of two exact kernels:

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

The merge tree (phase 3) and `sum_if_sparse` hold a level as one
`Level`: every node's sorted int64 values back to back, with offsets.
The level kernel `_pair_level` sums the pairs (2i, 2i+1) of a whole
level in a few numpy passes: pairs with an empty operand give an empty
output, pairs with |A|*|B| <= LEVEL_PAIRWISE_LIMIT are enumerated in one
batch, the rest are convolved in row batches of equal FFT length, and a
pair whose hull exceeds HULL_FFT_LIMIT goes to `_sum_values`.  Its
budget stop is exact: the level is computed in node-order chunks, and
the first pair at which the running output size reaches the budget ends
the level with the same prefix and signal as summing the pairs one at a
time.  A budget of at most half the number of input sets trips
immediately in `sum_if_sparse` (each output has size >= 1).

`cap` intersects a set with an interval; `Level.cap` does the same to
every node of a level at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import OVERFLOW_LIMIT, SumSet, next_pow2

PAIRWISE_LIMIT = 2048
HULL_FFT_LIMIT = 1 << 22
# Level pairs with |A|*|B| at most this are enumerated in one batch and
# the rest convolved.  Batched enumeration sorts |A|*|B| keys per pair.
# Measured on the 16 merge levels of a uniform w=16, t=120k instance
# (2-core x86 VM, numpy 2.4): 0.59 / 0.50 / 0.54 / 0.60 / 0.97 s at
# 4 / 16 / 64 / 256 / 2048, the single-pair crossover, where the fourth
# level alone took 0.47 s.
LEVEL_PAIRWISE_LIMIT = 16
# One FFT row batch holds at most this many floats per operand; a row
# longer than that runs alone.  2^16 to 2^20 ran within 6% of each other
# on the same levels; this keeps a batch's arrays at a few MB.
FFT_BATCH_FLOATS = 1 << 18
# A level is computed in node-order chunks whose summed output-size bound
# is at most max(remaining budget, LEVEL_CHUNK_VALUES) plus one pair, so a
# level that trips computes at most LEVEL_CHUNK_VALUES values plus one
# pair's output beyond its budget.
LEVEL_CHUNK_VALUES = 1 << 16


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


class Level:
    """The node sets of one merge-tree level, back to back.

    Node i holds the strictly increasing int64 values
    vals[offs[i]:offs[i + 1]]; offs has one entry more than there are
    nodes.  Indexing a node returns a view.
    """

    __slots__ = ("vals", "offs")

    def __init__(self, vals: np.ndarray, offs: np.ndarray) -> None:
        self.vals = vals
        self.offs = offs

    @classmethod
    def of(cls, sets: Sequence[Sequence[int]]) -> "Level":
        return cls(
            np.fromiter(chain.from_iterable(sets), dtype=np.int64),
            _offsets(np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))),
        )

    def __len__(self) -> int:
        return len(self.offs) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        if i < 0:
            raise IndexError("negative node index")
        return self.vals[self.offs[i] : self.offs[i + 1]]  # IndexError past the end

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self[i] for i in range(len(self)))

    def sizes(self) -> np.ndarray:
        return np.diff(self.offs)

    def cap(self, lo: int, hi: int) -> "Level":
        """Every node intersected with [lo, hi]; nodes may become empty."""
        # node values lie in [0, 2**63), so clamping keeps the bounds in int64
        keep = (self.vals >= max(lo, 0)) & (self.vals <= min(hi, OVERFLOW_LIMIT - 1))
        node = np.repeat(np.arange(len(self)), self.sizes())
        return Level(self.vals[keep], _offsets(np.bincount(node[keep], minlength=len(self))))


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

    Stops once the accumulated size of B_0, B_1, ... reaches budget_k and
    returns a DenseSignal; otherwise returns all B_i.  The total work is
    bounded: at most budget_k + LEVEL_CHUNK_VALUES values plus one extra
    set of size at most 2u + 1, where u is the largest input diameter.
    """
    ell = len(sets)
    if ell % 2 != 0:
        raise ValueError("number of sets must be even")
    for s in sets:
        if s.is_empty:
            raise ValueError("empty operand")
    if budget_k <= ell // 2:
        return DenseSignal(0, budget_k, 0)
    out, signal = _pair_level(Level.of([s.values for s in sets]), budget_k)
    if signal is not None:
        return signal
    return [SumSet(tuple(z.tolist())) for z in out]


def cap(a: SumSet, lo: int, hi: int) -> SumSet:
    """a intersected with the integer interval [lo, hi]; may be empty."""
    if lo > hi:
        raise ValueError("lo > hi")
    v = a.values
    return SumSet(v[bisect_left(v, lo) : bisect_right(v, hi)])


# ---------------------------------------------------------------------------
# level kernel (phase 3 and sum_if_sparse)
# ---------------------------------------------------------------------------


def _pair_level(level: Level, budget_k: int) -> tuple[Level, Optional[DenseSignal]]:
    """One level of pairwise sums level[2i] + level[2i+1] with an exact
    left-to-right budget stop.

    Returns (computed, signal).  Without a trip, computed holds every
    output and signal is None.  Otherwise signal records the running
    output size at the first pair i where it reaches budget_k, and
    computed holds outputs 0..i.  An empty operand yields an empty output
    (size 0): in the merge phase, interval capping can empty a node.
    """
    m = len(level) // 2
    operand = level.sizes()
    hull = _pair_hulls(level)
    # output-size bound of each pair (0 for an empty operand)
    cum_bound = np.cumsum(np.minimum(operand[0::2] * operand[1::2], hull))
    sizes = [np.zeros(0, dtype=np.int64)]
    vals = [level.vals[:0]]
    total = 0
    signal = None
    j0 = 0
    while j0 < m and signal is None:
        room = max(budget_k - total, LEVEL_CHUNK_VALUES)
        done = int(cum_bound[j0 - 1]) if j0 else 0
        j1 = min(int(np.searchsorted(cum_bound, done + room)) + 1, m)
        chunk_sizes, chunk_vals = _level_chunk(level, j0, j1, hull)
        running = total + np.cumsum(chunk_sizes)
        hit = int(np.searchsorted(running, budget_k))
        if hit < len(running):
            signal = DenseSignal(int(running[hit]), budget_k, j0 + hit + 1)
            chunk_sizes = chunk_sizes[: hit + 1]
            chunk_vals = chunk_vals[: int(running[hit]) - total]
        sizes.append(chunk_sizes)
        vals.append(chunk_vals)
        total = int(running[-1])
        j0 = j1
    return Level(np.concatenate(vals), _offsets(np.concatenate(sizes))), signal


def _level_chunk(level: Level, j0: int, j1: int, hull: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output sizes and values of pairs j0..j1-1 (see `_pair_level`)."""
    operand = level.sizes()[2 * j0 : 2 * j1]
    hull = hull[j0:j1]
    live = hull > 0
    small = live & (operand[0::2] * operand[1::2] <= LEVEL_PAIRWISE_LIMIT)
    wide = live & ~small & (hull > HULL_FFT_LIMIT)
    conv = live & ~small & ~wide

    pieces = []  # (pair indices relative to j0, output sizes, outputs back to back)
    pairs = np.flatnonzero(small)
    if pairs.size:
        pieces.append((pairs, *_pairwise_rows(level, pairs + j0)))
    pairs = np.flatnonzero(conv)
    if pairs.size:
        nfft = 1 << np.frexp(hull[pairs] - 1)[1]  # next_pow2 of each hull
        order = np.argsort(nfft, kind="stable")
        pairs, nfft = pairs[order], nfft[order]
        starts = np.flatnonzero(np.append(True, nfft[1:] != nfft[:-1]))
        for s, e in zip(starts.tolist(), [*starts[1:].tolist(), len(pairs)]):
            n = int(nfft[s])
            step = max(1, FFT_BATCH_FLOATS // n)
            for b in range(s, e, step):
                batch = pairs[b : min(b + step, e)]
                pieces.append((batch, *_fft_rows(level, batch + j0, n)))
    for p in np.flatnonzero(wide).tolist():
        x, y = level[2 * (p + j0)], level[2 * (p + j0) + 1]
        z = np.asarray(_sum_values(tuple(x.tolist()), tuple(y.tolist())), dtype=np.int64)
        pieces.append((np.array([p]), np.array([len(z)]), z))

    sizes = np.zeros(j1 - j0, dtype=np.int64)
    for pairs, counts, _ in pieces:
        sizes[pairs] = counts
    offs = _offsets(sizes)
    out = np.empty(int(offs[-1]), dtype=np.int64)
    for pairs, counts, values in pieces:
        out[_segment_index(offs[pairs], counts)] = values
    return sizes, out


def _pair_hulls(level: Level) -> np.ndarray:
    """Hull of each pair (2i, 2i+1); 0 where an operand is empty."""
    sizes = level.sizes()
    live = np.flatnonzero((sizes[0::2] > 0) & (sizes[1::2] > 0))
    hull = np.zeros(len(level) // 2, dtype=np.int64)
    lo, hi = level.offs[:-1], level.offs[1:] - 1
    v = level.vals
    a, b = 2 * live, 2 * live + 1
    hull[live] = (v[hi[a]] - v[lo[a]]) + (v[hi[b]] - v[lo[b]]) + 1
    return hull


def _pairwise_rows(level: Level, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sumsets of the given pairs by enumerating every |A|*|B| sum in one
    batch, sorting by (pair, value) and dropping equal neighbours."""
    sizes = level.sizes()
    nb = sizes[2 * pairs + 1]
    prod = sizes[2 * pairs] * nb
    row = np.repeat(np.arange(len(pairs)), prod)
    k = np.arange(len(row)) - np.repeat(_offsets(prod)[:-1], prod)
    ai = k // nb[row]
    bi = k - ai * nb[row]
    s = level.vals[level.offs[2 * pairs][row] + ai] + level.vals[level.offs[2 * pairs + 1][row] + bi]
    order = np.lexsort((s, row))
    s, row = s[order], row[order]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (row[1:] != row[:-1])
    return np.bincount(row[keep], minlength=len(pairs)), s[keep]


def _fft_rows(level: Level, pairs: np.ndarray, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """Sumsets of the given pairs, one row each of a batched FFT of length
    nfft (at least every pair's hull).  Returns each pair's output size
    and the outputs back to back, each sorted."""
    spec, first = _indicator_spectra(level, 2 * pairs, nfft)
    spec_b, first_b = _indicator_spectra(level, 2 * pairs + 1, nfft)
    spec *= spec_b
    del spec_b  # freed before the inverse transform, which lowers the batch's peak memory
    r, c = np.nonzero(np.fft.irfft(spec, nfft, axis=1) > 0.5)
    c += (first + first_b)[r]
    return np.bincount(r, minlength=len(pairs)), c


def _indicator_spectra(level: Level, nodes: np.ndarray, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """rfft rows of the 0/1 indicators of the given nodes, each shifted to
    start at zero, and the shifts."""
    sizes = level.sizes()[nodes]
    first = level.vals[level.offs[nodes]]
    row = np.repeat(np.arange(len(nodes)), sizes)
    ind = np.zeros((len(nodes), nfft))
    ind.ravel()[row * nfft + level.vals[_segment_index(level.offs[nodes], sizes)] - first[row]] = 1.0
    return np.fft.rfft(ind, axis=1), first


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offs = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    return offs


def _segment_index(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Indices starts[0] .. starts[0]+sizes[0]-1, starts[1] .., back to back."""
    return np.repeat(starts - _offsets(sizes)[:-1], sizes) + np.arange(int(sizes.sum()))


# ---------------------------------------------------------------------------
# pair kernels on tuples (phase 2 and the combine)
# ---------------------------------------------------------------------------


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
    hull = (a[-1] - a[0]) + (b[-1] - b[0]) + 1
    _, z = _fft_rows(Level.of((a, b)), np.zeros(1, dtype=np.int64), next_pow2(hull))
    return tuple(z.tolist())
