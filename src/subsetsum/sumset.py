"""Sumset kernels: one level kernel, its one-pair adapter, one shift-or
subset-sum DP, an interval cap.

The sumset of A and B is {x + y : x in A, y in B}.  One dispatcher, the
level kernel `_pair_level`, computes every sumset: it sums the pairs
(2i, 2i+1) of a whole level in a few numpy passes.  Colour coding's
levels (phase 2, under a budget or not) and the merge tree (phase 3)
call it with a level.  `dense_sumset` (the public entry point for one
pair; no solve calls it) goes through its one-pair adapter
`_sum_values`, which enumerates a pair directly when
|A|*|B| <= PAIRWISE_LIMIT (far cheaper than the level's passes for such
tiny pairs) and otherwise sums it as a one-pair level.  Both take and
give int64 arrays, the layout of `SumSet.values`.

A level is one `Level` in units of its common step g (a divisor of every
value; 2 when all items are even): each node is its maximal runs of step
g, each run a start and an end divided by g, back to back with per-node
offsets.  Runs are derived from values once, at the first level of a
merge or of a colour-coding repetition; every later level is computed
from runs and returned as runs, and only a root is expanded back to
values.  A node's size is the sum of its runs' lengths, so budgets,
weights and evidence stay exact.  Each pair with an empty operand gives
an empty output; otherwise it takes one of three kernels:

  * runs: when A and B have r_a * r_b run pairs, at most (hull / g) /
    RUN_HULL_RATIO clipped to [RUN_PAIRS_MIN, RUN_PAIRS_MAX], every run
    of A plus every run of B is one run, and the overlapping or adjacent
    ones are merged into the output's runs.  A set of k scattered values
    is k runs of one value, so small pairs are plain enumeration; dense
    merge levels are intervals (runs of g), which this sums in time
    linear in their number of runs.
  * FFT: the rest whose hull (A's diameter plus B's diameter plus one) is
    at most HULL_FFT_LIMIT values: convolution of 0/1 indicator vectors
    in units of g, shifted to a zero offset, in row batches of equal FFT
    length, with a 0.5 magnitude threshold to recover each row's support
    as runs.  Runs in O(u log u) for u the hull in units of g.
  * split: the rest.  The operand with the larger diameter is halved by
    value, both halves are summed with the other operand as a two-pair
    level (recursively, so every FFT stays within HULL_FFT_LIMIT), and
    the two outputs' runs are merged.

The result is exact because only the run kernel, the FFT and the
adapter's enumeration ever compute a sum.  The level's budget stop is
exact: the level is computed in node-order chunks, and the first pair at
which the running output size reaches the budget ends the level with the
same prefix and stop as summing the pairs one at a time; a wide pair
is split inside its chunk and counts toward the chunk's bound as one
pair.  Phase 2 sums only its nodes with two occupied children, and
passes, per pair, the known size of the nodes between it and the pair
before: one for each virtual {0} node and the child's size for each node
with one occupied child (neither is computed).  That gap counts toward
the running total before the pair, so the stop may fall inside it.

`window_subset_sums` is a word-parallel subset-sum DP on a Python int,
started from {0} or from a given set, cut at the top of a window and
read back only inside it, and stepping an interval without a shift
while the items' distinct values fill it: the solver's bounded sums
over the small parts, the root of a merge that collapses (no level can
cap or trip) and the solver's combine (the small parts' subset sums
added to the dense part's window or to the dense interval) are all its
output.

`cap` intersects a set with an interval by two binary searches;
`Level.cap` does the same to every node of a level at once, by clipping
its runs.  Stage one's groups and stage two's group sumsets are values
back to back (`Flat`): groups are multisets, which runs cannot hold.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import OVERFLOW_LIMIT, SumSet

PAIRWISE_LIMIT = 2048
HULL_FFT_LIMIT = 1 << 22
# The kernel's tuning figures below (these constants, `common_step` and
# the scatter in `_level_chunk`) were measured while every merge of the
# benchmark workloads ran its levels through the kernel.  Those merges
# now collapse to one windowed DP: over workload seeds 1, 2 and 7001 no
# unchecked merge calls the kernel, and colour coding calls it once or
# twice per 60 `dense-trip` solves.  What reaches the kernel now is the
# budgeted stage two, groups that never complete, checked mode (whose
# merge runs every level to compare with the collapsed root) and merges
# that do not collapse (a level can cap or trip, or the DP's mask is past
# FALLBACK_MAX_BITS); the constants were not re-measured on that traffic.
#
# A level pair goes to the run kernel when its r_a * r_b run pairs (runs
# of the level's common step g) number at most (hull / g) / RUN_HULL_RATIO
# clipped to [RUN_PAIRS_MIN, RUN_PAIRS_MAX], and otherwise to the FFT or,
# above HULL_FFT_LIMIT, the split.  Measured on the merge levels of
# `sparse-ladder` and `grouped`, before they collapsed (seed 7; 2-core x86
# VM, numpy 2.4): kernel totals of 0.32-0.35 s and 0.16-0.17 s for
# RUN_PAIRS_MIN in {16, 64, 256} and RUN_HULL_RATIO in {1, 2, 4}, against
# 0.39 s on `sparse-ladder` at RUN_PAIRS_MIN = 4 and 0.20 s on `grouped`
# at RUN_HULL_RATIO = 8.
RUN_PAIRS_MIN = 16
RUN_HULL_RATIO = 4
# One run-kernel batch enumerates at most this many run pairs, at about
# 70 bytes each; a pair with more goes to the FFT or the split.  No merge
# pair of `sparse-ladder`, `grouped` or `wide-root` (seed 1) had more
# than 391 when their merges still ran the kernel.
RUN_PAIRS_MAX = 1 << 18
# One FFT row batch holds at most this many floats per operand; a row
# longer than that runs alone.  2^16 to 2^20 ran within 6% of each other
# on the same levels; this keeps a batch's arrays at a few MB.
FFT_BATCH_FLOATS = 1 << 18
# A level is computed in node-order chunks whose summed bound on the
# running total (output sizes plus gaps) is at most max(remaining budget,
# LEVEL_CHUNK_VALUES) plus one pair, so a level that trips computes at
# most LEVEL_CHUNK_VALUES values plus one pair's output past its stop.
LEVEL_CHUNK_VALUES = 1 << 16


class Level:
    """The node sets of one merge-tree level, as maximal runs of a step.

    Every value of the level is a multiple of step.  Node i is the union
    of the runs step * [starts[k], ends[k]] for offs[i] <= k < offs[i + 1]:
    ascending and maximal (ends[k] + 1 < starts[k + 1] within a node), so a
    set has exactly one such form.  offs has one entry more than there are
    nodes.  A node's size is the sum of ends - starts + 1 over its runs;
    indexing a node expands it to its strictly increasing int64 values.
    """

    __slots__ = ("starts", "ends", "offs", "step")

    def __init__(self, starts: np.ndarray, ends: np.ndarray, offs: np.ndarray, step: int) -> None:
        self.starts = starts
        self.ends = ends
        self.offs = offs
        self.step = step

    @classmethod
    def from_values(cls, vals: np.ndarray, offs: np.ndarray, step: Optional[int] = None) -> "Level":
        """The level whose node i holds the strictly increasing
        vals[offs[i]:offs[i + 1]] (offs[0] == 0), in runs of step (which
        must divide every value; by default their `common_step`)."""
        if step is None:
            step = common_step(vals)
        return cls(*_node_runs(vals, offs, step), step)

    def __len__(self) -> int:
        return len(self.offs) - 1

    def __eq__(self, other: object) -> bool:
        same_sizes = isinstance(other, Level) and np.array_equal(self.sizes(), other.sizes())
        return same_sizes and np.array_equal(self.values(), other.values())

    def __getitem__(self, i: int) -> np.ndarray:
        if i < 0:
            raise IndexError("negative node index")
        lo, hi = self.offs[i], self.offs[i + 1]  # IndexError past the end
        return _expand(self.starts[lo:hi], self.ends[lo:hi], self.step)

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self[i] for i in range(len(self)))

    def sizes(self) -> np.ndarray:
        return _run_sizes(self.starts, self.ends, self.offs)

    def values(self) -> np.ndarray:
        """Every node's values, back to back."""
        return _expand(self.starts, self.ends, self.step)

    def take(self, nodes: np.ndarray) -> "Level":
        """The level of the given nodes, in the given order."""
        nruns = np.diff(self.offs)[nodes]
        at = _segment_index(self.offs[nodes], nruns)
        return Level(self.starts[at], self.ends[at], _offsets(nruns), self.step)

    def concat(self, other: "Level") -> "Level":
        """This level's nodes followed by other's (of the same step)."""
        offs = np.append(self.offs[:-1], self.offs[-1] + other.offs)
        return Level(np.concatenate((self.starts, other.starts)), np.concatenate((self.ends, other.ends)), offs, self.step)

    def cap(self, lo: int, hi: int) -> "Level":
        """Every node intersected with [lo, hi]; nodes may become empty."""
        # node values lie in [0, 2**63), so clamping keeps the bounds in int64
        lo, hi = -(-max(lo, 0) // self.step), min(hi, OVERFLOW_LIMIT - 1) // self.step
        if lo > hi:
            return Level(self.starts[:0], self.ends[:0], np.zeros_like(self.offs), self.step)
        starts, ends = np.maximum(self.starts, lo), np.minimum(self.ends, hi)
        kept = np.flatnonzero(starts <= ends)
        # a node's new offset is the number of kept runs before its old one
        return Level(starts[kept], ends[kept], np.searchsorted(kept, self.offs), self.step)


class Flat:
    """Node values back to back: node i holds vals[offs[i]:offs[i + 1]],
    ascending; offs has one entry more than there are nodes.  Stage one's
    groups (multisets, which may repeat a value) and stage two's group
    sumsets use this layout.  Indexing a node returns a view.
    """

    __slots__ = ("vals", "offs")

    def __init__(self, vals: np.ndarray, offs: np.ndarray) -> None:
        self.vals = vals
        self.offs = offs

    @classmethod
    def of(cls, sets: Sequence[Sequence[int]]) -> "Flat":
        return cls(
            np.fromiter(chain.from_iterable(sets), dtype=np.int64),
            _offsets(np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))),
        )

    def __len__(self) -> int:
        return len(self.offs) - 1

    def __eq__(self, other: object) -> bool:
        same_nodes = isinstance(other, Flat) and np.array_equal(self.offs, other.offs)
        return same_nodes and np.array_equal(self.vals, other.vals)

    def __getitem__(self, i: int) -> np.ndarray:
        if i < 0:
            raise IndexError("negative node index")
        return self.vals[self.offs[i] : self.offs[i + 1]]  # IndexError past the end

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self[i] for i in range(len(self)))

    def sizes(self) -> np.ndarray:
        return np.diff(self.offs)

    def take(self, nodes: np.ndarray) -> "Flat":
        """The given nodes, in the given order."""
        sizes = np.diff(self.offs)[nodes]
        return Flat(self.vals[_segment_index(self.offs[nodes], sizes)], _offsets(sizes))


def dense_sumset(a: SumSet, b: SumSet) -> SumSet:
    """Sumset of two non-empty SumSets whose maxima sum to below 2**63
    (the int64 values of a SumSet cannot hold more; ValueError otherwise).

    Pairwise enumeration when |a|*|b| <= PAIRWISE_LIMIT; otherwise the
    pair is a one-pair level of the level kernel, which sums it by runs,
    by one FFT when the hull is at most HULL_FFT_LIMIT, or by halving the
    wider operand by value until every FFT fits that limit.
    """
    if a.is_empty or b.is_empty:
        raise ValueError("empty operand")
    if a.max() + b.max() >= OVERFLOW_LIMIT:
        raise ValueError("sumset values must stay below 2**63")
    return SumSet(_sum_values(a.values, b.values))


def common_step(vals: np.ndarray) -> int:
    """The gcd of the values (1 if there are none or all are 0): every sum
    and every subset of them keeps it as a divisor, so one level's step
    serves every level merged from it.  A merge that runs the kernel
    computes it once, from its leaf level: while the five `sparse-ladder`
    solves of seed 7 still did (before their merges collapsed), computing
    it for every level cost 49 ms over them (about 5% of their solve time)
    and made that workload's `wall_dp_ratio` 11% worse over 8 alternating
    benchmark pairs (2-core x86 VM, numpy 2.4).  A collapsing merge takes
    it from the family's distinct values."""
    return max(int(np.gcd.reduce(vals)), 1)


def cap(a: SumSet, lo: int, hi: int) -> SumSet:
    """a intersected with the integer interval [lo, hi]; may be empty."""
    if lo > hi:
        raise ValueError("lo > hi")
    # values lie in [0, 2**63), so clamping keeps the bounds in int64
    lo, hi = max(lo, 0), min(hi, OVERFLOW_LIMIT - 1)
    if lo > hi:
        return SumSet.empty()
    v = a.values
    return SumSet(v[np.searchsorted(v, lo) : np.searchsorted(v, hi, side="right")])


# ---------------------------------------------------------------------------
# level kernel (phases 2 and 3)
# ---------------------------------------------------------------------------


def _pair_level(
    level: Level, budget_k: int, gaps: Optional[np.ndarray] = None
) -> tuple[Level, Optional[int]]:
    """One level of pairwise sums level[2i] + level[2i+1] with an exact
    left-to-right budget stop.

    Returns (computed, observed), computed in runs of the level's step.
    Without a trip, computed holds every output and observed is None.
    Otherwise observed is the running output size at the first pair i
    where it reaches budget_k, and computed holds outputs 0..i.  An empty
    operand yields an empty output (size 0): in the merge phase, interval
    capping can empty a node.

    gaps[i], if given, is the known size that comes before pair i in the
    running total and is not computed here: colour coding passes one for
    each virtual {0} node and the child's size for each node with one
    occupied child between pair i - 1 and pair i.  A stop inside the gap
    before pair i reports observed = budget_k and computed holds outputs
    0..i-1.  A budget_k of math.inf computes every output.
    """
    m = len(level) // 2
    if gaps is None:
        gaps = np.zeros(m, dtype=np.int64)
    operand = level.sizes()
    hull = _pair_hulls(level)
    # running-total bound after each pair (a pair's output size is 0 for
    # an empty operand)
    cum_bound = np.cumsum(np.minimum(operand[0::2] * operand[1::2], hull) + gaps)
    runs, starts, ends = [np.zeros(0, dtype=np.int64)], [level.starts[:0]], [level.ends[:0]]
    total = 0
    observed = None
    j0 = 0
    while j0 < m and observed is None:
        room = max(budget_k - total, LEVEL_CHUNK_VALUES)
        done = int(cum_bound[j0 - 1]) if j0 else 0
        j1 = min(int(np.searchsorted(cum_bound, done + room)) + 1, m)
        chunk_sizes, chunk_runs, chunk_starts, chunk_ends = _level_chunk(level, j0, j1, hull)
        running = total + np.cumsum(chunk_sizes + gaps[j0:j1])
        hit = int(np.searchsorted(running, budget_k))
        if hit < len(running):
            # running total after pair hit's gap; a stop inside the gap if
            # the gap crossed budget_k
            before = int(running[hit] - chunk_sizes[hit])
            if before >= budget_k > before - int(gaps[j0 + hit]):
                observed = budget_k
            else:
                observed = int(running[hit])
                hit += 1
            kept = int(chunk_runs[:hit].sum())
            chunk_starts, chunk_ends = chunk_starts[:kept], chunk_ends[:kept]
            chunk_runs = chunk_runs[:hit]
        runs.append(chunk_runs)
        starts.append(chunk_starts)
        ends.append(chunk_ends)
        total = int(running[-1])
        j0 = j1
    offs = _offsets(np.concatenate(runs))
    return Level(np.concatenate(starts), np.concatenate(ends), offs, level.step), observed


def _level_chunk(
    level: Level, j0: int, j1: int, hull: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Output sizes, run counts and runs (starts, ends) of pairs j0..j1-1,
    in units of the level's step (see `_pair_level`)."""
    nruns = np.diff(level.offs[2 * j0 : 2 * j1 + 1])
    run_pairs = nruns[0::2] * nruns[1::2]
    hull = hull[j0:j1]
    live = hull > 0
    most = np.clip(hull // RUN_HULL_RATIO, RUN_PAIRS_MIN, RUN_PAIRS_MAX)
    runs = live & (run_pairs <= most)
    # a hull of h units spans (h - 1) * step + 1 values
    conv = live & ~runs & (hull <= (HULL_FFT_LIMIT - 1) // level.step + 1)
    wide = live & ~runs & ~conv

    pieces = []  # (pair indices relative to j0, output sizes, run counts, starts, ends)
    pairs = np.flatnonzero(runs)
    if pairs.size:
        pieces.append((pairs, *_run_rows(level.starts, level.ends, level.offs, pairs + j0)))
    pairs = np.flatnonzero(conv)
    if pairs.size:
        nfft = 1 << np.frexp(hull[pairs] - 1)[1]  # next_pow2 of each hull
        order = np.argsort(nfft, kind="stable")
        pairs, nfft = pairs[order], nfft[order]
        groups = np.flatnonzero(np.append(True, nfft[1:] != nfft[:-1]))
        for s, e in zip(groups.tolist(), [*groups[1:].tolist(), len(pairs)]):
            n = int(nfft[s])
            rows = max(1, FFT_BATCH_FLOATS // n)
            for b in range(s, e, rows):
                batch = pairs[b : min(b + rows, e)]
                pieces.append((batch, *_fft_rows(level, batch + j0, n)))
    for p in np.flatnonzero(wide).tolist():
        pieces.append((np.array([p]), *_split_pair(level, p + j0)))

    sizes = np.zeros(j1 - j0, dtype=np.int64)
    nruns = np.zeros(j1 - j0, dtype=np.int64)
    for pairs, counts, piece_runs, _, _ in pieces:
        sizes[pairs] = counts
        nruns[pairs] = piece_runs
    # one kernel took every live pair, in pair order: skipping the scatter
    # took the kernel on the merge levels of seed 7 from 0.52 to 0.39 s
    # (`sparse-ladder`) and from 0.27 to 0.19 s (`grouped`), measured
    # before those merges collapsed (see RUN_PAIRS_MIN for what reaches
    # the kernel now)
    if len(pieces) == 1:
        return sizes, nruns, pieces[0][3], pieces[0][4]
    offs = _offsets(nruns)
    starts = np.empty(int(offs[-1]), dtype=np.int64)
    ends = np.empty_like(starts)
    for pairs, _, piece_runs, lo, hi in pieces:
        at = _segment_index(offs[pairs], piece_runs)
        starts[at] = lo
        ends[at] = hi
    return sizes, nruns, starts, ends


def _pair_hulls(level: Level) -> np.ndarray:
    """Hull of each pair (2i, 2i+1) in units of the level's step; 0 where
    an operand is empty.  A hull of 2**63 units (diameters summing to
    2**63 - 1, which int64 holds) is given as 2**63 - 1, which sends the
    pair to the split just the same."""
    nruns = np.diff(level.offs)
    live = np.flatnonzero((nruns[0::2] > 0) & (nruns[1::2] > 0))
    hull = np.zeros(len(level) // 2, dtype=np.int64)
    first, last = level.offs[:-1], level.offs[1:] - 1
    s, e = level.starts, level.ends
    a, b = 2 * live, 2 * live + 1
    diam = (e[last[a]] - s[first[a]]) + (e[last[b]] - s[first[b]])
    hull[live] = np.minimum(diam, np.iinfo(np.int64).max - 1) + 1
    return hull


def _node_runs(
    vals: np.ndarray, offs: np.ndarray, step: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of step `step` of the nodes vals[offs[i]:offs[i + 1]],
    in units of step (see `Level`).

    Returns (starts, ends, run_offs): node i is the union of the runs
    [starts[k], ends[k]] (times step) for run_offs[i] <= k < run_offs[i + 1].
    """
    u = vals // step if step > 1 else vals
    first = np.ones(len(u), dtype=bool)
    np.not_equal(np.diff(u), 1, out=first[1:])
    first[offs[:-1][offs[:-1] < offs[1:]]] = True  # a node's first value starts a run
    begin = np.flatnonzero(first)
    # run index of each run's first value; an empty node's runs start
    # where the next non-empty node's do
    run_index = np.zeros(len(u) + 1, dtype=np.int64)
    run_index[begin] = np.arange(len(begin))
    run_index[-1] = len(begin)
    return u[begin], np.concatenate((u[begin[1:] - 1], u[-1:])), run_index[offs]


def _run_rows(
    starts: np.ndarray, ends: np.ndarray, run_offs: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sumsets of the given pairs from their runs (see `Level`).

    Every run of A plus every run of B is one run [s_a + s_b, e_a + e_b].
    Each pair's runs are moved to a coordinate range of their own, so one
    sort orders them by (pair, start) and one running max of ends merges
    the overlapping or adjacent ones, which are the output's maximal runs.
    Returns each pair's output size and run count, and the runs' starts
    and ends back to back.
    """
    a0, b0, b1 = run_offs[2 * pairs], run_offs[2 * pairs + 1], run_offs[2 * pairs + 2]
    na, nb = b0 - a0, b1 - b0
    base = starts[a0] + starts[b0]
    span = ends[b0 - 1] + ends[b1 - 1] - base
    # pair i's coordinates are [room[i], room[i] + span[i]], two below the
    # next pair's; halve a batch whose coordinates could overflow int64 or
    # that holds more than RUN_PAIRS_MAX run pairs (no one pair does)
    too_wide = np.sum(span, dtype=float) + 2.0 * len(span) >= 2.0**62
    if len(pairs) > 1 and (too_wide or int(np.dot(na, nb)) > RUN_PAIRS_MAX):
        half = len(pairs) // 2
        head = _run_rows(starts, ends, run_offs, pairs[:half])
        tail = _run_rows(starts, ends, run_offs, pairs[half:])
        return tuple(np.concatenate(both) for both in zip(head, tail))
    room = _offsets(span + 2)[:-1]
    shift = room - base
    # run pair (i, j) for every run i of A and j of B, pair by pair
    nb_of_i = np.repeat(nb, na)
    i = _segment_index(a0, na)
    j = _segment_index(np.repeat(b0, na), nb_of_i)
    shift_i = np.repeat(shift, na)
    lo = np.repeat(starts[i] + shift_i, nb_of_i) + starts[j]
    hi = np.repeat(ends[i] + shift_i, nb_of_i) + ends[j]
    lo, hi = _merge_runs(lo, hi)
    # pair i's merged runs are those starting in [room[i], room[i + 1])
    nruns = np.diff(np.append(np.searchsorted(lo, room), len(lo)))
    back = np.repeat(shift, nruns)
    lo -= back
    hi -= back
    return _run_sizes(lo, hi, _offsets(nruns)), nruns, lo, hi


def _merge_runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs (starts, ends) of the union of the non-empty list
    of runs [lo[k], hi[k]], given in any order: one sort by start, and one
    running max of ends merges the overlapping or adjacent ones."""
    order = np.argsort(lo)
    lo = lo[order]
    reach = np.maximum.accumulate(hi[order])
    first = np.flatnonzero(np.append(True, lo[1:] > reach[:-1] + 1))
    return lo[first], reach[np.append(first[1:], len(reach)) - 1]


def _fft_rows(
    level: Level, pairs: np.ndarray, nfft: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sumsets of the given pairs, one row each of a batched FFT of length
    nfft (at least every pair's hull), in units of the level's step.
    Returns each pair's output size and run count, and the runs' starts
    and ends back to back."""
    spec, first = _indicator_spectra(level, 2 * pairs, nfft)
    spec_b, first_b = _indicator_spectra(level, 2 * pairs + 1, nfft)
    spec *= spec_b
    del spec_b  # freed before the inverse transform, which lowers the batch's peak memory
    hit = np.fft.irfft(spec, nfft, axis=1) > 0.5
    # a row's runs begin where it turns on and end before it turns off
    r, c = np.nonzero(np.diff(hit, axis=1, prepend=False, append=False))
    rows = r[0::2]
    shift = (first + first_b)[rows]
    lo, hi = c[0::2] + shift, c[1::2] - 1 + shift
    nruns = np.bincount(rows, minlength=len(pairs))
    return _run_sizes(lo, hi, _offsets(nruns)), nruns, lo, hi


def _indicator_spectra(level: Level, nodes: np.ndarray, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """rfft rows of the 0/1 indicators of the given non-empty nodes, each
    shifted to start at zero, and the shifts (in units of the step)."""
    at, nruns = level.offs[nodes], level.offs[nodes + 1] - level.offs[nodes]
    first = level.starts[at]
    k = _segment_index(at, nruns)  # the nodes' runs, node by node
    row = np.repeat(np.arange(len(nodes)), nruns)
    length = level.ends[k] - level.starts[k] + 1
    ind = np.zeros((len(nodes), nfft))
    ind.ravel()[_segment_index(row * nfft + level.starts[k] - first[row], length)] = 1.0
    return np.fft.rfft(ind, axis=1), first


def _split_pair(level: Level, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sumset of pair i, whose hull exceeds HULL_FFT_LIMIT and whose run
    pairs are too many for the run kernel, in units of the level's step.

    The operand with the larger diameter is halved by value, both halves
    are summed with the other operand as one two-pair level (a half that
    is still too wide splits again, so every FFT fits HULL_FFT_LIMIT), and
    the two outputs' runs are merged.  Returns the pair's output size and
    run count (one entry each) and its runs' starts and ends.
    """
    a, b = level[2 * i], level[2 * i + 1]
    if a[-1] - a[0] < b[-1] - b[0]:
        a, b = b, a
    # a's diameter is at least (hull - 1) / 2 > 0, so both halves are
    # non-empty and each half's hull is smaller
    mid = int(np.searchsorted(a, a[0] + (a[-1] - a[0]) // 2, side="right"))
    sizes = np.array([mid, len(b), len(a) - mid, len(b)])
    halves = Level.from_values(np.concatenate((a[:mid], b, a[mid:], b)), _offsets(sizes), level.step)
    out, _ = _pair_level(halves, math.inf)
    lo, hi = _merge_runs(out.starts, out.ends)
    return _run_sizes(lo, hi, np.array([0, len(lo)])), np.array([len(lo)]), lo, hi


# ---------------------------------------------------------------------------
# one shift-or DP (the solver's bounded sums and combine, the merge's
# collapsed root)
# ---------------------------------------------------------------------------


# the largest mask, in bits, that the exact decision (`solver.fallback_dp`)
# and the merge's collapse build (256 MiB): past it the first raises
# OracleBudgetError and the second leaves the merge to the level kernel
FALLBACK_MAX_BITS = 1 << 31
# the low 64 bits of a mask
_WORD = (1 << 64) - 1


def window_subset_sums(
    multiset: tuple[Sequence[int], Sequence[int]],
    lo: int,
    hi: int,
    step: int = 1,
    start: Optional[SumSet] = None,
) -> SumSet:
    """The sums a + s, for a in start (default {0}) and s a subset sum of
    the multiset (values, counts), which holds counts[i] copies of
    values[i], that lie in [lo, hi]; step must divide every value and
    every difference of two start values.  An empty start gives the empty
    set, and no values give start's values in [lo, hi].  The values are
    read as they come, in any order and possibly repeated: distinct
    ascending values (the form of `Instance.multiset`) step intervals
    fastest, and no item-sized array is built.

    One shift-or DP on a Python int, bit v standing for the value
    base + v * step, where base is start's minimum (Pisinger, "Dynamic
    programming on the word RAM", 2003): the mask starts as start's bits.
    A value's c copies become the items v, 2v, 4v, .. and the rest of c
    times v, whose subsets sum to the same multiples 0 .. c of v (the
    reduction of bounded to 0/1 items, as in Koiliaris and Xu, SODA 2017),
    so the DP does O(log c) shifts per distinct value.  The mask is cut at
    hi: a shift only moves bits up, so the bits up to hi depend only on
    the bits up to hi.  Only the bits in [lo, hi] are read back.

    Many small items fill long intervals of sums (Galil and Margalit,
    "An almost linear-time algorithm for the dense subset-sum problem",
    SIAM J. Comput. 1991), so the DP steps intervals without shifting:
    while the mask is the interval [0, reach], c copies of a value
    v <= reach + 1 make it [0, min(reach + c * v, top)], with top the
    last bit kept.  The distinct values are taken in ascending order, so
    once the small ones have filled an interval, every larger value that
    the interval reaches costs O(1).  A value past reach + 1 (or a start
    that is not an interval) goes through the shifts, and the mask is
    checked again afterwards; once the interval reaches top no value can
    change it.  An interval start is read as its size alone (its bits,
    2^size - 1, are built only for a value that needs the shifts), and an
    interval result is read back with one `np.arange`.
    """
    values, counts = (np.asarray(a, dtype=np.int64) for a in multiset)
    if start is None:
        base = 0
    elif start.is_empty:
        return SumSet.empty()
    elif not values.size and lo <= hi:
        # no values: start's own values.  Every benchmark solve has an empty
        # leftover part, so its dense-branch combine lands here, in ~9-16 us
        # where the bits took ~30-42 us (2-core x86 VM, numpy 2.4)
        return cap(start, lo, hi)
    else:
        base = start.min()
    top, first = (hi - base) // step, -(-max(lo - base, 0) // step)
    if first > top:
        return SumSet.empty()
    # the mask is the interval [0, reach] while mask is None
    mask, reach = None, 0
    if start is not None:
        kept = start.values[: np.searchsorted(start.values, base + top * step, side="right")]
        if int(kept[-1]) - base != (kept.size - 1) * step:
            mask = _values_to_bits((kept - base) // step if step > 1 else kept - base)
        reach = kept.size - 1
    limit = (1 << (top + 1)) - 1
    for v, c in zip((values // step if step > 1 else values).tolist(), counts.tolist()):
        if mask is None:
            if reach == top:
                break
            if v <= reach + 1:
                reach = min(reach + c * v, top)
                continue
            mask = (1 << (reach + 1)) - 1
        # once v * k passes top, the shifts so far reach every multiple of
        # v up to top
        k = 1
        while c and v * k <= top:
            k = min(k, c)
            mask |= (mask << v * k) & limit
            c -= k
            k *= 2
        # the low word first: a mask with a gap there is no interval
        low = mask & _WORD
        if low & (low + 1) == 0 and mask & (mask + 1) == 0:
            mask, reach = None, mask.bit_length() - 1
    if mask is None:
        return SumSet(np.arange(base + first * step, base + reach * step + 1, step, dtype=np.int64))
    units = _bits_to_values(mask >> first) + first
    return SumSet(base + (units * step if step > 1 else units))


def _bits_to_values(mask: int) -> np.ndarray:
    """The positions of mask's set bits, ascending."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _values_to_bits(positions: np.ndarray) -> int:
    """The int whose set bits are the given non-empty, ascending,
    non-negative positions."""
    bits = np.zeros(int(positions[-1]) + 1, dtype=bool)
    bits[positions] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offs = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    return offs


def _segment_index(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Indices starts[0] .. starts[0]+sizes[0]-1, starts[1] .., back to back."""
    return np.repeat(starts - _offsets(sizes)[:-1], sizes) + np.arange(int(sizes.sum()))


def _run_sizes(starts: np.ndarray, ends: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Values per node of the runs [starts[k], ends[k]], node i holding
    runs offs[i] to offs[i + 1] - 1."""
    return np.diff(_offsets(ends - starts + 1)[offs])


def _expand(starts: np.ndarray, ends: np.ndarray, step: int) -> np.ndarray:
    """The values step * [starts[k], ends[k]] of the runs, back to back."""
    units = _segment_index(starts, ends - starts + 1)
    return units * step if step > 1 else units


# ---------------------------------------------------------------------------
# one pair (`dense_sumset`)
# ---------------------------------------------------------------------------


def _sum_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sumset of two non-empty strictly increasing int64 arrays, as a new
    int64 array.  A pair with |a|*|b| <= PAIRWISE_LIMIT is enumerated:
    1x55, 10x10 and 40x50 pairs took 10, 11 and 35 us enumerated and 0.18,
    0.23 and 0.27 ms as a level (2-core x86 VM, numpy 2.4).  Any other
    pair is a one-pair level.
    """
    if not len(a) or not len(b):
        raise ValueError("empty operand")
    if len(a) * len(b) <= PAIRWISE_LIMIT:
        sums = np.sort(np.add.outer(a, b), axis=None)
        return sums[np.append(True, sums[1:] != sums[:-1])]
    vals = np.concatenate((a, b))
    out, _ = _pair_level(Level.from_values(vals, np.array([0, len(a), len(vals)])), math.inf)
    return out.values()
