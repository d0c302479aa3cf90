"""Sets as runs, and the sumset kernels: one level kernel, its one-pair
adapter, one shift-or subset-sum DP, an interval cap.

The sumset of A and B is {x + y : x in A, y in B}.  One dispatcher, the
level kernel `_pair_level`, computes every sumset: it sums the pairs
(2i, 2i+1) of a whole level in a few numpy passes.  Colour coding's
levels (phase 2, under a budget or not) and the merge tree (phase 3)
call it with a level.  `dense_sumset` (the public entry point for one
pair; no solve calls it) goes through its one-pair adapter
`_sum_values`, which sums the pair as a one-pair level.  Both take and
give int64 arrays, the layout of `SumSet.values`.

A set of sums has one form, the runs of a `Level`: a `SumSet` holds one
`Level` node (its maximal runs in units of a step that divides every
value) and its size, and builds its int64 values only when they are read.

A level is one `Level` in units of its common step g (a divisor of every
value; 2 when all items are even): each node is its maximal runs of step
g, each run a start and an end divided by g, back to back with per-node
offsets.  Runs are derived from values once, at level 0 of a
colour-coding repetition (each part's elements and 0); every later
level is computed from runs and returned as runs.  Stage two's group
sumsets are one `Level` too: `_node_union`, the union the run kernel
uses, joins each finished repetition's roots with each group's {0}, and
the merge takes them as its leaf level, so no level is expanded back to
values.  A node's size is the sum of its runs' lengths, so budgets,
weights and evidence stay exact.  Each pair with an empty operand gives
an empty output; otherwise it takes one of three kernels:

  * runs: when A and B have r_a * r_b run pairs, at most (hull / g) /
    RUN_HULL_RATIO clipped to [RUN_PAIRS_MIN, RUN_PAIRS_MAX], every run
    of A plus every run of B is one run, and the overlapping or adjacent
    ones are merged into the output's runs (`_node_union`, one sort for
    every pair of a batch).  A set of k scattered values
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

The result is exact because only the run kernel and the FFT ever
compute a sum.  The level's budget stop is exact: the level is computed
in node-order chunks, and the first pair at which the running output
size reaches the budget ends the level with the same prefix and stop as
summing the pairs one at a time; a wide pair
is split inside its chunk and counts toward the chunk's bound as one
pair.  Phase 2 sums only its nodes with two occupied children, and
passes, per pair, the known size of the nodes between it and the pair
before: one for each virtual {0} node and the child's size for each node
with one occupied child (neither is computed).  That gap counts toward
the running total before the pair, so the stop may fall inside it.

`window_subset_sums` is a word-parallel subset-sum DP on a Python int,
started from {0} or from a given set, in units of the values' gcd (and
of the start's own step), cut at the window's top or the largest
reachable sum, whichever is lower, bounded in memory by
FALLBACK_MAX_BITS, and stepping an interval without a shift while the
items' distinct values fill it.  It reads a start from its runs and
returns runs: an interval is one run, and a mask gives its runs from the
edges of its bits inside the window and its size from `int.bit_count`.
The solver's bounded sums over the small parts, the root of a merge that
collapses (no level can cap or trip) and the solver's combine (the small
parts' subset sums added to the dense part's window or to the dense
interval) are all its output.

`Level.cap` intersects every node of a level with an interval by
clipping its runs, and `cap` is `Level.cap` on a set's one node, so the
DP's results, `cap`'s, the merge's kernel root and the dense interval
are all runs, and none of them is expanded to values on the way to the
decision.  Only stage one's groups are values back to back (`Flat`):
groups are multisets, which runs cannot hold.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import OVERFLOW_LIMIT, OracleBudgetError

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
# FALLBACK_MAX_BITS); the constants were not re-measured on that traffic,
# the scatter skip was (see `_level_chunk`).
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
    """The node sets of one level (of colour coding or of the merge, or
    stage two's group sumsets), as maximal runs of a step.

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
        # one expansion for every node: indexing node by node took the
        # traced `grouped` and `sparse-ladder` runs' bookkeeping, which reads
        # every stage-two set, from 0.15 and 0.23 s to 1.09 and 2.54 s a
        # pass (seed 1; 2-core x86 VM, numpy 2.4)
        vals, offs = self.values(), _offsets(self.sizes())
        return (vals[offs[i] : offs[i + 1]] for i in range(len(self)))

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

    def with_step(self, step: int) -> "Level":
        """The same nodes in runs of step, a divisor of this level's step.
        Past a factor of one no two values are adjacent, so each value is
        a run of its own."""
        if step == self.step:
            return self
        units = _expand(self.starts, self.ends, self.step // step)
        return Level(units, units, _offsets(self.sizes()), step)

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
    ascending; offs has one entry more than there are nodes.  Only stage
    one's groups (multisets, which may repeat a value) use this layout.
    Indexing a node returns a view.
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


def _int64_vector(values: Iterable[int]) -> np.ndarray:
    """values as a new 1-D int64 array; ValueError if that cannot hold them
    exactly."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    try:
        v = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("SumSet values must lie in [0, 2**63)") from None
    if v.ndim != 1:
        raise ValueError("SumSet values must be one-dimensional")
    # the cast truncates a fraction: anything but an integer array must
    # read back unchanged
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu") and not np.array_equal(v, values):
        raise ValueError("SumSet values must be integers")
    return v


class SumSet:
    """A set of achievable sums in [0, 2**63), held as one `Level` node:
    `node` holds the set's maximal runs step * [starts[k], ends[k]], in
    units of a step that divides every value, and `size` the number of
    values, a Python int.

    The constructor takes a strictly increasing sequence or array of
    integers and holds it in runs of the values' `common_step`; `of` takes
    any iterable of integers.  Values outside int64, values that are not
    integers, negative or non-increasing values and arrays that are not
    1-D raise ValueError.  The sets that the package builds (the window
    DP's results, `cap`'s, the merge's kernel root and the dense interval)
    are made from runs, never from values.  `values` is the strictly
    increasing, read-only, 1-D int64 array of the values: built from the
    runs on its first read and then cached (the constructor keeps its own
    copy of the input, so a caller's array is never aliased).  `len` reads
    `size`, and `min`, `max` and `in` read the runs (`in` is one binary
    search over the starts), so none of them builds the values.
    Iteration, `len`, `in`, `min`, `max` and `dm` give Python ints and
    bools.  Two SumSets are equal when they hold the same values, whatever
    their steps, and equal sets hash equal.  The empty set is allowed and
    means "no achievable sum"; by convention its max and min are 0 and its
    diameter is 1.
    """

    __slots__ = ("node", "size", "_values")

    def __init__(self, values: Iterable[int]) -> None:
        v = _int64_vector(values)
        if v.size and v[0] < 0:
            raise ValueError("SumSet values must be non-negative")
        if not (v[1:] > v[:-1]).all():
            raise ValueError("SumSet values must be strictly increasing")
        v.flags.writeable = False
        self.node, self.size, self._values = Level.from_values(v, np.array([0, len(v)])), len(v), v

    @classmethod
    def _of_node(cls, node: Level, size: Optional[int] = None) -> SumSet:
        """The set of a one-node level (its runs ascending and maximal),
        held as it is; size, if given, must be its number of values."""
        out = object.__new__(cls)
        size = int((node.ends - node.starts).sum()) + len(node.starts) if size is None else size
        out.node, out.size, out._values = node, size, None
        return out

    @classmethod
    def of(cls, values: Iterable[int]) -> "SumSet":
        return cls(np.unique(_int64_vector(values)))

    @classmethod
    def empty(cls) -> "SumSet":
        return cls._of_node(Level(*[np.zeros(0, dtype=np.int64)] * 2, np.zeros(2, dtype=np.int64), 1), 0)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.node.values()
            self._values.flags.writeable = False
        return self._values

    def __repr__(self) -> str:
        return f"SumSet({self.values.tolist()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SumSet):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.size, self.min(), self.max()))

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())

    def __contains__(self, x: int) -> bool:
        # bounds first: searchsorted cannot take integers outside int64
        if not self.size or not self.min() <= x <= self.max():
            return False
        q, r = divmod(x, self.node.step)
        return not r and bool(self.node.ends[np.searchsorted(self.node.starts, q, side="right") - 1] >= q)

    @property
    def is_empty(self) -> bool:
        return not self.size

    def min(self) -> int:
        return int(self.node.starts[0]) * self.node.step if self.size else 0

    def max(self) -> int:
        return int(self.node.ends[-1]) * self.node.step if self.size else 0

    def dm(self) -> int:
        """Diameter max - min + 1 (1 for the empty set)."""
        return self.max() - self.min() + 1


def dense_sumset(a: SumSet, b: SumSet) -> SumSet:
    """Sumset of two non-empty SumSets whose maxima sum to below 2**63
    (the int64 values of a SumSet cannot hold more; ValueError otherwise).

    The pair is a one-pair level of the level kernel, which sums it by
    runs, by one FFT when the hull is at most HULL_FFT_LIMIT, or by
    halving the wider operand by value until every FFT fits that limit.
    """
    if a.is_empty or b.is_empty:
        raise ValueError("empty operand")
    if a.max() + b.max() >= OVERFLOW_LIMIT:
        raise ValueError("sumset values must stay below 2**63")
    return SumSet(_sum_values(a.values, b.values))


def common_step(vals: np.ndarray) -> int:
    """The gcd of the values (1 if there are none or all are 0): every sum
    and every subset of them keeps it as a divisor, so one level's step
    serves every level merged from it.  It is computed once per stage, not
    per level: while the five `sparse-ladder` solves of seed 7 still ran
    their merges through the kernel, computing it for every merge level
    cost 49 ms over them (about 5% of their solve time) and made that
    workload's `wall_dp_ratio` 11% worse over 8 alternating benchmark
    pairs (2-core x86 VM, numpy 2.4).  Stage two takes it once per call,
    from the family's distinct values (from the groups' elements for a
    sub-family of groups), and its sets carry the family's step to the
    merge, which keeps it; a collapsing merge takes it from the family's
    distinct values too."""
    return max(int(np.gcd.reduce(vals)), 1)


def cap(a: SumSet, lo: int, hi: int) -> SumSet:
    """a intersected with the integer interval [lo, hi]; may be empty.
    `Level.cap` on a's runs."""
    if lo > hi:
        raise ValueError("lo > hi")
    return SumSet._of_node(a.node.cap(lo, hi))


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
    # one kernel took every live pair, in pair order: its runs are the
    # chunk's.  On dense n=250,000, w=2, t=201 (seed 1, unchecked), whose
    # stage two runs groups that never complete through the level loop,
    # 1,481 of 1,492 chunks take this path, and skipping the scatter
    # took the solve from 1,096 to 1,063 ms (medians of 5 alternating
    # runs, best of 3 each; 2-core x86 VM, numpy 2.4)
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

    Every run of A plus every run of B is one run [s_a + s_b, e_a + e_b],
    and each pair's output is the union of its runs (`_node_union`).
    Returns each pair's output size and run count, and the runs' starts
    and ends back to back.
    """
    a0, b0, b1 = run_offs[2 * pairs], run_offs[2 * pairs + 1], run_offs[2 * pairs + 2]
    na, nb = b0 - a0, b1 - b0
    # halve a batch that holds more than RUN_PAIRS_MAX run pairs (no one pair does)
    if len(pairs) > 1 and int(np.dot(na, nb)) > RUN_PAIRS_MAX:
        half = len(pairs) // 2
        head = _run_rows(starts, ends, run_offs, pairs[:half])
        tail = _run_rows(starts, ends, run_offs, pairs[half:])
        return tuple(np.concatenate(both) for both in zip(head, tail))
    base = starts[a0] + starts[b0]
    # run pair (i, j) for every run i of A and j of B, pair by pair
    nb_of_i = np.repeat(nb, na)
    i = _segment_index(a0, na)
    j = _segment_index(np.repeat(b0, na), nb_of_i)
    lo = np.repeat(starts[i], nb_of_i) + starts[j]
    hi = np.repeat(ends[i], nb_of_i) + ends[j]
    return _node_union(lo, hi, np.repeat(np.arange(len(pairs)), na * nb), base, ends[b0 - 1] + ends[b1 - 1] - base)


def _node_union(
    lo: np.ndarray, hi: np.ndarray, node: np.ndarray, base: np.ndarray, span: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each node's union of its runs: run k, [lo[k], hi[k]], belongs to
    node node[k], and the runs come in any order.  Node i's runs lie in
    [base[i], base[i] + span[i]]; a node may have none.  lo and hi are
    overwritten: every caller passes arrays it built for the call.

    Each node's runs are moved to a coordinate range of their own, two
    below the next node's, so one sort orders them by (node, start), and
    one running max of ends merges the overlapping or adjacent runs of
    each node and none across nodes.  Returns each node's size and run
    count, and its maximal runs' starts and ends back to back.
    """
    # node i's coordinates are [room[i], room[i] + span[i]]; halve the nodes
    # whose coordinates could overflow int64 (no one node's do)
    if len(span) > 1 and np.sum(span, dtype=float) + 2.0 * len(span) >= 2.0**62:
        half = len(span) // 2
        low = node < half
        head = _node_union(lo[low], hi[low], node[low], base[:half], span[:half])
        tail = _node_union(lo[~low], hi[~low], node[~low] - half, base[half:], span[half:])
        return tuple(np.concatenate(both) for both in zip(head, tail))
    room = _offsets(span + 2)[:-1]
    shift = room - base
    # in place: on the run-kernel batches of `grouped` at --eta-mult 1e-12
    # new arrays cost 10-15% of the kernel (2-core x86 VM, numpy 2.4)
    moved = shift[node]
    lo += moved
    hi += moved
    order = np.argsort(lo)
    lo = lo[order]
    reach = np.maximum.accumulate(hi[order])
    # a run starts a merged run when it starts past the reach before it + 1
    first = np.flatnonzero(lo > np.append(lo[:1] - 1, reach[:-1] + 1))
    lo, hi = lo[first], np.append(reach[first[1:] - 1], reach[-1:])
    # node i's merged runs are those starting in [room[i], room[i + 1])
    nruns = np.diff(np.append(np.searchsorted(lo, room), len(lo)))
    back = np.repeat(shift, nruns)
    lo -= back
    hi -= back
    return _run_sizes(lo, hi, _offsets(nruns)), nruns, lo, hi


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
    the two outputs' runs are joined as one node (`_node_union`).  Returns
    the pair's output size and run count (one entry each) and its runs'
    starts and ends.
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
    # the upper half's output starts and ends above the lower half's
    return _node_union(out.starts, out.ends, np.zeros_like(out.starts), out.starts[:1], out.ends[-1:] - out.starts[:1])


# ---------------------------------------------------------------------------
# one shift-or DP (the solver's bounded sums and combine, the merge's
# collapsed root)
# ---------------------------------------------------------------------------


# the largest mask, in bits, that `window_subset_sums` builds (256 MiB):
# past it the DP raises OracleBudgetError.  The merge reads it too, to
# choose between its collapse (this DP) and the level kernel
FALLBACK_MAX_BITS = 1 << 31


def window_subset_sums(
    multiset: tuple[Sequence[int], Sequence[int]],
    lo: int,
    hi: int,
    start: Optional[SumSet] = None,
) -> SumSet:
    """The sums a + s, for a in start (default {0}) and s a subset sum of
    the multiset (values, counts), which holds counts[i] copies of
    values[i], that lie in [lo, hi].  An empty start gives the empty set,
    and no values give start's values in [lo, hi].  The values are
    read as they come, in any order and possibly repeated: distinct
    ascending values (the form of `Instance.multiset`) step intervals
    fastest, and no item-sized array is built.  ValueError unless there is
    one count per value and every value and count is at least 1.  A hi
    past 2**63 - 1 reads as 2**63 - 1, the largest value a SumSet holds,
    so only the sums below 2**63 are returned.  The result is held as its
    runs (see `SumSet`), in units of the DP's unit; no array of its values
    is built.

    One shift-or DP on a Python int, bit v standing for the value
    base + v * unit, where base is start's minimum (Pisinger, "Dynamic
    programming on the word RAM", 2003): the mask starts as start's bits.
    The unit is the values' gcd, and with a start other than {0} the gcd
    of it and the start's own step (which divides every start value, base
    included), so every sum is a multiple of it.
    A value's c copies become the items v, 2v, 4v, .. and the rest of c
    times v, whose subsets sum to the same multiples 0 .. c of v (the
    reduction of bounded to 0/1 items, as in Koiliaris and Xu, SODA 2017),
    so the DP does O(log c) shifts per distinct value.  The mask is cut at
    top, the lower of hi and the largest reachable sum (start's maximum
    plus every copy of every value): a shift only moves bits up, so the
    bits up to top depend only on the bits up to top, and no bit above
    the reachable sum is ever set.  Only the bits in [lo, top] are read
    back, as runs: a run starts or has just ended at each bit that differs
    from the bit below it, and the result's size is the mask's
    `int.bit_count`.  A window with no multiple of the unit in [lo, top]
    gives the empty set at once; otherwise a mask of top + 1 bits past
    FALLBACK_MAX_BITS raises OracleBudgetError before it is built.

    Many small items fill long intervals of sums (Galil and Margalit,
    "An almost linear-time algorithm for the dense subset-sum problem",
    SIAM J. Comput. 1991), so the DP steps intervals without shifting:
    while the mask is the interval [0, reach], c copies of a value
    v <= reach + 1 make it [0, min(reach + c * v, top)], with top the
    last bit kept.  The distinct values are taken in ascending order, so
    once the small ones have filled an interval, every larger value that
    the interval reaches costs O(1).  A value past reach + 1 (or a start
    that is not one run in the DP's unit) goes through the shifts, and so
    does every value after it: from an interval start with ascending
    values the shifted value v leaves the gap (reach, v), which no later
    value can fill, so the mask never becomes an interval again.  Once the
    interval reaches top no value can change it.  An interval start is
    read as its one run (its bits, 2^size - 1, are built only for a value
    that needs the shifts), and an interval result is one run.
    """
    values, copies = (np.asarray(a, dtype=np.int64).tolist() for a in multiset)
    # on Python ints: over a solve's few distinct values math.gcd took
    # 0.1-0.3 us a call where np.gcd.reduce took 1.1-1.7 us (2-core x86 VM,
    # numpy 2.4); a start's step divides its values, and {0}'s says nothing
    unit = math.gcd(*values, start.node.step if start is not None and start.max() else 0) or 1
    units = [v // unit for v in values] if unit > 1 else values
    if len(units) != len(copies) or (units and (min(units) < 1 or min(copies) < 1)):
        raise ValueError("a multiset needs one count per value, and every value and count >= 1")
    if start is not None and start.is_empty:
        return SumSet.empty()
    base, span = (0, 0) if start is None else (start.min(), (start.max() - start.min()) // unit)
    # sums lie in [0, 2**63): clamped, base + top * unit stays in int64, so
    # the runs built below cannot wrap
    top = min((min(hi, OVERFLOW_LIMIT - 1) - base) // unit, span + sum(v * c for v, c in zip(units, copies)))
    first = -(-max(lo - base, 0) // unit)
    if first > top:
        return SumSet.empty()
    if top + 1 > FALLBACK_MAX_BITS:
        raise OracleBudgetError(f"DP budget exceeded: a mask of {top + 1} bits")
    # the mask is the interval [0, reach] while mask is None
    mask, reach = None, 0
    if start is not None:
        if len(start.node.starts) == 1 and (start.node.step == unit or span == 0):
            reach = min(span, top)
        else:
            mask = _runs_to_bits(start.node.cap(base, base + top * unit), start.node.step // unit)
    # the cut's top + 1 ones are built for the first shift: an interval
    # result never needs them (at top = 10**7 they are 1.25 MB, twice over)
    limit = None
    for v, c in zip(units, copies):
        if mask is None:
            if reach == top:
                break
            if v <= reach + 1:
                reach = min(reach + c * v, top)
                continue
            mask = (1 << (reach + 1)) - 1
        # once v * k passes top, the shifts so far reach every multiple of
        # v up to top
        k, limit = 1, limit or (1 << (top + 1)) - 1
        while c and v * k <= top:
            k = min(k, c)
            mask |= (mask << v * k) & limit
            c -= k
            k *= 2
    off = base // unit  # the runs count from 0: base is a multiple of unit
    if mask is None and first <= reach:
        starts, ends, size = np.array([off + first]), np.array([off + reach]), reach - first + 1
    else:
        # an interval below the window is the empty mask
        mask = (mask or 0) >> first << first
        (starts, ends), size = _bit_runs(mask, off), mask.bit_count()
    return SumSet._of_node(Level(starts, ends, np.array([0, len(starts)]), unit), size)


def _runs_to_bits(node: Level, stride: int) -> int:
    """The int whose bit stride * (u - u0) is set for each u in the runs
    [starts[k], ends[k]] of the one-node level, u0 its first start: the
    runs and the gaps between them, as one repeat of alternating ones and
    zeros."""
    edges = np.column_stack((node.starts, node.ends + 1)).ravel() - node.starts[0]
    bits = np.zeros(int(edges[-1] - 1) * stride + 1, dtype=bool)
    bits[::stride] = np.repeat(np.arange(len(edges) - 1) % 2 == 0, np.diff(edges))
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _bit_runs(mask: int, off: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs [starts, ends] of mask's set bits, ascending, each
    moved up by off: each bit that differs from the bit below it starts a
    run or is the first past one.  Only the bytes that hold such an edge
    are unpacked."""
    edges = mask ^ (mask << 1)
    raw = np.frombuffer(edges.to_bytes((edges.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    at = np.flatnonzero(raw)
    byte, bit = np.nonzero(np.unpackbits(raw[at, None], axis=1, bitorder="little"))
    pos = at[byte] * 8 + bit + off
    return pos[0::2], pos[1::2] - 1


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
    int64 array: the pair as a one-pair level."""
    if not len(a) or not len(b):
        raise ValueError("empty operand")
    vals = np.concatenate((a, b))
    out, _ = _pair_level(Level.from_values(vals, np.array([0, len(a), len(vals)])), math.inf)
    return out.values()
