"""Hypothesis property tests: the sumset kernels against the pairwise
oracle on every dispatch path, `SumSet` and `cap` against a set oracle,
the level kernel on levels built from runs, the run layout of `Level`
(round trip and cap), the split and stage one against their per-item
references, colour coding's stage two against its materialized
reference, the merge tree (shallow and deep, collapsed to one windowed
DP or not) against its values-level reference, the windowed DP (from
{0} or from a start set, its interval step included, windows above the
reachable sums too) against brute-force subset sums, its results and
`cap`'s as sets the constructor accepts, every public `SumSet` operation
on the sets the package builds as runs against the constructor's sets
of the same values, the sparse dense-part result inside its window,
sigma(D) as a bound on stage two's level excess, and `solve` on
pipeline-sized instances."""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subsetsum import colorcoding, merge, sumset
from subsetsum.colorcoding import (
    DenseTripSignal,
    GroupFamily,
    GroupSumsets,
    build_group_sumsets,
    color_params,
    partition_groups,
)
from subsetsum.core import Instance, SolverConfig, ceil_log2, rng_stream, target_window
from subsetsum.merge import DenseEvidence, merge_group_sumsets
from subsetsum.solver import bounded_subset_sums, dense_interval_set, fallback_dp, small_target_gate, solve, solve_d_window
from subsetsum.structure import partition_instance
from subsetsum.sumset import (
    Flat,
    SumSet,
    _pair_level,
    cap,
    dense_sumset,
    window_subset_sums,
)

from oracles import (
    ascending_family,
    full_subset_sums,
    level_of,
    materialized_stage_two,
    merge_bounds,
    multiset,
    pairwise_sumset,
    per_copy_subset_sums,
    per_item_dp,
    reference_merge,
    reference_partition,
    reference_partition_groups,
    subset_sums,
)


def _values(draw, size, hi=6000):
    return tuple(sorted(draw(st.lists(st.integers(0, hi), min_size=size, max_size=size, unique=True))))


@st.composite
def _kernel_case(draw):
    """(a, b, path, hull limit): sizes and limit chosen so that the
    dispatcher takes `path`: a one-pair level without a split, of tiny
    operands (which `dense_sumset` once enumerated) or of larger ones, or
    a level that splits."""
    path = draw(st.sampled_from(["tiny", "level", "split"]))
    if path == "tiny":
        a, b = _values(draw, draw(st.integers(1, 40))), _values(draw, draw(st.integers(1, 40)))
    elif path == "level":
        a, b = _values(draw, draw(st.integers(50, 90))), _values(draw, draw(st.integers(50, 90)))
    else:
        # odd values are isolated runs in units of any common step, so the
        # 2,500 or more run pairs exceed the run kernel's bound (a quarter
        # of a hull of at most 8,001)
        a, b = (tuple(2 * v + 1 for v in _values(draw, draw(st.integers(50, 90)), 2000)) for _ in "ab")
    hull = (a[-1] - a[0]) + (b[-1] - b[0]) + 1
    limit = sumset.HULL_FFT_LIMIT
    if path == "split":
        limit = draw(st.integers(1, hull - 1))
    return a, b, path, limit


@given(case=_kernel_case(), bounds=st.tuples(st.integers(-10, 13000), st.integers(-10, 13000)))
@settings(max_examples=60, deadline=None)
def test_dense_sumset_and_cap_match_oracle(case, bounds):
    a, b, path, limit = case
    levels, splits, hulls = [], [], []
    pair_level, split_pair, fft_rows = sumset._pair_level, sumset._split_pair, sumset._fft_rows

    def level_spy(level, budget_k):
        levels.append(len(level))
        return pair_level(level, budget_k)

    def split_spy(level, i):
        splits.append(i)
        return split_pair(level, i)

    def fft_spy(level, pairs, nfft):
        for i in pairs.tolist():
            x, y = level[2 * i], level[2 * i + 1]
            hulls.append(int(x[-1] - x[0]) + int(y[-1] - y[0]) + 1)
        return fft_rows(level, pairs, nfft)

    with mock.patch.multiple(
        sumset, HULL_FFT_LIMIT=limit, _pair_level=level_spy, _split_pair=split_spy, _fft_rows=fft_spy
    ):
        got = dense_sumset(SumSet(a), SumSet(b))
    expected = tuple(pairwise_sumset(a, b))
    assert tuple(got.values.tolist()) == expected
    if path != "split":
        assert (levels, splits) == ([2], [])
    else:
        assert levels[0] == 2 and splits and all(h <= limit for h in hulls)
    lo, hi = min(bounds), max(bounds)
    assert tuple(cap(got, lo, hi).values.tolist()) == tuple(v for v in expected if lo <= v <= hi)


# values near 0 and near 2**62, so that pair sums fall on both sides of
# 2**63; probes and cap bounds also reach far outside int64
_NEAR_0_OR_2_62 = st.one_of(st.integers(0, 5000), st.integers((1 << 62) - 60, (1 << 62) + 60))
_PROBE = st.one_of(
    _NEAR_0_OR_2_62,
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([-1, (1 << 63) - 1, 1 << 63, 1 << 64]),
)


# a progression of up to 80 values: operands of many values in one run of
# step 7
_PROGRESSION = st.builds(
    lambda start, count: list(range(start, start + 7 * count, 7)),
    st.sampled_from([0, 1000, (1 << 62) - 1000]),
    st.integers(0, 80),
)


@given(
    xs=st.lists(_NEAR_0_OR_2_62, max_size=40),
    ys=st.lists(_NEAR_0_OR_2_62, min_size=1, max_size=40),
    runs=st.tuples(_PROGRESSION, _PROGRESSION),
    probes=st.lists(_PROBE, max_size=8),
    lo=_PROBE,
    hi=_PROBE,
)
# sums reaching 2**63 - 1 from 0 + 0: a hull of 2**63 values, one more than
# int64 holds, which the level kernel once read as an empty pair
@example(
    xs=[1, (1 << 62) - 60], ys=[(1 << 62) + 59], runs=(list(range(0, 273, 7)), list(range(0, 343, 7))),
    probes=[], lo=0, hi=0,
)
@settings(max_examples=150, deadline=None)
def test_sumset_matches_set_oracle(xs, ys, runs, probes, lo, hi):
    # xs may be empty, and both may repeat values
    xs, ys = xs + runs[0], ys + runs[1]
    a, b = SumSet.of(xs), SumSet.of(ys)
    oracle = sorted(set(xs))
    assert a.values.tolist() == list(a) == oracle and len(a) == len(oracle)
    assert a == SumSet(oracle) == SumSet(tuple(oracle)) == SumSet(np.array(oracle, dtype=np.int64))
    ends = (oracle[0], oracle[-1], oracle[-1] - oracle[0] + 1) if oracle else (0, 0, 1)
    assert (a.min(), a.max(), a.dm(), a.is_empty) == (*ends, not oracle)
    for x in probes + xs + ys:
        assert (x in a) is (x in oracle)
    if lo > hi:
        with pytest.raises(ValueError):
            cap(a, lo, hi)
    else:
        assert cap(a, lo, hi).values.tolist() == [v for v in oracle if lo <= v <= hi]
    if a.is_empty:
        with pytest.raises(ValueError, match="empty operand"):
            dense_sumset(a, b)
    elif a.max() + b.max() >= 1 << 63:
        with pytest.raises(ValueError, match=r"2\*\*63"):
            dense_sumset(a, b)
    else:
        assert dense_sumset(a, b).values.tolist() == pairwise_sumset(oracle, set(ys))


@given(
    xs=st.lists(st.one_of(st.integers(-3, 12), _NEAR_0_OR_2_62, st.integers(1 << 63, 1 << 65)), max_size=6),
    two_d=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_sumset_rejects_what_it_cannot_hold(xs, two_d):
    in_range = all(0 <= x < 1 << 63 for x in xs)
    if in_range and two_d:
        grid = np.array([xs], dtype=np.int64)
        for build in (SumSet, SumSet.of):
            with pytest.raises(ValueError, match="one-dimensional"):
                build(grid)
    elif in_range and all(x < y for x, y in zip(xs, xs[1:])):
        assert SumSet(xs).values.tolist() == xs
    else:
        with pytest.raises(ValueError):
            SumSet(xs)
    if in_range:
        assert SumSet.of(xs).values.tolist() == sorted(set(xs))
    else:
        with pytest.raises(ValueError):
            SumSet.of(xs)


@st.composite
def _window_dp_case(draw):
    """(items, lo, hi, step): up to five distinct values in units of step,
    a small one possibly repeated up to 1,000 times (so its copies split
    into ten parts), and a window from one of the shapes the DP cuts at:
    lo = 0, hi below the smallest item, hi >= sigma, lo above sigma, or
    anywhere around [0, sigma]."""
    step = draw(st.sampled_from([1, 2, 3, 7]))
    pairs = draw(
        st.lists(
            st.one_of(
                st.tuples(st.integers(1, 40), st.integers(1, 30)),
                st.tuples(st.integers(1, 4), st.integers(1, 1000)),
            ),
            max_size=5,
            unique_by=lambda p: p[0],
        )
    )
    items = [step * v for v, c in pairs for _ in range(c)]
    draw(st.randoms()).shuffle(items)
    sigma = sum(items)
    shape = draw(st.sampled_from(["lo0", "below", "above-sigma", "beyond", "any"]))
    if shape == "lo0":
        lo, hi = 0, draw(st.integers(0, sigma + step))
    elif shape == "below":
        lo, hi = draw(st.integers(-5, 0)), draw(st.integers(0, max(min(items, default=1) - 1, 0)))
    elif shape == "above-sigma":
        lo = draw(st.integers(sigma + 1, sigma + 20))
        hi = draw(st.integers(lo, lo + 20))
    elif shape == "beyond":
        lo, hi = draw(st.integers(-5, sigma)), draw(st.integers(sigma, sigma + 100))
    else:
        lo, hi = draw(st.integers(-5, sigma + 5)), draw(st.integers(-5, sigma + 5))
    return items, lo, hi, step


@given(case=_window_dp_case())
@example(case=([], 0, 0, 1))
@example(case=([], -3, 10, 2))
@settings(max_examples=120, deadline=None)
def test_window_subset_sums_match_per_copy_dp(case):
    items, lo, hi, step = case
    # the reference adds every copy as its own 0/1 item, with no split and
    # no cut
    want = [v for v in per_copy_subset_sums(items) if lo <= v <= hi]
    got = window_subset_sums(multiset(items), lo, hi)
    assert isinstance(got, SumSet) and got.values.tolist() == want
    if lo <= 0 <= hi:
        assert bounded_subset_sums(multiset(items), hi).values.tolist() == want


@st.composite
def _started_window_case(draw):
    """(items, lo, hi, step, start): the items and step of
    `_window_dp_case`, and a start set of up to 30 values in one residue
    class mod step, based at 0, at a few hundred or near 2**62 (possibly
    empty); lo and hi fall anywhere around [min(start), max(start) +
    sigma], so they may cut both ends."""
    items, _, _, step = draw(_window_dp_case())
    base = draw(st.just(0) | st.integers(1, 500) | st.integers((1 << 62) - 1000, 1 << 62))
    start = [base + step * k for k in sorted(draw(st.lists(st.integers(0, 60), max_size=30, unique=True)))]
    top = (start[-1] if start else base) + sum(items)
    lo, hi = draw(st.integers(base - 5, top + 5)), draw(st.integers(base - 5, top + 5))
    if draw(st.booleans()):
        lo, hi = min(lo, hi), max(lo, hi)
    return items, lo, hi, step, start


@given(case=_started_window_case())
@example(case=([3, 3, 5], -2, 40, 1, []))
@example(case=([], 3, 40, 2, [1, 5, 9]))
@example(case=([], 10, 4, 1, [5, 7]))
@example(case=([2, 2, 2, 6], 7, 12, 2, [1, 5, 9]))
@example(case=([1] * 40 + [9], (1 << 62) + 3, (1 << 62) + 30, 1, [(1 << 62) + k for k in (0, 2, 50)]))
@settings(max_examples=120, deadline=None)
def test_window_subset_sums_from_a_start_match_per_copy_dp(case):
    items, lo, hi, step, start = case
    # {a + s : a in start, s a subset sum of items} from the per-copy
    # reference, cut to [lo, hi]
    sums = np.add.outer(np.array(start, dtype=np.int64), np.array(per_copy_subset_sums(items), dtype=np.int64))
    want = [v for v in np.unique(sums).tolist() if lo <= v <= hi]
    got = window_subset_sums(multiset(items), lo, hi, start=SumSet(start))
    assert isinstance(got, SumSet) and got.values.tolist() == want
    if start == [0]:
        assert got == window_subset_sums(multiset(items), lo, hi)


@st.composite
def _interval_dp_case(draw):
    """(items, lo, hi, step, start, form) for the DP's interval step:
    items in units of step with or without 1, small values that an
    interval [0, reach] absorbs and larger ones past reach + 1 that need
    the shifts; start None ({0}), an interval, or scattered values (which
    the items may fill into an interval); lo and hi anywhere around the
    sums, so they cut inside the first interval and past its reach; and
    items sorted or shuffled, whose multiset is handed over as lists or
    int64 arrays with its values in the order the items show them."""
    step = draw(st.sampled_from([1, 2, 3]))
    pairs = [(1, draw(st.integers(1, 12)))] if draw(st.booleans()) else []
    # values an interval absorbs, then values past its reach
    for least, largest, copies, most in ((2, 8, 6, 4), (9, 60, 4, 3)):
        pair = st.tuples(st.integers(least, largest), st.integers(1, copies))
        pairs += draw(st.lists(pair, max_size=most, unique_by=lambda p: p[0]))
    items = sorted(step * v for v, c in dict(pairs).items() for _ in range(c))
    form = draw(st.sampled_from(["sorted-array", "sorted-list", "shuffled-array", "shuffled-list"]))
    if form.startswith("shuffled"):
        draw(st.randoms()).shuffle(items)
    shape = draw(st.sampled_from(["none", "interval", "scattered"]))
    base = 0 if shape == "none" else draw(st.just(0) | st.integers(1, 500) | st.just((1 << 62) - 1000))
    if shape == "none":
        start = None
    elif shape == "interval":
        start = [base + step * k for k in range(draw(st.integers(1, 12)))]
    else:
        offsets = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
        start = [base + step * k for k in sorted(offsets)]
    top = (start[-1] if start else 0) + sum(items)
    lo, hi = draw(st.integers(base - 5, top + 5)), draw(st.integers(base - 5, top + 5))
    lo, hi = min(lo, hi), max(lo, hi)
    return items, lo, hi, step, start, form


@given(case=_interval_dp_case())
# {0, 1} filled by three 1s to [0, 3], then 4s to [0, 11]; 20 is past the
# reach and needs the shifts; the cut at 9 falls inside the interval
@example(case=([1, 1, 1, 4, 4, 20], 0, 9, 1, None, "sorted-array"))
@example(case=([1, 1, 1, 4, 4, 20], 2, 40, 1, None, "sorted-array"))
# no 1: the shifts from the first value on, and no interval afterwards
@example(case=([4, 4, 6, 10], 0, 30, 2, None, "shuffled-list"))
# a scattered start {0, 2, 4} that the 1s fill to [0, 6] through the shifts;
# the DP stays on the mask for 3, which fills [0, 9], and for 20
@example(case=([1, 1, 3, 20], 0, 40, 1, [0, 2, 4], "sorted-list"))
# an interval start stepped to hi: the rest cannot change it
@example(case=([3, 3, 6, 9, 300], 100, 118, 3, [100 + 3 * k for k in range(6)], "shuffled-array"))
@settings(max_examples=200, deadline=None)
def test_window_subset_sums_interval_step_matches_per_copy_dp(case):
    items, lo, hi, step, start, form = case
    sums = np.array(per_copy_subset_sums(items), dtype=np.int64)
    if start is not None:
        sums = np.unique(np.add.outer(np.array(start, dtype=np.int64), sums))
    want = [v for v in sums.tolist() if lo <= v <= hi]
    # the distinct values in the order the items first show them
    copies = Counter(items)
    arg = (list(copies), list(copies.values()))
    if form.endswith("array"):
        arg = tuple(np.array(a, dtype=np.int64) for a in arg)
    got = window_subset_sums(arg, lo, hi, start=None if start is None else SumSet(start))
    assert isinstance(got, SumSet) and got.values.tolist() == want


@given(case=_started_window_case(), counts=st.lists(st.integers(1, 3) | st.integers(1, 10**4), min_size=40, max_size=40), order=st.randoms())
@settings(max_examples=120, deadline=None)
def test_window_subset_sums_of_counts_match_the_repeated_items(case, counts, order):
    # the items' distinct values, each with a count of its own, in any
    # order and with a value possibly repeated across entries, against the
    # per-copy reference on every copy that can reach the window
    items, lo, hi, step, start = case
    values = sorted(set(items))
    if values and order.random() < 0.5:
        values.append(order.choice(values))
    if order.random() < 0.5:
        order.shuffle(values)
    counts = counts[: len(values)]
    # a subset with more than room // v copies of v sums past hi (an empty
    # start has no sums)
    room = max(hi - start[0], 0) if start else 0
    copies = [v for v, c in zip(values, counts) for _ in range(min(c, room // v))]
    sums = np.add.outer(np.array(start, dtype=np.int64), np.array(per_copy_subset_sums(copies, room), dtype=np.int64))
    want = [v for v in np.unique(sums).tolist() if lo <= v <= hi]
    got = window_subset_sums((np.array(values, dtype=np.int64), np.array(counts, dtype=np.int64)), lo, hi, SumSet(start))
    assert got.values.tolist() == want


@st.composite
def _window_above_sums_case(draw):
    """(items, lo, hi, step, start): up to 12 items in units of a step of
    1, 2 or 3 (possibly none), a start (None for {0}) of up to 8 values in
    one residue class mod step, based at 0, at a few hundred or near
    2**62, and a window partly or wholly above the largest reachable sum
    top (start's maximum plus the items' sum): lo at most top and hi past
    it, or lo past top, with hi up to 100 past top or anywhere up to
    2**64."""
    step = draw(st.sampled_from([1, 2, 3]))
    items = [step * v for v in draw(st.lists(st.integers(1, 30), max_size=12))]
    base = draw(st.just(0) | st.integers(1, 500) | st.integers((1 << 62) - 1000, 1 << 62))
    start = None
    if draw(st.booleans()):
        start = [base + step * k for k in sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True)))]
    top = (start[-1] if start else 0) + sum(items)
    past = st.integers(top + 1, top + 100) | st.integers(top + 1, 1 << 64)
    if draw(st.booleans()):
        lo, hi = draw(st.integers((start[0] if start else 0) - 5, top)), draw(past)
    else:
        lo = draw(past)
        hi = draw(st.integers(lo, lo + 100) | st.integers(lo, max(lo, 1 << 64)))
    return items, lo, hi, step, start


@given(case=_window_above_sums_case())
@example(case=([], 1 << 40, 1 << 40, 1, None))
@example(case=([], (1 << 62) - 1101, (1 << 62) - 1101, 1, None))
@example(case=([2, 4], 0, 1 << 64, 3, None))
@example(case=([3, 3, 6], 5, 1 << 40, 3, [7, 10, 16]))
@settings(max_examples=150, deadline=None)
def test_window_subset_sums_above_the_reachable_sums_match_per_copy_dp(case):
    # the mask is cut at the largest reachable sum, however far the window
    # passes it, so the DP builds no bit above the sums
    items, lo, hi, step, start = case
    sums = np.array(per_copy_subset_sums(items), dtype=np.int64)
    if start is not None:
        sums = np.unique(np.add.outer(np.array(start, dtype=np.int64), sums))
    want = [v for v in sums.tolist() if lo <= v <= hi]
    got = window_subset_sums(multiset(items), lo, hi, None if start is None else SumSet(start))
    assert got.values.tolist() == want
    if start is None and lo <= 0:
        assert bounded_subset_sums(multiset(items), hi) == got


def _held_as_built(got, *writable):
    # a set the package builds is held as its runs, without the
    # constructor's checks: its values, built on first read, must still be
    # ones the constructor accepts, and read-only
    v = got.values
    assert v.ndim == 1 and v.dtype == np.int64 and not v.flags.writeable
    assert got == SumSet(v)
    assert not any(np.shares_memory(v, a) for a in writable)


@given(case=_started_window_case(), from_zero=st.booleans())
@example(case=([1 << 62] * 3, 0, 1 << 64, 1 << 60, [0]), from_zero=True)
@example(case=([1 << 61] * 5, 0, 1 << 64, 1 << 61, [0]), from_zero=False)
@settings(max_examples=120, deadline=None)
def test_window_and_cap_results_are_held_as_built(case, from_zero):
    # the values of the DP's result and of cap's are read-only int64
    # arrays that the public constructor accepts, built apart from the
    # caller's writable multiset arrays
    items, lo, hi, step, start = case
    copies = Counter(items)
    values, counts = (np.array(a, dtype=np.int64) for a in (list(copies), list(copies.values())))
    if from_zero:
        # the window moved down by its lower end, so that it lies near the
        # sums of {0} rather than those of the start
        shift = max(min(lo, hi), 0)
        got = window_subset_sums((values, counts), lo - shift, hi - shift)
    else:
        got = window_subset_sums((values, counts), lo, hi, SumSet(start))
    _held_as_built(got, values, counts)
    _held_as_built(cap(SumSet(start), min(lo, hi), max(lo, hi)), values, counts)


@pytest.mark.parametrize(
    "args,want",
    [
        ((([1 << 62], [3]), 0, 1 << 64), [0, 1 << 62]),
        ((([1 << 61], [5]), 0, 1 << 64), [0, 1 << 61, 1 << 62, 3 << 61]),
        ((([1 << 55], [3]), 0, (1 << 63) - 1), [0, 1 << 55, 1 << 56, 3 << 55]),
    ],
)
def test_window_subset_sums_of_huge_steps_give_every_int64_sum(args, want):
    # hi reads as 2**63 - 1: the sums at or past 2**63 are left out, and no
    # value wraps; an interval's last value is kept however large the step
    got = window_subset_sums(*args)
    assert got.values.tolist() == want
    _held_as_built(got)


@st.composite
def _built_set_case(draw):
    """(kind, build): a set that the package builds from runs, and a
    function that builds it afresh.  The kinds are the window DP's results
    from {0} and from a start (`_started_window_case`), `cap`'s slices of a
    DP result and of a constructor set, the merge's kernel root (stage two
    exact, eta_mult 1e-9, so that no merge collapses) over items in units
    of a step of 1, 2 or 3, and the dense interval."""
    kind = draw(st.sampled_from(["dp", "dp-start", "cap-dp", "cap-start", "kernel-root", "dense-interval"]))
    if kind == "kernel-root":
        step = draw(st.sampled_from([1, 2, 3]))
        pairs = draw(st.lists(st.tuples(st.integers(2, 16), st.integers(1, 6)), min_size=4, max_size=10))
        items = [step * v for v, c in pairs for _ in range(c)]
        t = max(1, int(draw(st.floats(0.05, 0.66)) * sum(items)))
        window = int(draw(st.floats(0.0, 1.0)) * t)
        config = SolverConfig(seed=draw(st.integers(0, 99)), eta_mult=1e-9)
        return kind, lambda: solve_d_window(multiset(items), t, max(items), len(items), config, window)
    if kind == "dense-interval":
        d, t, w = draw(st.integers(1, 7)), draw(st.integers(0, 10**4)), draw(st.integers(1, 64))
        return kind, lambda: dense_interval_set(d, t, w)
    items, lo, hi, _, start = draw(_started_window_case())
    cut = sorted(draw(st.lists(st.integers(min(lo, hi) - 5, max(lo, hi) + 5), min_size=2, max_size=2)))
    builds = {
        "dp": lambda: window_subset_sums(multiset(items), lo, hi),
        "dp-start": lambda: window_subset_sums(multiset(items), lo, hi, SumSet(start)),
        "cap-dp": lambda: cap(window_subset_sums(multiset(items), lo, hi, SumSet(start)), *cut),
        "cap-start": lambda: cap(SumSet(start), *cut),
    }
    return kind, builds[kind]


@given(case=_built_set_case(), data=st.data())
@example(case=("dp", lambda: bounded_subset_sums(([1], [10**4]), 10**4)), data=None)
@settings(max_examples=300, deadline=None)
def test_built_sets_answer_as_constructor_sets(case, data):
    # every public operation gives the same answer on a set the package
    # builds (held as runs, in the step its builder chose) as on the
    # constructor's set of the same values (in runs of their gcd) and as
    # on a Python set of them; len, min, max, dm, in and hash build no
    # array of the values
    kind, build = case
    got, ref = build(), SumSet(build().values)
    assert isinstance(got, SumSet), kind
    want = ref.values.tolist()
    plain = set(want)
    assert (len(got), got.is_empty, got.min(), got.max(), got.dm()) == (len(ref), ref.is_empty, ref.min(), ref.max(), ref.dm())
    if want:
        assert (got.min(), got.max(), got.dm()) == (want[0], want[-1], want[-1] - want[0] + 1)
    # members, their neighbours (off the step where it is above 1), the
    # hull's neighbours, and integers outside int64
    probes = [want[i] + d for i in range(0, len(want), max(len(want) // 20, 1)) for d in (-1, 0, 1)]
    probes += [got.min() - 1, got.max() + 1, -1, 0, 2**63 - 1, 2**63, 2**64 + 5, -(2**70)]
    if data is not None:
        probes += data.draw(st.lists(st.integers(got.min() - 3, got.max() + 3), max_size=20))
    assert [x in got for x in probes] == [x in ref for x in probes] == [x in plain for x in probes]
    assert hash(got) == hash(ref)
    assert got._values is None, kind
    bounds = [(-(2**70), 2**70), (got.min(), got.max()), (got.min() + 1, got.max() - 1), (2**63, 2**64)]
    if data is not None:
        bounds.append(tuple(sorted(data.draw(st.lists(st.integers(got.min() - 3, got.max() + 3), min_size=2, max_size=2)))))
    for lo, hi in bounds:
        if lo <= hi:
            assert cap(got, lo, hi) == cap(ref, lo, hi) and list(cap(got, lo, hi)) == [v for v in want if lo <= v <= hi]
    assert got == ref and ref == got and not got != ref
    assert got != SumSet(want + [want[-1] + 1] if want else [0]) and got != tuple(want)
    assert list(got) == want and [type(x) for x in got] == [int] * len(want)
    v = got.values
    assert v.ndim == 1 and v.dtype == np.int64 and not v.flags.writeable and v.tolist() == want
    assert got.values is v
    with pytest.raises(ValueError):
        v[:1] = 7


@st.composite
def _fallback_case(draw):
    """(values, counts, t): up to three distinct multiples of a gcd g of
    2, 3 or 6 (or of 1), each with 1 to 10**4 copies, and t on or off g,
    0, negative, past sigma, or below a value added above it."""
    g = draw(st.sampled_from([1, 2, 3, 6]))
    count = st.integers(1, 10) | st.integers(1, 10**4)
    copies = Counter({g * u: draw(count) for u in draw(st.sets(st.integers(1, 6), max_size=3))})
    sigma = sum(v * c for v, c in copies.items())
    kind = draw(st.sampled_from(["on g", "off g", "zero", "negative", "past sigma", "value above t"]))
    if kind == "negative":
        t = draw(st.integers(-100, -1))
    elif kind == "zero":
        t = 0
    elif kind == "past sigma":
        t = sigma + draw(st.integers(1, 2 * g))
    else:
        t = g * draw(st.integers(0, sigma // g))
        if kind == "off g" and g > 1:
            t += draw(st.integers(1, g - 1))
        if kind == "value above t":
            copies[g * (t // g + draw(st.integers(1, 20)))] += draw(st.integers(1, 3))
    values = sorted(copies)
    return values, [copies[v] for v in values], t


@given(case=_fallback_case())
# all even, t odd and inside [0, sigma]: a no that the gcd settles
@example(case=([2, 4, 6], [10**4, 10**4, 10**4], 60001))
# a value above t, and empty items at t = 0 and t > 0
@example(case=([3, 9, 30], [5, 2, 1], 27))
@example(case=([], [], 0))
@example(case=([], [], 5))
@settings(max_examples=100, deadline=None)
def test_fallback_dp_matches_the_per_item_dp(case):
    # the window DP over the multiset, as arrays or lists, its values
    # ascending, descending or with each count split across two entries,
    # decides as the per-item shift loop does
    values, counts, t = case
    want = per_item_dp([v for v, c in zip(values, counts) for _ in range(c)], t)
    split = [(v, k) for v, c in zip(values, counts) for k in (c // 2, c - c // 2) if k]
    forms = (
        (np.array(values, dtype=np.int64), np.array(counts, dtype=np.int64)),
        (values[::-1], counts[::-1]),
        tuple(map(list, zip(*split))) if split else ([], []),
    )
    for form in forms:
        assert fallback_dp(form, t) == want


@st.composite
def _shortcut_family(draw):
    """A `partition_groups` family of positive items, or a hand-built one
    of positive groups of up to 100 elements (so |G| >= 63 occurs), values
    up to 2**50, padded with empty groups to a power-of-two count."""
    if draw(st.booleans()):
        items = draw(st.lists(st.integers(1, 64), min_size=2, max_size=300))
        t = draw(st.integers(1, 2 * sum(items) // 3))
        return partition_groups(multiset(items), t, rng_stream(draw(st.integers(0, 99)), "phase1"))
    value = st.integers(1, 8) | st.integers(1, 1 << 50)
    groups = draw(st.lists(st.lists(value, min_size=1, max_size=100).map(sorted), min_size=1, max_size=12))
    ell = 1 << ceil_log2(len(groups))
    return GroupFamily(Flat.of(groups + [[]] * (ell - len(groups))), len(groups))


@given(family=_shortcut_family(), above=st.integers(1, 1000))
@settings(max_examples=150, deadline=None)
def test_tail_above_sigma_d_needs_no_excess_scan(family, above):
    # stage two takes the unbudgeted path at once when tail > sigma(D):
    # sound only if such a tail also exceeds the level excess bound and the
    # count of non-empty groups, the two checks it skips
    tail = int(family.groups.vals.sum()) + above
    assert colorcoding._max_level_excess(family) < tail
    assert np.count_nonzero(family.groups.sizes()) < tail


@st.composite
def _run_level(draw):
    """(sets, step): an even number of nodes, each the union of up to four
    runs of step `step`; a node is empty, near 0, near 2**62 or spans
    both, so pair sums stay below 2**63 while pairs of wide nodes have
    hulls near 2**63."""
    step = draw(st.sampled_from([1, 2, 3, 40]))  # the overflow risk is in units of step
    top = (1 << 62) // step - 7  # largest run start, in units of step
    sets = []
    for _ in range(2 * draw(st.integers(1, 5))):
        ends = draw(st.sampled_from([(), (0,), (top,), (0, top), (0, top)]))
        units = set()
        for end in ends:
            for _ in range(draw(st.integers(1, 2))):
                lo = end + draw(st.integers(0, 300)) * (1 if end == 0 else -1)
                units.update(range(lo, lo + draw(st.integers(1, 6))))
        sets.append(tuple(step * u for u in sorted(units)))
    return sets, step


@given(level=_run_level(), budget_frac=st.floats(0.0, 1.1))
@settings(max_examples=150, deadline=None)
def test_pair_level_matches_oracle_on_runs(level, budget_frac):
    sets, step = level
    full = [tuple(pairwise_sumset(x, y)) if x and y else () for x, y in zip(sets[0::2], sets[1::2])]
    sizes = np.cumsum([len(z) for z in full])
    budget = max(1, int(budget_frac * int(sizes[-1])))
    stop = int(np.searchsorted(sizes, budget))  # first pair whose running size reaches budget
    expected_observed = int(sizes[stop]) if stop < len(full) else None
    out, observed = _pair_level(level_of(sets, step), budget)
    assert observed == expected_observed
    assert [tuple(z.tolist()) for z in out] == full[: stop + 1]


@st.composite
def _step_sets(draw):
    """(sets, g): up to six nodes of multiples of g, some of them empty,
    each a few short runs near 0, 2**62 or 2**63 - 2."""
    g = draw(st.sampled_from([1, 2, 3, 40]))
    top = ((1 << 63) - 2) // g  # the largest value in units of g
    sets = []
    for _ in range(draw(st.integers(0, 6))):
        units = set()
        for end in draw(st.lists(st.sampled_from([0, (1 << 62) // g, top]), max_size=3)):
            for _ in range(draw(st.integers(1, 3))):
                lo = end + draw(st.integers(-40, 40))
                units.update(range(max(lo, 0), min(lo + draw(st.integers(1, 5)), top + 1)))
        sets.append(tuple(g * u for u in sorted(units)))
    return sets, g


@given(case=_step_sets())
@settings(max_examples=150, deadline=None)
def test_level_round_trip(case):
    sets, g = case
    for level in (level_of(sets), level_of(sets, g)):
        assert [tuple(z.tolist()) for z in level] == sets
        assert level.sizes().tolist() == [len(s) for s in sets]
        assert level.values().tolist() == [v for s in sets for v in s]
        # runs are maximal: within a node, each starts past the previous end + 1
        inner = np.ones(len(level.starts), dtype=bool)
        inner[level.offs[:-1][level.offs[:-1] < len(inner)]] = False
        assert np.all(level.starts[inner] > level.ends[np.flatnonzero(inner) - 1] + 1)
    assert level_of(sets, g) == level_of(sets)


_BOUND = st.builds(
    lambda base, delta: base + delta,
    st.sampled_from([0, 1 << 62, (1 << 63) - 2, 1 << 70]),
    st.integers(-300, 300),
)


@given(case=_step_sets(), lo=_BOUND, hi=_BOUND)
@settings(max_examples=150, deadline=None)
def test_level_cap_on_runs_matches_per_node_cap(case, lo, hi):
    sets, g = case
    expected = [tuple(cap(SumSet(s), lo, hi).values.tolist()) if lo <= hi else () for s in sets]
    for level in (level_of(sets), level_of(sets, g)):
        assert [tuple(z.tolist()) for z in level.cap(lo, hi)] == expected


@st.composite
def _union_case(draw):
    """(count, runs): runs (node, lo, hi) of count nodes, in any order.
    Runs overlap, touch (an end + 1 is the next start), repeat and hold
    one value; most nodes hold 0, some hold nothing else, some hold no run
    at all.  A run is near 0 or near 2**61, so that three nodes that hold
    both need more than 2**62 coordinates between them."""
    count = draw(st.integers(1, 8))
    run = st.tuples(st.integers(0, count - 1), st.integers(0, 40), st.integers(0, 6), st.sampled_from([0, 0, 1 << 61]))
    runs = [(node, far + lo, far + lo + length) for node, lo, length, far in draw(st.lists(run, max_size=30))]
    runs += [(node, 0, 0) for node in range(count) if draw(st.booleans()) or draw(st.booleans())]
    if runs:
        runs += draw(st.lists(st.sampled_from(runs), max_size=5))  # repeated runs
    return count, draw(st.permutations(runs))


@given(case=_union_case())
# [0, 2] and [3, 5] of one node touch: one run [0, 5]
@example(case=(2, [(0, 0, 2), (1, 0, 0), (0, 3, 5)]))
@example(case=(3, [(k, 0, 0) for k in range(3)] + [(k, (1 << 61) + 9, (1 << 61) + 9) for k in range(3)]))
@settings(max_examples=150, deadline=None)
def test_node_union_matches_set_union(case):
    # each node's union of its runs, from one merge over all nodes, against
    # a Python set union per node
    count, runs = case
    want = [set() for _ in range(count)]
    for node, lo, hi in runs:
        want[node].update(range(lo, hi + 1))
    base = np.array([min(vals, default=0) for vals in want], dtype=np.int64)
    span = np.array([max(vals, default=0) for vals in want], dtype=np.int64) - base
    node, lo, hi = (np.array([r[k] for r in runs], dtype=np.int64) for k in range(3))
    sizes, nruns, starts, ends = sumset._node_union(lo, hi, node, base, span)
    got = sumset.Level(starts, ends, sumset._offsets(nruns), 1)
    assert sizes.tolist() == [len(vals) for vals in want]
    assert [set(vals.tolist()) for vals in got] == want
    # the runs are maximal: within a node, each starts past the previous end + 1
    inner = np.ones(len(starts), dtype=bool)
    inner[got.offs[:-1][got.offs[:-1] < len(inner)]] = False
    assert np.all(starts[inner] > ends[np.flatnonzero(inner) - 1] + 1)


@st.composite
def _contents_case(draw):
    """(groups, nodes): ascending groups, often repeating a content, and
    distinct node indices in any order.  Groups are empty, singletons or
    larger, values repeat within a group, (1, 4) and (2, 3) share a size
    and a sum, and values near 2**62 and 2**63 - 1 fill all eight bytes,
    some of them differing only past their low 32 bits."""
    value = st.sampled_from([1, 2, 3, 4, 5, (1 << 62) - 1, 1 << 62, (1 << 62) + 1, (1 << 62) + (1 << 32), (1 << 63) - 1])
    pool = draw(st.lists(st.lists(value, max_size=4).map(sorted), min_size=1, max_size=6))
    groups = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return groups, draw(st.lists(st.integers(0, len(groups) - 1), unique=True))


@given(case=_contents_case())
@example(case=([[1, 4], [2, 3], [1, 4], [5], [2, 3]], [0, 1, 2, 3, 4]))
@example(case=([[], [], []], [2, 0, 1]))  # no group holds an element
@example(case=([[7], [], [7, 7], [7]], [3, 1, 0, 2]))
@example(case=([[1]], []))
@example(case=([[3, 1 << 62], [3, (1 << 62) + (1 << 32)], [1 << 62]], [1, 0, 2]))
@settings(max_examples=150, deadline=None)
def test_distinct_contents_index_each_content_at_its_first_node(case):
    # two nodes share an index exactly when they hold the same sequence,
    # and each index's representative is the first node holding it
    groups, nodes = case
    which, distinct = colorcoding._distinct_contents(Flat.of(groups), np.array(nodes, dtype=np.int64))
    contents = [tuple(groups[k]) for k in nodes]
    assert len(which) == len(nodes) and len(distinct) == len(set(contents))
    for i, content in enumerate(contents):
        assert [which[j] == which[i] for j in range(len(nodes))] == [c == content for c in contents]
        assert distinct[which[i]] == nodes[contents.index(content)]


def test_merge_matches_values_reference():
    outcomes = []

    @given(
        w=st.sampled_from([2, 3, 4, 8]),
        mult=st.sampled_from([1, 2, 2, 3]),
        n=st.integers(4, 40),
        t_frac=st.floats(0.05, 0.66),
        eta_mult=st.sampled_from([1.0, 1e-12]),
        log_tail=st.floats(0.5, 1.1),
        window=st.sampled_from([0, 3, 40]),
        checked=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # the caps remove a value from the root; trips at levels 1 and 2
    @example(w=8, mult=2, n=26, t_frac=0.49, eta_mult=1e-12, log_tail=1.06, window=3, checked=False, seed=81)
    @example(w=8, mult=2, n=22, t_frac=0.07, eta_mult=1.0, log_tail=0.51, window=0, checked=True, seed=64)
    @example(w=4, mult=1, n=18, t_frac=0.07, eta_mult=1e-12, log_tail=0.94, window=40, checked=False, seed=8)
    @settings(max_examples=80, deadline=None)
    def check(w, mult, n, t_frac, eta_mult, log_tail, window, checked, seed):
        # mult = 2 makes every value even, so the merge runs in units of 2;
        # eta_mult = 1e-12 narrows the caps until they remove values, and the
        # budget tail is m^u for u in [0.5, 1.1] with m the values' range in
        # units (a level's size excess over its node count is below m): most
        # merges trip, some past level 1, and some do not trip
        rng = np.random.default_rng(seed)
        items = [mult * int(v) for v in rng.integers(1, w + 1, size=n)]
        t = max(1, int(t_frac * sum(items)))
        args = (t, mult * w, n, 0.3)
        family = partition_groups(multiset(items), t, rng_stream(seed, "p1"))
        staged = build_group_sumsets(family, *args, rng_stream(seed, "p2"))
        params = (staged.params.rho, staged.params.g, *args, eta_mult)
        full_tail = merge_bounds(*params, 1.0, window)[2]
        budget_mult = (sum(items) // mult + 2) ** log_tail / full_tail
        got = merge_group_sumsets(
            staged, family, *args, rng_stream(seed, "p3"),
            eta_mult=eta_mult, budget_mult=budget_mult, window=window, checked=checked,
        )
        kind, ref = reference_merge(
            [tuple(s.tolist()) for s in staged.sets], family.group_sums.tolist(),
            staged.params.rho, staged.params.g, *args, rng_stream(seed, "p3"),
            eta_mult, budget_mult, window,
        )
        if kind == "root":
            # the merge returns the root on the target window only
            assert got == cap(SumSet(ref), max(t - window, 0), t)
            outcomes.append(("root", len(ref) < len(subset_sums(items))))
        else:
            assert got == DenseEvidence(**ref)
            assert got.num_sets == family.ell >> ref["level"]
            outcomes.append(("evidence", ref["level"]))

    check()
    assert ("root", True) in outcomes, "no example's caps removed a value"
    trip_levels = {level for kind, level in outcomes if kind == "evidence"}
    assert len(trip_levels) >= 2, "trips at fewer than two levels"


def test_deep_merge_matches_values_reference():
    outcomes = []

    @given(
        log_ell=st.sampled_from([6, 6, 7, 8, 9]),
        w=st.sampled_from([2, 3, 40]),
        mult=st.sampled_from([1, 2]),
        incomplete=st.booleans(),
        eta_side=st.one_of(st.floats(1.0, 2.0), st.floats(0.01, 1.0)),
        tail_side=st.floats(0.5, 2.0),
        t_frac=st.floats(0.05, 0.5),
        checked=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # both bounds hold: the merge collapses, checked or not
    @example(log_ell=6, w=3, mult=1, incomplete=False, eta_side=1.5, tail_side=1.5, t_frac=0.3, checked=False, seed=1)
    @example(log_ell=7, w=40, mult=2, incomplete=False, eta_side=1.5, tail_side=1.5, t_frac=0.3, checked=True, seed=2)
    @settings(max_examples=60, deadline=None)
    def check(log_ell, w, mult, incomplete, eta_side, tail_side, t_frac, checked, seed):
        # 64-512 groups (a deep tree), each empty, one item or two or three
        # (fewer at w = 40, where the sets are sparse), all even when
        # mult = 2; with `incomplete` a group of two or more lacks its own
        # sum, as a never-complete group does.  The budget tail is drawn
        # from half to twice sigma / step, and eta from 1% to twice
        # max(t, sigma) (half the time from the upper half), so the
        # collapse's trip and cap bounds hold in some examples and fail in
        # others, where the kernel caps the inner levels or trips
        rng = np.random.default_rng(seed)
        ell = 1 << log_ell
        groups = [
            tuple(sorted(mult * int(v) for v in rng.integers(1, w + 1, size=k)))
            for k in rng.choice([0, 1, 1, 1, 2, 3] if w < 40 else [0, 0, 0, 1, 2], size=ell)
        ]
        sets = [tuple(subset_sums(grp)) for grp in groups]
        multi = [i for i, grp in enumerate(groups) if len(grp) >= 2]
        if incomplete and multi:
            sets[multi[0]] = sets[multi[0]][:-1]
        exact = not (incomplete and multi)
        items = [x for grp in groups for x in grp]
        n, sigma = max(1, len(items)), sum(items)
        step = max(math.gcd(*items), 1)
        t = max(1, int(t_frac * sigma))
        q = 0.3
        params = color_params(n, t, mult * w, q)
        family = GroupFamily(Flat.of(groups), sum(1 for grp in groups if grp))
        staged = GroupSumsets(level_of(sets), params, exact)

        bounds = (params.rho, params.g, t, mult * w, n, q)
        eta_mult = eta_side * max(t, sigma) / merge_bounds(*bounds, 1.0, 1.0, 0)[0]
        budget_mult = tail_side * (sigma // step) / merge_bounds(*bounds, eta_mult, 1.0, 0)[2]
        eta, _, tail = merge_bounds(*bounds, eta_mult, budget_mult, 0)
        # no level trips (sigma / step < tail) or caps a value (eta + 1 >=
        # max(t, sigma)); the DP's t // step + 1 bits are far below its cap
        collapse = exact and sigma // step < tail and eta + 1 >= max(t, sigma)

        dps, kernel_levels = [], []
        with mock.patch.multiple(
            merge,
            window_subset_sums=lambda *a, **k: dps.append(a[1:]) or window_subset_sums(*a, **k),
            _pair_level=lambda *a: kernel_levels.append(a[1]) or pair_level(*a),
        ):
            got = merge_group_sumsets(
                staged, family, t, mult * w, n, q, rng_stream(seed, "p3"),
                eta_mult=eta_mult, budget_mult=budget_mult, window=0, checked=checked,
            )
        kind, ref = reference_merge(
            list(sets), [sum(grp) for grp in groups], params.rho, params.g, t, mult * w, n, q,
            rng_stream(seed, "p3"), eta_mult, budget_mult, 0,
        )
        assert got == (cap(SumSet(ref), t, t) if kind == "root" else DenseEvidence(**ref))
        assert kind == "root" or got.num_sets == ell >> ref["level"]
        # a collapse is the windowed DP (window 0: [t, t]) and, unchecked, no
        # kernel level; otherwise the kernel runs every level up to the root
        # or the trip
        assert dps == ([(t, t)] if collapse else [])
        if collapse and not checked:
            assert kernel_levels == []
        else:
            assert len(kernel_levels) == (log_ell if kind == "root" else ref["level"])
        capped = kind == "root" and len(ref) < len(per_copy_subset_sums(items))
        outcomes.append((collapse, exact, kind, capped))

    window_subset_sums, pair_level = merge.window_subset_sums, merge._pair_level
    check()
    assert any(collapse for collapse, _, _, _ in outcomes), "no example collapsed"
    assert any(exact and not collapse for collapse, exact, _, _ in outcomes), "no exact example refused the collapse"
    assert any(not exact for _, exact, _, _ in outcomes), "no example with a never-complete group"
    assert any(kind == "evidence" for _, _, kind, _ in outcomes), "no example tripped"
    assert any(capped for _, _, _, capped in outcomes), "no example's caps removed a value"


def test_merge_collapse_matches_values_reference():
    # The merge collapses to one windowed DP over every item when the sets
    # are exact, sigma / step < tail (no level can trip), eta + 1 >= max(t,
    # sigma) (no cap can remove a value) and the DP's mask of t // step + 1
    # bits fits in FALLBACK_MAX_BITS.  Each example is drawn so that all
    # four hold, or all but the one named by `refuse`: the tail at sigma /
    # step (`trip`), eta + 1 one below max(t, sigma) (`cap`; the others sit
    # at it), a set lacking its group's sum (`exact`), or the memory cap
    # patched to one bit below the mask (`bits`).  Unchecked and checked
    # merges must both equal the values-level reference's root on
    # [t - window, t], and only the examples that meet every condition may
    # collapse.
    seen = set()

    @given(
        log_ell=st.sampled_from([2, 3, 6, 7]),
        refuse=st.sampled_from([None, "exact", "trip", "cap", "bits"]),
        mult=st.sampled_from([1, 2]),
        t_frac=st.floats(0.05, 0.66),
        seed=st.integers(0, 2**32 - 1),
    )
    # first draws with four empty groups, and with one group {2} under `cap`
    @example(log_ell=2, refuse="trip", mult=1, t_frac=0.5, seed=833595568)
    @example(log_ell=2, refuse="cap", mult=1, t_frac=0.5, seed=20731)
    @settings(max_examples=60, deadline=None)
    def check(log_ell, refuse, mult, t_frac, seed):
        rng = np.random.default_rng(seed)
        ell = 1 << log_ell
        # A family is redrawn when sigma = 0, which breaks the merge's
        # precondition 2 * sigma >= 3t (the solver never merges it), or when
        # `cap` has sigma = 2, whose window max(t, sigma) - 3 is negative;
        # every other family is the first draw.
        while True:
            w, sizes = 4, rng.choice([0, 1, 1, 2, 3], size=ell)
            groups = [tuple(sorted(mult * int(v) for v in rng.integers(w // 2, w + 1, size=k))) for k in sizes]
            if sum(map(sum, groups)) >= (3 if refuse == "cap" else 1):
                break
        sets = [tuple(subset_sums(grp)) for grp in groups]
        multi = [i for i, grp in enumerate(groups) if len(grp) >= 2]
        if refuse == "exact" and multi:
            sets[multi[0]] = sets[multi[0]][:-1]
        items = [x for grp in groups for x in grp]
        n, sigma = max(1, len(items)), sum(items)
        step = max(math.gcd(*items), 1)
        t = max(1, int(t_frac * sigma))
        q, eta_mult = 0.3, 1e-30
        params = color_params(n, t, mult * w, q)
        family = GroupFamily(Flat.of(groups), sum(1 for grp in groups if grp))
        staged = GroupSumsets(level_of(sets), params, refuse != "exact")
        # eta_mult = 1e-30 makes eta = 1 + window exactly
        window = max(t, sigma) - (3 if refuse == "cap" else 2)
        bounds = (params.rho, params.g, t, mult * w, n, q, eta_mult)
        full_tail = merge_bounds(*bounds, 1.0, window)[2]
        budget_mult = (sigma // step + (0 if refuse == "trip" else 1) - 0.5) / full_tail
        eta, _, tail = merge_bounds(*bounds, budget_mult, window)
        max_bits = t // step if refuse == "bits" else merge.FALLBACK_MAX_BITS
        collapse = refuse != "exact" and sigma // step < tail and eta + 1 >= max(t, sigma)
        collapse = collapse and t // step + 1 <= max_bits

        args = (family, t, mult * w, n, q)
        kwargs = dict(eta_mult=eta_mult, budget_mult=budget_mult, window=window)
        lo = max(t - window, 0)
        dps, kernel_levels = [], []
        dp, pair_level = merge.window_subset_sums, merge._pair_level
        with mock.patch.object(merge, "FALLBACK_MAX_BITS", max_bits):
            with mock.patch.multiple(
                merge,
                window_subset_sums=lambda *a, **k: dps.append(a[1:]) or dp(*a, **k),
                _pair_level=lambda *a: kernel_levels.append(a[1]) or pair_level(*a),
            ):
                got = merge_group_sumsets(staged, *args, rng_stream(seed, "p3"), **kwargs)
            checked = merge_group_sumsets(staged, *args, rng_stream(seed, "p3"), checked=True, **kwargs)
        kind, ref = reference_merge(
            sets, [sum(grp) for grp in groups], params.rho, params.g, t, mult * w, n, q,
            rng_stream(seed, "p3"), eta_mult, budget_mult, window,
        )
        want = cap(SumSet(ref), lo, t) if kind == "root" else DenseEvidence(**ref)
        assert got == want and checked == want
        assert kind == "root" or got.num_sets == ell >> ref["level"]
        if collapse:
            assert dps == [(lo, t)] and kernel_levels == []
        else:
            assert dps == []
        seen.add((refuse, collapse))

    check()
    assert {(None, True), ("exact", False), ("trip", False), ("cap", False), ("bits", False)} <= seen


@given(
    log_ell=st.sampled_from([0, 2, 3, 6, 7]),
    mult=st.sampled_from([1, 2, 3]),
    t_frac=st.floats(0.05, 0.66),
    checked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_merge_collapses_exact_families_of_large_items(log_ell, mult, t_frac, checked, seed):
    # six to eight items near 2**12 (times the step mult) among 1 to 128
    # groups: they average more than 64 steps, so a row of sigma / step
    # bits takes more 64-bit words than the leaf level has values.  With
    # exact sets and the paper's constants no level can trip or cap, so the
    # merge is one windowed DP and, unchecked, no kernel level; its root on
    # [t - window, t] is the values-level reference's
    rng = np.random.default_rng(seed)
    ell, w = 1 << log_ell, 1 << 12
    sizes = np.bincount(rng.integers(0, ell, size=int(rng.integers(6, 9))), minlength=ell)
    groups = [tuple(sorted(mult * int(v) for v in rng.integers(w // 2, w + 1, size=k))) for k in sizes]
    sets = [tuple(subset_sums(grp)) for grp in groups]
    items = [x for grp in groups for x in grp]
    n, sigma = len(items), sum(items)
    step = math.gcd(*items)
    # false only when the items share a factor far above mult
    assume(sigma > 64 * step * n and (sigma // step + 1) // 64 + 1 > n + ell)
    t, q = max(1, int(t_frac * sigma)), 0.3
    params = color_params(n, t, mult * w, q)
    family = GroupFamily(Flat.of(groups), sum(1 for grp in groups if grp))
    staged = GroupSumsets(level_of(sets), params, True)
    window = target_window(mult * w, t)
    eta, _, tail = merge_bounds(params.rho, params.g, t, mult * w, n, q, 1.0, 1.0, window)
    assert sigma // step < tail and eta + 1 >= max(t, sigma)

    lo = max(t - window, 0)
    dps, kernel_levels = [], []
    dp, pair_level = merge.window_subset_sums, merge._pair_level
    with mock.patch.multiple(
        merge,
        window_subset_sums=lambda *a, **k: dps.append(a[1:]) or dp(*a, **k),
        _pair_level=lambda *a: kernel_levels.append(a[1]) or pair_level(*a),
    ):
        got = merge_group_sumsets(
            staged, family, t, mult * w, n, q, rng_stream(seed, "p3"), window=window, checked=checked
        )
    kind, ref = reference_merge(
        sets, [sum(grp) for grp in groups], params.rho, params.g, t, mult * w, n, q,
        rng_stream(seed, "p3"), 1.0, 1.0, window,
    )
    assert kind == "root" and got == cap(SumSet(ref), lo, t)
    assert dps == [(lo, t)]
    assert len(kernel_levels) == (log_ell if checked else 0)


@st.composite
def _divisor_instance(draw):
    """Items that are mostly multiples of a divisor d (a product of small
    primes, so peeling can take several steps), plus a few strays in
    [1, w], with w up to 10**12; t anywhere in [1, sigma]."""
    w = draw(st.one_of(st.integers(1, 200), st.integers(201, 10**12)))
    d = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 30, 1024, 3**10]))
    d = d if d <= w else 1
    items = [d * m for m in draw(st.lists(st.integers(1, w // d), min_size=1, max_size=60))]
    items += draw(st.lists(st.integers(1, w), max_size=4))
    return Instance(items, draw(st.integers(1, sum(items))))


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("eta_mult", [1.0, 1e-9], ids=["collapse", "kernel"])
@given(
    pairs=st.lists(st.tuples(st.integers(2, 16), st.integers(1, 6)), min_size=4, max_size=10),
    t_frac=st.floats(0.05, 0.66),
    w_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 99),
)
@settings(max_examples=30, deadline=None)
def test_sparse_d_window_lies_in_its_window(eta_mult, checked, pairs, t_frac, w_frac, seed):
    # the sparse result lies in [max(t - window, 0), t] with no cap after
    # the merge: a collapsing merge reads its DP back on the window, and
    # the kernel's root is capped to it.  At eta_mult = 1e-9, eta + 1 is
    # window + 2, below sigma(D) here, so no merge collapses; checked mode
    # runs the kernel after the DP too
    items = [v for v, c in pairs for _ in range(c)]
    sigma = sum(items)
    t = max(1, int(t_frac * sigma))  # at most 2 sigma / 3, as stage one needs
    window = int(w_frac * t)
    flags = []
    collapses = merge._collapses
    config = SolverConfig(seed=seed, eta_mult=eta_mult, checked_mode=checked)
    with mock.patch.object(merge, "_collapses", lambda *a: flags.append(collapses(*a)) or flags[-1]):
        got = solve_d_window(multiset(items), t, max(items), len(items), config, window)
    assert isinstance(got, SumSet)
    assert flags[0] == (eta_mult == 1.0)
    assert got.is_empty or max(t - window, 0) <= got.min() <= got.max() <= t
    assert set(got) <= set(per_copy_subset_sums(items))


@given(inst=_divisor_instance())
@settings(max_examples=150, deadline=None)
def test_partition_instance_matches_per_item_reference(inst):
    part = partition_instance(inst)
    parts = (part.leftover_part, part.residue_part, part.dense_part)
    got = (part.divisor, *(tuple(p.tolist()) for p in parts), part.alpha)
    assert got == reference_partition(inst.items, inst.target, inst.w)


@st.composite
def _multiset_instance(draw):
    """Few distinct values with counts up to 10**4: multiples of 2, 3 or 6
    with a few strays of small count, or a tiny multiset of n <= alpha
    items (t >= w * n**2), where every d > 1 is an almost divisor."""
    d = draw(st.sampled_from([2, 3, 6]))
    w = draw(st.integers(2 * d, 600))
    values = draw(st.lists(st.integers(1, w // d), min_size=1, max_size=4, unique=True))
    pairs = [(d * v, draw(st.integers(1, 10**4))) for v in values]
    pairs += [(x, draw(st.integers(1, 3))) for x in draw(st.lists(st.integers(1, w), max_size=3))]
    items = [x for x, c in pairs for _ in range(c)]
    if draw(st.booleans()):
        items = items[: draw(st.integers(1, 12))]
        n, top = len(items), max(items)
        return Instance(items, draw(st.integers(top * n * n, top * n * n + 100)))
    return Instance(items, draw(st.integers(1, sum(items))))


@given(inst=_multiset_instance())
@settings(max_examples=40, deadline=None)
def test_partition_of_large_counts_matches_per_item_reference(inst):
    part = partition_instance(inst)
    parts = (part.leftover_part, part.residue_part, part.dense_part)
    got = (part.divisor, *(tuple(p.tolist()) for p in parts), part.alpha)
    assert got == reference_partition(inst.items, inst.target, inst.w)
    if part.alpha >= inst.n:
        assert not part.dense_part.size


def _partition_groups_against_reference(items, t, seed):
    """Elements moved into empty buckets, after checking that stage one
    matches its list reference on the same draws."""
    family = partition_groups(multiset(items), t, rng_stream(seed, "p1"))
    groups, raw, filled = reference_partition_groups(items, t, rng_stream(seed, "p1"))
    # stage one's sizes, read before any item is placed
    sizes = [len(g) for g in groups]
    assert (family.largest, family.ell, family.sizes().tolist()) == (max(sizes), len(groups), sizes)
    assert family.element_count == len(items)
    counted = sorted(Counter(items).items())
    assert [a.tolist() for a in family.multiset] == [[x for x, _ in counted], [c for _, c in counted]]
    assert family._groups is None, "stage one placed the items"
    assert [tuple(g.tolist()) for g in family.groups] == list(groups)
    assert family.raw_count == raw
    assert family.largest == max(map(len, groups)) and family == GroupFamily(family.groups, raw)
    assert family.group_sums.tolist() == [sum(g) for g in groups]
    return filled


def test_partition_groups_matches_list_reference():
    moved, large = [], []

    @given(
        items=st.lists(st.integers(1, 64), min_size=10, max_size=200),
        per_bucket=st.floats(1.0, 2.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def check(items, per_bucket, seed):
        # t gives the fullest layer j about per_bucket items per bucket (its
        # cap is ceil(t / 2^(j-1)), or 2t for j = 0), so buckets come out
        # empty; t stays below sigma / 2, inside the mass stage one requires
        layers = [x.bit_length() - 1 for x in items]
        j = max(set(layers), key=layers.count)
        t = max(1, int(layers.count(j) / per_bucket * 2.0 ** (j - 1)))
        moved.append(_partition_groups_against_reference(items, t, seed))

    @given(
        n=st.integers(11_000, 12_000),
        per_bucket=st.floats(1.1, 1.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def check_large(n, per_bucket, seed):
        # `dense-trip`'s n=12000, w=2 shape: about n/2 twos in t buckets (the
        # cap of their layer), over a thousand of them empty
        items = np.random.default_rng(seed).integers(1, 3, size=n).tolist()
        t = int(items.count(2) / per_bucket)
        large.append(_partition_groups_against_reference(items, t, seed))

    check()
    assert any(moved), "no example moved an element into an empty bucket"
    check_large()
    assert min(large) > 1000, "a large example filled at most a thousand empty buckets"
    # a layer of more than 2^16 buckets: 90,000 items in [16, 32), layer 4,
    # whose cap at t = 600,000 is 75,000 buckets
    items = np.random.default_rng(29).integers(16, 32, size=90_000).tolist()
    assert _partition_groups_against_reference(items, 600_000, 29) > 10_000


@st.composite
def _small_family(draw):
    """A power-of-two count of groups, each of up to six elements in
    [1, 12] (a quarter of them multiples of 3), some of them empty."""
    groups = []
    for _ in range(draw(st.sampled_from([1, 2, 4, 8]))):
        mult = draw(st.sampled_from([1, 1, 1, 3]))
        groups.append(tuple(mult * x for x in draw(st.lists(st.integers(1, 12), max_size=6))))
    return ascending_family(groups, sum(1 for g in groups if g))


class _DrawSpy:
    """A generator whose `integers` draws are recorded."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def integers(self, *args, **kwargs):
        self.draws.append(self.rng.integers(*args, **kwargs))
        return self.draws[-1]


def _budgeted_shapes(family, g, draws, got):
    """What budgeted stage two met on these draws: the kinds of its levels
    and of its stop, and, in order, the level of every level up to the
    stop that has a node with two occupied children."""
    owner = np.repeat(np.arange(family.ell), family.groups.sizes())
    seen, paired = set(), []
    for rep, drawn in enumerate(draws):
        keys = np.unique(owner * g + drawn)
        trip = isinstance(got, DenseTripSignal) and got.repetition == rep
        for h in range(1, (got.level if trip else ceil_log2(g)) + 1):
            children = np.unique(keys >> (h - 1))
            two = np.isin(children ^ 1, children)  # a child whose sibling is occupied
            if not two.any():
                seen.add("no two-child node")
                continue
            paired.append(h)
            if not two.all():
                seen.add("both kinds")
        if trip:
            node, parents = got.trip_index - 1, np.unique(keys >> got.level)
            if node in parents:
                both = np.isin([2 * node, 2 * node + 1], keys >> (got.level - 1)).all()
                seen.add("stop on a two-child node" if both else "stop on a one-child node")
            else:
                seen.add("stop in a {0} gap" if (parents > node).any() else "trailing stop")
            break
    else:
        seen.add("no trip")
    return seen, paired


def test_stage_two_matches_materialized_reference():
    # The draws are recorded so that the test can say which levels have
    # nodes with two occupied children (the only ones summed) and where
    # the stop fell; the kernel must be called at exactly those levels.
    # The explicit examples stop on a one-child node, on a two-child node
    # and in a {0} gap, and run without a trip: random examples miss each
    # of these in some runs (no trip in about one run of six).  The last
    # one puts a value twice into one part, whose node at level 0 must
    # hold it once
    seen = set()
    one, four = GroupFamily(Flat.of(((2, 4, 6),)), 1), GroupFamily(Flat.of(((3, 5), (1, 2, 7), (), (4,))), 3)
    twos = GroupFamily(Flat.of(((2,) * 6,)), 1)

    @given(family=_small_family(), n=st.integers(1, 3), log_tail=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(family=one, n=1, log_tail=0.3, seed=11)
    @example(family=one, n=1, log_tail=0.7, seed=0)
    @example(family=one, n=1, log_tail=0.85, seed=0)
    @example(family=four, n=1, log_tail=0.3, seed=3)
    @example(family=twos, n=1, log_tail=0.2, seed=0)
    @settings(max_examples=60, deadline=None)
    def check(family, n, log_tail, seed):
        # the budget tail log-uniform from 1 to past the largest possible
        # level excess, so that trips fall at every level and some runs do
        # not trip
        excess = colorcoding._max_level_excess(family)
        budget_mult = (excess + 2) ** log_tail / color_params(n, 10, 12, 0.9).tail
        params = color_params(n, 10, 12, 0.9, budget_mult)
        rng, kernel_levels = _DrawSpy(rng_stream(seed, "p2")), []
        pair_level = colorcoding._pair_level

        def level_spy(level, budget, gaps):
            kernel_levels.append(ceil_log2(family.ell * params.g // (budget - params.tail)))
            return pair_level(level, budget, gaps)

        with mock.patch.object(colorcoding, "_pair_level", level_spy):
            got = build_group_sumsets(family, 10, 12, n, 0.9, rng, budget_mult=budget_mult)
        groups = [g.tolist() for g in family.groups]
        ref = materialized_stage_two(groups, params.g, params.reps, params.tail, rng_stream(seed, "p2"))
        if ref[0] == "sets":
            assert got == GroupSumsets(level_of(ref[1]), params, full_subset_sums(groups, ref[1]))
        else:
            assert got == DenseTripSignal(rho=params.rho, u_prime=params.u_prime, g=params.g, **ref[1])
        if params.tail <= excess:  # the budgeted path ran
            shapes, paired = _budgeted_shapes(family, params.g, rng.draws, got)
            assert kernel_levels == paired
            seen.update(shapes)

    check()
    assert seen == {
        "no two-child node",
        "both kinds",
        "stop on a two-child node",
        "stop on a one-child node",
        "stop in a {0} gap",
        "trailing stop",
        "no trip",
    }


@given(
    w=st.sampled_from([2, 3, 4]),
    stretch=st.floats(0.0, 1.0),
    budget_mult=st.sampled_from([1.0, 1e-9]),
    eta_mult=st.sampled_from([1.0, 1e-12]),
    data_seed=st.integers(0, 2**32 - 1),
    solve_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_solve_pipeline_sized(w, stretch, budget_mult, eta_mult, data_seed, solve_seed):
    # t from the small-target gate up to twice it, sigma ~ 3t; eta_mult=1e-12
    # narrows the merge caps until they remove values
    gate = 100 * w * ceil_log2(w) ** 2
    t = int(gate * (1 + stretch))
    assert not small_target_gate(t, w)
    n = round(3 * t / ((w + 1) / 2))
    rng = np.random.default_rng(data_seed)
    items = (w, *(int(v) for v in rng.integers(1, w + 1, size=n - 1)))
    config = SolverConfig(seed=solve_seed, budget_mult=budget_mult, eta_mult=eta_mult)
    out = solve(Instance(items, t), config)
    assert out.branch in ("sparse", "dense")
    if out.branch == "sparse" and out.decision:
        assert per_item_dp(items, t), "certified-path false positive"
