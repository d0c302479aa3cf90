"""Hypothesis property tests: the sumset kernels against the pairwise
oracle on every dispatch path, the level kernel on levels built from
runs, the run layout of `Level` (round trip and cap), the split and
stage one against their per-item references, colour coding's stage two
against its materialized reference, the merge tree against its
values-level reference, and `solve` on pipeline-sized instances."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsum import colorcoding, sumset
from subsetsum.colorcoding import (
    DenseTripSignal,
    GroupFamily,
    GroupSumsets,
    build_group_sumsets,
    color_params,
    partition_groups,
)
from subsetsum.core import Instance, SolverConfig, SumSet, ceil_log2, rng_stream
from subsetsum.merge import DenseEvidence, merge_group_sumsets
from subsetsum.solver import fallback_dp, small_target_gate, solve
from subsetsum.structure import partition_instance
from subsetsum.sumset import PAIRWISE_LIMIT, DenseSignal, Flat, Level, _pair_level, cap, dense_sumset

from oracles import (
    materialized_stage_two,
    merge_bounds,
    pairwise_sumset,
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
    dispatcher takes `path`: enumeration, a one-pair level without a
    split, or a level that splits."""
    path = draw(st.sampled_from(["pairwise", "level", "split"]))
    if path == "pairwise":
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
    assert got.values == expected
    if path == "pairwise":
        assert len(a) * len(b) <= PAIRWISE_LIMIT and levels == []
    elif path == "level":
        assert (levels, splits) == ([2], [])
    else:
        assert levels[0] == 2 and splits and all(h <= limit for h in hulls)
    lo, hi = min(bounds), max(bounds)
    assert cap(got, lo, hi).values == tuple(v for v in expected if lo <= v <= hi)


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
    expected_signal = DenseSignal(int(sizes[stop]), budget, stop + 1) if stop < len(full) else None
    out, signal = _pair_level(Level.of(sets, step), budget)
    assert signal == expected_signal
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
    for level in (Level.of(sets), Level.of(sets, g)):
        assert [tuple(z.tolist()) for z in level] == sets
        assert level.sizes().tolist() == [len(s) for s in sets]
        assert level.values().tolist() == [v for s in sets for v in s]
        # runs are maximal: within a node, each starts past the previous end + 1
        inner = np.ones(len(level.starts), dtype=bool)
        inner[level.offs[:-1][level.offs[:-1] < len(inner)]] = False
        assert np.all(level.starts[inner] > level.ends[np.flatnonzero(inner) - 1] + 1)
    assert Level.of(sets, g) == Level.of(sets)


_BOUND = st.builds(
    lambda base, delta: base + delta,
    st.sampled_from([0, 1 << 62, (1 << 63) - 2, 1 << 70]),
    st.integers(-300, 300),
)


@given(case=_step_sets(), lo=_BOUND, hi=_BOUND)
@settings(max_examples=150, deadline=None)
def test_level_cap_on_runs_matches_per_node_cap(case, lo, hi):
    sets, g = case
    expected = [cap(SumSet(s), lo, hi).values if lo <= hi else () for s in sets]
    for level in (Level.of(sets), Level.of(sets, g)):
        assert [tuple(z.tolist()) for z in level.cap(lo, hi)] == expected


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
        args = (t, mult * w, n, 0.3, 1)
        family = partition_groups(items, t, rng_stream(seed, "p1"))
        staged = build_group_sumsets(family, *args, rng_stream(seed, "p2"))
        params = (staged.params.rho, staged.params.g, *args, eta_mult)
        full_tail = merge_bounds(*params, 1.0, window)[2]
        budget_mult = (sum(items) // mult + 2) ** log_tail / full_tail
        got = merge_group_sumsets(
            staged, family, *args, rng_stream(seed, "p3"),
            eta_mult=eta_mult, budget_mult=budget_mult, window=window, checked=checked,
        )
        kind, ref = reference_merge(
            [tuple(s.tolist()) for s in staged.sets], family.group_sums().tolist(),
            staged.params.rho, staged.params.g, *args, rng_stream(seed, "p3"),
            eta_mult, budget_mult, window,
        )
        if kind == "root":
            assert got == SumSet(ref)
            outcomes.append(("root", len(ref) < len(subset_sums(items))))
        else:
            assert got == DenseEvidence(**ref)
            outcomes.append(("evidence", ref["level"]))

    check()
    assert ("root", True) in outcomes, "no example's caps removed a value"
    trip_levels = {level for kind, level in outcomes if kind == "evidence"}
    assert len(trip_levels) >= 2, "trips at fewer than two levels"


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


@given(inst=_divisor_instance())
@settings(max_examples=150, deadline=None)
def test_partition_instance_matches_per_item_reference(inst):
    part = partition_instance(inst)
    got = (part.divisor, part.leftover_part, part.residue_part, part.dense_part, part.alpha)
    assert got == reference_partition(inst.items, inst.target, inst.w)


def test_partition_groups_matches_list_reference():
    moved = []

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
        family = partition_groups(items, t, rng_stream(seed, "p1"))
        groups, raw, filled = reference_partition_groups(items, t, rng_stream(seed, "p1"))
        assert [tuple(g.tolist()) for g in family.groups] == list(groups)
        assert family.raw_count == raw
        assert family.group_sums().tolist() == [sum(g) for g in groups]
        moved.append(filled)

    check()
    assert any(moved), "no example moved an element into an empty bucket"


@st.composite
def _small_family(draw):
    """A power-of-two count of groups, each of up to six elements in
    [1, 12] (a quarter of them multiples of 3), some of them empty."""
    groups = []
    for _ in range(draw(st.sampled_from([1, 2, 4, 8]))):
        mult = draw(st.sampled_from([1, 1, 1, 3]))
        groups.append(tuple(mult * x for x in draw(st.lists(st.integers(1, 12), max_size=6))))
    return GroupFamily(Flat.of(groups), sum(1 for g in groups if g))


@given(family=_small_family(), n=st.integers(1, 3), log_tail=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stage_two_matches_materialized_reference(family, n, log_tail, seed):
    # the budget tail log-uniform from 1 to past the largest possible level
    # excess, so that trips fall at every level and some runs do not trip
    excess = colorcoding._max_level_excess(family)
    budget_mult = (excess + 2) ** log_tail / color_params(n, 10, 12, 0.9, 1).tail
    params = color_params(n, 10, 12, 0.9, 1, budget_mult)
    got = build_group_sumsets(family, 10, 12, n, 0.9, 1, rng_stream(seed, "p2"), budget_mult=budget_mult)
    groups = [g.tolist() for g in family.groups]
    ref = materialized_stage_two(groups, params.g, params.reps, params.tail, rng_stream(seed, "p2"))
    if ref[0] == "sets":
        assert got == GroupSumsets(Flat.of(ref[1]), params)
    else:
        assert got == DenseTripSignal(rho=params.rho, u_prime=params.u_prime, g=params.g, **ref[1])


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
        assert fallback_dp(items, t), "certified-path false positive"
