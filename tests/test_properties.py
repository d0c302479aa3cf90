"""Hypothesis property tests: the sumset kernels against the pairwise
oracle on every dispatch path, the level kernel on levels built from
runs, and `solve` on pipeline-sized instances."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsum import sumset
from subsetsum.core import Instance, SolverConfig, SumSet, ceil_log2
from subsetsum.solver import fallback_dp, small_target_gate, solve
from subsetsum.sumset import PAIRWISE_LIMIT, DenseSignal, Level, _pair_level, cap, dense_sumset

from oracles import pairwise_sumset


def _values(draw, size):
    return tuple(sorted(draw(st.lists(st.integers(0, 6000), min_size=size, max_size=size, unique=True))))


@st.composite
def _kernel_case(draw):
    """(a, b, path, hull limit): sizes and limit chosen so that the
    dispatcher takes `path`."""
    path = draw(st.sampled_from(["pairwise", "fft", "split"]))
    if path == "pairwise":
        a, b = _values(draw, draw(st.integers(1, 40))), _values(draw, draw(st.integers(1, 40)))
    else:
        a, b = _values(draw, draw(st.integers(50, 90))), _values(draw, draw(st.integers(50, 90)))
    hull = (a[-1] - a[0]) + (b[-1] - b[0]) + 1
    limit = sumset.HULL_FFT_LIMIT
    if path == "split":
        limit = draw(st.integers(1, hull - 1))
    return a, b, path, limit


@given(case=_kernel_case(), bounds=st.tuples(st.integers(-10, 13000), st.integers(-10, 13000)))
@settings(max_examples=60, deadline=None)
def test_dense_sumset_and_cap_match_oracle(case, bounds):
    a, b, path, limit = case
    calls, hulls = [], []
    sum_values, fft = sumset._sum_values, sumset._fft_values

    def sum_spy(x, y):
        calls.append(1)
        return sum_values(x, y)

    def fft_spy(x, y):
        hulls.append((x[-1] - x[0]) + (y[-1] - y[0]) + 1)
        return fft(x, y)

    with mock.patch.multiple(sumset, HULL_FFT_LIMIT=limit, _sum_values=sum_spy, _fft_values=fft_spy):
        got = dense_sumset(SumSet(a), SumSet(b))
    expected = tuple(pairwise_sumset(a, b))
    assert got.values == expected
    if path == "pairwise":
        assert len(a) * len(b) <= PAIRWISE_LIMIT and (len(calls), len(hulls)) == (1, 0)
    elif path == "fft":
        assert (len(calls), len(hulls)) == (1, 1)
    else:
        assert len(calls) >= 3 and all(h <= limit for h in hulls)
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
    out, signal = _pair_level(Level.of(sets), budget, step)
    assert signal == expected_signal
    assert [tuple(z.tolist()) for z in out] == full[: stop + 1]


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
