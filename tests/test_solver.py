import math
import tracemalloc

import numpy as np
import pytest

from subsetsum import colorcoding, merge, solver, sumset
from subsetsum.cli import generate_instance
from subsetsum.colorcoding import GroupFamily
from subsetsum.core import Instance, OracleBudgetError, SolverConfig, normalize, rng_stream
from subsetsum.merge import DenseEvidence
from subsetsum.structure import partition_instance
from subsetsum.solver import (
    bounded_subset_sums,
    dense_interval_set,
    fallback_dp,
    small_target_gate,
    solve,
    solve_d_window,
)
from subsetsum.sumset import SumSet, dense_sumset

from oracles import bitset_dp_table, brute_force, multiset, per_item_dp, subset_sum_decision, subset_sums


def test_bounded_subset_sums_examples():
    assert bounded_subset_sums(multiset((3, 5, 8)), 16).values.tolist() == [0, 3, 5, 8, 11, 13, 16]
    assert bounded_subset_sums(multiset(()), 10).values.tolist() == [0]
    assert bounded_subset_sums(multiset((2, 2)), 4).values.tolist() == [0, 2, 4]


def test_bounded_subset_sums_random_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(0, 14))
        items = [int(v) for v in rng.integers(1, 50, size=n)]
        cap = int(rng.integers(0, 200))
        assert bounded_subset_sums(multiset(items), cap).values.tolist() == subset_sums(items, cap)


def test_fallback_dp_examples():
    assert not fallback_dp(multiset((1, 2, 5)), 4)
    assert fallback_dp(multiset((1, 2, 5)), 8)


def test_dp_variants_agree_with_bruteforce():
    rng = np.random.default_rng(14)
    for _ in range(120):
        n = int(rng.integers(1, 18))
        items = tuple(int(v) for v in rng.integers(1, 60, size=n))
        t = int(rng.integers(0, sum(items) + 2))
        expected = brute_force(Instance(items, t))
        assert fallback_dp(multiset(items), t) == expected
        assert per_item_dp(items, t) == expected
        assert bitset_dp_table(items, t) == expected
        assert subset_sum_decision(items, t) == expected


def test_brute_force_meet_in_middle_path():
    rng = np.random.default_rng(15)
    items = tuple(int(v) for v in rng.integers(1, 30, size=23))
    for t in (0, 17, sum(items) // 2, sum(items)):
        assert brute_force(Instance(items, t)) == subset_sum_decision(items, t)


def test_oracle_budgets():
    # a target above every subset sum is a no before any budget: the DP's
    # mask is cut at the sum of the values
    assert fallback_dp(multiset((5,)), 10**12) is False
    # sums that do pass the bound: a mask of 2**40 + 1 bits is refused
    with pytest.raises(OracleBudgetError):
        fallback_dp(([1, 2**40], [1, 1]), 2**40)
    with pytest.raises(OracleBudgetError):
        brute_force(Instance(tuple([1] * 26), 3))


def test_the_window_dp_cuts_its_mask_at_the_reachable_sums():
    # each window lies 2**40 bits or more above the largest reachable sum,
    # which cuts the mask, so no bit of the window is built
    assert bounded_subset_sums(([], []), 2**40).values.tolist() == [0]
    assert sumset.window_subset_sums(([], []), 2**62 - 1101, 2**62 - 1101).is_empty
    # a mask that the reachable sums do take past FALLBACK_MAX_BITS is
    # refused before it is built
    with pytest.raises(OracleBudgetError):
        bounded_subset_sums(([1, 2**40], [1, 1]), 2**41)


def test_an_interval_of_sums_is_one_run():
    # the sums of 10**7 ones are the interval [0, 10**7]: the DP returns it
    # as one run, and neither it nor len or in builds an array of values
    # (an int64 array of them is 80 MB)
    tracemalloc.start()
    try:
        sums = bounded_subset_sums(([1], [10**7]), 10**7)
        size, member = len(sums), 10**7 in sums
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert size == 10**7 + 1 and member and (sums.min(), sums.max()) == (0, 10**7)


def test_the_window_dp_reads_step_only_with_a_start():
    # without a start the unit is the values' gcd
    assert sumset.window_subset_sums(([2, 4], [1, 1]), 0, 10).values.tolist() == [0, 2, 4, 6]
    # with one, the unit is the gcd of the values and the start's own step,
    # which divides every start value: {1, 4} has step 1, so the odd sums
    # of 1 + {0, 2} and the even ones of 4 + {0, 2} are all kept (a step of
    # 2 passed by hand used to give [1, 3, 5])
    start = SumSet([1, 4])
    assert start.node.step == 1
    got = sumset.window_subset_sums(([2], [1]), 0, 20, start=start)
    assert got.values.tolist() == [1, 3, 4, 6]
    got = sumset.window_subset_sums(([2, 4], [1, 1]), 0, 20, start=start)
    assert got.values.tolist() == [1, 3, 4, 5, 6, 7, 8, 10]
    # the step is no parameter any more
    with pytest.raises(TypeError):
        sumset.window_subset_sums(([2], [1]), 0, 20, step=2, start=start)


def test_fallback_dp_decides_a_target_the_gcd_does_not_divide_before_its_budget():
    # every item is even and t odd, so the gcd alone says no, although
    # t + 1 is far past FALLBACK_MAX_BITS; the budget counts the mask's
    # t // gcd + 1 bits
    inst = Instance([2**32 + 2 * i for i in range(8)], 2**33 + 1)
    assert fallback_dp(inst.multiset, inst.target) is False
    out = solve(inst)
    assert out.branch == "fallback-dp" and out.decision is False
    # in units of the gcd 2 the mask is 2**32 + 1 bits, still past it
    with pytest.raises(OracleBudgetError):
        fallback_dp(inst.multiset, 2**33)


@pytest.mark.parametrize(
    "bad",
    [
        ([1, 2, 4], [1]),  # one count for three values: read as {1}
        ([-1], [1]),  # a negative value: read as no sums at all
        ([0, 3], [1, 1]),
        ([5], [-2]),  # a negative count: numpy's "negative shift count"
        ([5], [0]),
        ([], [1]),
    ],
)
def test_the_window_dp_refuses_a_malformed_multiset(bad):
    with pytest.raises(ValueError, match="one count per value"):
        bounded_subset_sums(bad, 10)
    with pytest.raises(ValueError, match="one count per value"):
        sumset.window_subset_sums(bad, 0, 10, start=SumSet([0, 7]))
    # neither a negative t nor a t that the values' gcd does not divide (7
    # against 2 and 4, below) returns before the check
    for t in (-1, 7, 10):
        with pytest.raises(ValueError, match="one count per value"):
            fallback_dp(bad, t)
    with pytest.raises(ValueError, match="one count per value"):
        fallback_dp(([2, 4], [1]), 7)


def test_solve_astronomical_target_refuses_cleanly():
    # any nontrivial target with 2**52-scale items is beyond every
    # pseudo-polynomial budget; the refusal must be a clear error
    big = tuple(2**52 + i for i in range(40))
    with pytest.raises(OracleBudgetError):
        solve(Instance(big, sum(big[:7])))


def test_small_target_gate_form():
    assert small_target_gate(199, 2)
    assert not small_target_gate(200, 2)
    assert small_target_gate(10**6, 1024)
    assert small_target_gate(5, 1)


def test_dense_interval_set_examples():
    s = dense_interval_set(1, 100, 2)
    # width floor(sqrt(200) * 1) = 14
    assert s.values.tolist() == list(range(86, 101))
    s3 = dense_interval_set(3, 100, 2)
    assert all(v % 3 == 0 for v in s3.values)
    assert s3.max() <= 100 and s3.min() >= 86
    assert dense_interval_set(7, 20, 4).values.tolist() == [7, 14]
    # a divisor past 2**53 keeps the last multiple (the width here reaches 0)
    d = 1 << 55
    assert dense_interval_set(d, 3 * d + 5, 2 * d).values.tolist() == [0, d, 2 * d, 3 * d]


def test_solve_trivial_examples():
    assert solve(Instance((3, 5, 8), 8)).decision
    assert not solve(Instance((2, 4, 6), 5)).decision
    out = solve(Instance((3, 5), 9))
    assert not out.decision and out.branch == "trivial"
    assert solve(Instance((3, 5), 0)).decision
    assert solve(Instance((3, 5), 8)).branch == "trivial"  # t == sigma
    assert solve(Instance((), 0)).decision


def test_solve_all_ones():
    out = solve(Instance((1,) * 50, 20))
    assert out.decision and out.branch == "fallback-dp"
    assert not solve(Instance((1,) * 50, 51)).decision


def test_solve_random_sweep_matches_oracle():
    rng = np.random.default_rng(16)
    cfg = SolverConfig(seed=77)
    for _ in range(800):
        n = int(rng.integers(1, 15))
        w = int(rng.integers(1, 41))
        items = tuple(int(v) for v in rng.integers(1, w + 1, size=n))
        t = int(rng.integers(0, sum(items) + 1))
        out = solve(Instance(items, t), cfg)
        assert out.decision == subset_sum_decision(items, t)


def _pipeline_instance(seed, n_extra=260):
    rng = rng_stream(seed, "make-instance")
    witness = [2] * 60 + [1] * 80
    filler = [int(v) for v in rng.integers(1, 3, size=n_extra)]
    return Instance(tuple(witness + filler), 200)


def test_solve_pipeline_yes_instance():
    inst = _pipeline_instance(31)
    out = solve(inst, SolverConfig(seed=3, error_q=0.01))
    assert out.branch == "sparse"
    assert out.decision
    assert out.report.s_d_size >= 1
    assert out.candidate_set_size >= 1


def test_solve_pipeline_no_instance_all_even():
    # every item even, odd target: certified path must never answer yes
    # (pipeline-sized: 10,000 items 2 * U[1, 8])
    rng = rng_stream(8, "even")
    items = tuple(2 * int(v) for v in rng.integers(1, 9, size=10_000))
    inst = Instance(items, 30_001)
    for seed in range(10):
        out = solve(inst, SolverConfig(seed=seed, error_q=0.01))
        assert out.branch == "sparse" and not out.decision


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "profile,n,w,t,budget_mult,branch",
    [
        ("uniform", 10_588, 16, 30_000, 1.0, "sparse"),
        ("dense", 12_000, 8, None, 1e-11, "dense"),
        ("divisor-structured", 10_000, 16, 30_001, 1.0, "sparse"),
        ("divisor-structured", 12_000, 8, None, 1e-11, "dense"),
        ("all-even", 20_000, 16, 60_001, 1.0, "sparse"),
    ],
)
def test_combine_matches_the_sumset_chain_at_pipeline_size(monkeypatch, profile, n, w, t, budget_mult, branch, seed):
    # the `sparse-ladder` yes-t30000 and `dense-trip` n12000-w8 shapes, whose
    # leftover part is empty, and the same sizes with two items off the
    # divisor 6, which form a leftover part: the combine's one DP, started
    # from S_D or from the dense interval, gives the candidate set of the
    # pairwise sumset chain over the parts.  "all-even" is the
    # `sparse-ladder` no-t60001 shape (divisor-structured with divisor 2
    # and no strays), whose combine starts from S_D in its own step 2
    if profile == "all-even":
        inst = generate_instance("divisor-structured", n, w, seed, t=t, divisor=2, tail=0)
    else:
        inst = generate_instance(profile, n, w, seed, t=t)
    config = SolverConfig(seed=seed, budget_mult=budget_mult)
    steps = []
    dp = solver.window_subset_sums

    def spy(multiset, lo, hi, start=None):
        if start is not None:
            steps.append(start.node.step)
        return dp(multiset, lo, hi, start)

    monkeypatch.setattr(solver, "window_subset_sums", spy)
    out = solve(inst, config)
    assert out.branch == branch and len(steps) == 1
    if profile == "all-even":
        assert steps == [2] and not out.decision
    assert (out.report.sigma_g > 0) == (profile == "divisor-structured")
    inst = normalize(inst).instance
    t, w, part = inst.target, inst.w, partition_instance(inst)
    s_g = bounded_subset_sums(part.leftover_multiset, int(part.leftover_part.sum()))
    if branch == "dense":
        chain = dense_sumset(s_g, dense_interval_set(part.divisor, t, w))
    else:
        s_r = bounded_subset_sums(part.residue_multiset, int(part.residue_part.sum()))
        s_d = solve_d_window(part.dense_multiset, t, w, inst.n, config, out.report.window)
        chain = dense_sumset(dense_sumset(s_g, s_r), s_d)
    assert out.candidate_set_size == len(chain) > 0
    assert out.decision == (t in chain)


def test_collapsing_solve_reads_no_excess_and_no_group_sums(monkeypatch):
    # the `sparse-ladder` yes-t30000 shape: the budget tail exceeds
    # sigma(D), so stage two takes the unbudgeted path with no excess scan,
    # and the collapsing merge takes sigma(D) from the items, so no group's
    # sum is ever built
    calls = []
    excess, unbudgeted = colorcoding._max_level_excess, colorcoding._unbudgeted_sumsets
    group_sums = GroupFamily.__dict__["group_sums"].func
    for name, real in (("_max_level_excess", excess), ("_unbudgeted_sumsets", unbudgeted)):
        monkeypatch.setattr(colorcoding, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    monkeypatch.setattr(GroupFamily, "group_sums", property(lambda f: calls.append("group_sums") or group_sums(f)))
    out = solve(generate_instance("uniform", 10_588, 16, 1, t=30_000), SolverConfig(seed=1))
    assert out.branch == "sparse" and out.decision
    assert calls == ["_unbudgeted_sumsets"]


def test_solve_d_window_subset_and_coverage():
    items = (1, 2, 3, 4, 5, 6, 7, 9, 11, 13)
    t, w, n = 30, 13, 10
    q = 0.2
    window = 20
    achievable = [s for s in subset_sums(items) if t - window <= s <= t]
    truth = set(subset_sums(items))
    misses = {s: 0 for s in achievable}
    seeds = 200
    for seed in range(seeds):
        cfg = SolverConfig(seed=seed, error_q=q)
        res = solve_d_window(multiset(items), t, w, n, cfg, window)
        assert isinstance(res, SumSet)
        assert set(res.values) <= truth
        assert all(t - window <= v <= t for v in res.values)
        for s in achievable:
            if s not in res:
                misses[s] += 1
    stderr = math.sqrt(3 * q * (1 - 3 * q) / seeds)
    worst = max(misses.values()) / seeds
    assert worst <= 3 * q + 3 * stderr, f"worst window miss rate {worst}"


def test_solve_dense_branch_checked_agreement():
    rng = rng_stream(9, "dense-profile")
    items = tuple(int(v) for v in rng.integers(1, 3, size=1200))
    t = max(sum(items) // 4, 201)
    inst = Instance(items, t)
    cfg = SolverConfig(seed=11, error_q=0.01, budget_mult=1e-12, checked_mode=True)
    out = solve(inst, cfg)
    assert out.branch == "dense"
    assert isinstance(out.dense_evidence, DenseEvidence)
    assert out.report.checked_disagreement is False
    assert out.decision == per_item_dp(inst.items, inst.target)


def test_checked_mode_cross_checks_a_dense_solve_above_n_times_t():
    # n * (t + 1) is 1.6e8, over the oracle budget, but the exact DP pays
    # per distinct value (8 here), so checked mode runs it
    inst = generate_instance("dense", 12_000, 8, 1)
    assert inst.n * (inst.target + 1) > solver.CHECKED_ORACLE_BUDGET
    out = solve(inst, SolverConfig(seed=1, budget_mult=1e-11, checked_mode=True))
    assert out.branch == "dense"
    assert out.report.checked_disagreement is False


def test_solve_trips_in_the_merge_with_checkable_evidence():
    # caps narrowed by eta_mult and a budget that stage two stays under:
    # the merge tree trips, and its evidence holds the computed nodes' maxima
    inst = generate_instance("uniform", 10_588, 16, 1, t=30_000)
    out = solve(inst, SolverConfig(seed=1, eta_mult=1e-12, budget_mult=5e-10, checked_mode=True))
    ev = out.dense_evidence
    assert out.branch == "dense" and ev.source == "phase-three"
    for values in (ev.set_sizes, ev.f_values, ev.sigma_values, ev.max_values):
        assert values.dtype == np.int64
    assert len(ev.max_values) <= ev.num_sets == len(ev.set_sizes) + ev.trivial_sets
    assert out.report.checked_disagreement is False
    assert out.decision == per_item_dp(inst.items, inst.target)


def test_solve_outcome_follows_the_branch_taken():
    # both branches share one combine: the outcome's branch, its dense
    # evidence and the report's start-set size follow the branch taken
    sparse_inst = _pipeline_instance(31)
    rng = rng_stream(9, "dense-profile")
    items = tuple(int(v) for v in rng.integers(1, 3, size=1200))
    dense_inst = Instance(items, max(sum(items) // 4, 201))
    sparse = solve(sparse_inst, SolverConfig(seed=3, error_q=0.01, checked_mode=True))
    dense = solve(dense_inst, SolverConfig(seed=11, error_q=0.01, budget_mult=1e-12))
    assert sparse.branch == sparse.report.branch == "sparse"
    assert sparse.dense_evidence is None
    assert sparse.report.s_d_size >= 1 and sparse.report.s_rd_size == 0
    assert sparse.report.checked_disagreement is None
    assert dense.branch == dense.report.branch == "dense"
    assert isinstance(dense.dense_evidence, DenseEvidence)
    assert dense.report.s_rd_size >= 1 and dense.report.s_d_size == 0
    assert dense.report.checked_disagreement is None
    for inst, out in ((sparse_inst, sparse), (dense_inst, dense)):
        assert out.candidate_set_size >= 1
        assert out.decision == per_item_dp(inst.items, inst.target)


def test_solve_dense_branch_interval_is_achievable():
    rng = rng_stream(10, "dense-profile")
    items = tuple(int(v) for v in rng.integers(1, 3, size=1200))
    t = max(sum(items) // 4, 201)
    inst = Instance(items, t)
    cfg = SolverConfig(seed=4, error_q=0.01, budget_mult=1e-12)
    out = solve(inst, cfg)
    assert out.branch == "dense"
    # on this profile the interval claim is exact: every multiple of the
    # divisor in the window really is a subset sum of the full instance
    s_rd = dense_interval_set(out.report.divisor, inst.target, inst.w)
    truth = set(subset_sums(items, inst.target))
    assert set(s_rd.values) <= truth


def test_solve_deterministic_given_seed():
    inst = _pipeline_instance(77)
    cfg = SolverConfig(seed=5, error_q=0.01)
    a = solve(inst, cfg)
    b = solve(inst, cfg)
    assert (a.decision, a.branch, a.candidate_set_size) == (
        b.decision,
        b.branch,
        b.candidate_set_size,
    )


def test_solve_unchanged_when_hull_split(monkeypatch, fft_hulls):
    # a lowered FFT hull limit sends the merge tree's wide pairs with many
    # runs through the split path; every answer and report must stay the
    # same.  Items from the top eighth of [1, 16] keep the merge's sums
    # sparse for several levels, so its pairs are not yet runs.  Checked
    # mode runs every merge level through the kernel: unchecked, this
    # merge computes its root as one bitset and sums no pair.
    inst = generate_instance("sparse-window", 4000, 16, seed=5)
    cfg = SolverConfig(seed=5, checked_mode=True)
    in_merge, merge_splits = [False], [0]
    pair_level, split_pair = merge._pair_level, sumset._split_pair

    def level_spy(*args):
        in_merge[0] = True
        try:
            return pair_level(*args)
        finally:
            in_merge[0] = False

    def split_spy(level, i):
        merge_splits[0] += in_merge[0]
        return split_pair(level, i)

    monkeypatch.setattr(merge, "_pair_level", level_spy)
    monkeypatch.setattr(sumset, "_split_pair", split_spy)
    full = solve(inst, cfg)
    limit = 1 << 9
    assert full.branch == "sparse" and max(fft_hulls) > limit and merge_splits[0] == 0
    fft_hulls.clear()
    monkeypatch.setattr(sumset, "HULL_FFT_LIMIT", limit)
    split = solve(inst, cfg)
    assert max(fft_hulls) <= limit and merge_splits[0] > 0
    assert (split.decision, split.candidate_set_size, split.report) == (
        full.decision,
        full.candidate_set_size,
        full.report,
    )


def test_solve_fallback_only_flag():
    inst = _pipeline_instance(12)
    out = solve(inst, SolverConfig(seed=1, fallback_only=True))
    assert out.branch == "fallback-dp"
    assert out.decision


def test_divisor_structured_instance_end_to_end():
    items = tuple([9] * 30 + [5, 7])
    t = sum(items) // 2
    out = solve(Instance(items, t), SolverConfig(seed=2))
    assert out.branch in ("fallback-dp", "sparse", "dense")
    assert out.decision == subset_sum_decision(items, t)


def test_pipeline_regime_random_soundness_sweep():
    # random instances large enough to take the sparse branch; the
    # oracle check makes the one-sided-error claim face real adversaries
    rng = np.random.default_rng(99)
    sparse_seen = 0
    for i in range(120):
        w = int(rng.integers(2, 4))
        gate = 100 * w * max((w - 1).bit_length(), 1) ** 2
        t = int(gate * (1 + rng.random()))
        n = int((2.2 + rng.random()) * t / ((1 + w) / 2))
        items = tuple(int(v) for v in rng.integers(1, w + 1, size=n))
        if sum(items) < 2 * t:
            continue
        inst = Instance(items, t)
        out = solve(inst, SolverConfig(seed=i, error_q=0.01))
        truth = per_item_dp(items, t)
        if out.branch == "sparse":
            sparse_seen += 1
            if out.decision:
                assert truth, "certified-path false positive"
        assert out.decision == truth  # misses are possible but ~never at q=0.01
    assert sparse_seen >= 80


def test_sparse_miss_rate_stays_under_five_q():
    # the one-sided error contract at pipeline size with a large q: a
    # sparse yes is never wrong, and yes-instances are missed at most at
    # rate 5q, up to a one-sided binomial bound that a faithful solver
    # exceeds with probability below 1e-6
    q, trials, n, w, t = 0.1, 200, 2400, 4, 2000
    assert not small_target_gate(t, w)
    sparse = misses = 0
    for seed in range(trials):
        inst = generate_instance("uniform", n, w, seed, t=t)
        assert per_item_dp(inst.items, inst.target), "not a yes-instance"
        out = solve(inst, SolverConfig(seed=seed, error_q=q))
        if out.branch == "sparse":
            sparse += 1
            misses += not out.decision
    assert sparse >= 0.9 * trials, f"only {sparse} of {trials} solves took the sparse branch"
    p = 5 * q

    def tail(k):  # P[Bin(sparse, p) >= k]
        return sum(math.comb(sparse, i) * p**i * (1 - p) ** (sparse - i) for i in range(k, sparse + 1))

    bound = next(k for k in range(sparse + 2) if tail(k) <= 1e-6)
    assert misses < bound, f"{misses} misses of {sparse} sparse solves"


def _stage_peaks(monkeypatch, names):
    """Wrap each of the solver's stage names so that every call appends
    (name, traced peak bytes above the call's start, result) to the list
    returned; tracemalloc must be running."""
    import tracemalloc

    peaks = []

    def wrap(name, fn):
        def traced(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peaks.append((name, tracemalloc.get_traced_memory()[1] - start, result))
            return result

        return traced

    for name in names:
        monkeypatch.setattr(solver, name, wrap(name, getattr(solver, name)))
    return peaks


def _stream_labels(monkeypatch):
    """The labels of the streams `solve` creates, in order."""
    labels = []
    make = solver.rng_stream
    monkeypatch.setattr(solver, "rng_stream", lambda seed, label: labels.append(label) or make(seed, label))
    return labels


def test_sparse_ladder_solve_builds_no_item_sized_array_and_no_stream(monkeypatch):
    # uniform w=16, t=120,000 (the largest `sparse-ladder` yes shape): no
    # layer is drawn, every group is a singleton and the merge collapses,
    # so after construction the solve works on the 16 distinct values.
    # Each stage's traced peak stays below an int64 array of n/2 items;
    # the merge and the combine's DP may also hold their windowed sets
    # (at most window + 1 values each, ~27.7k here: a range, its SumSet
    # copy and the copy's order check)
    import tracemalloc

    inst = generate_instance("uniform", 42_352, 16, 1, t=120_000)
    config = SolverConfig(seed=1)
    want = solve(inst, config)
    labels = _stream_labels(monkeypatch)
    stages = ("partition_instance", "bounded_subset_sums", "partition_groups", "build_group_sumsets")
    windowed = ("merge_group_sumsets", "window_subset_sums")
    peaks = _stage_peaks(monkeypatch, stages + windowed)
    tracemalloc.start()
    try:
        out = solve(inst, config)
    finally:
        tracemalloc.stop()
    assert (out.decision, out.branch, out.candidate_set_size, out.report) == (
        want.decision, want.branch, want.candidate_set_size, want.report,
    )
    assert out.branch == "sparse" and labels == []
    assert sorted({name for name, _, _ in peaks}) == sorted(stages + windowed)
    items = 8 * (inst.n // 2)
    for name, peak, result in peaks:
        allowed = items + (3 * 8 * (out.report.window + 1) if name in windowed else 0)
        assert peak < allowed, (name, peak, allowed)


def test_drawn_solve_creates_the_phase_one_and_two_streams_in_order(monkeypatch):
    # the `grouped` t26000 shape: stage one draws its layers and stage two
    # its repetitions, and the merge collapses without drawing its
    # permutation; checked mode draws it too
    inst = generate_instance("dense", 30_588, 16, 5, t=26_000)
    labels = _stream_labels(monkeypatch)
    out = solve(inst, SolverConfig(seed=3))
    assert out.branch == "sparse" and labels == ["phase1", "phase2"]
    labels.clear()
    solve(inst, SolverConfig(seed=3, checked_mode=True))
    assert labels == ["phase1", "phase2", "phase3"]


def test_unchecked_grouped_solve_places_no_item(monkeypatch):
    # the `grouped` t30000 shape: stage one draws its layers, every group
    # completes and the merge collapses, so an unchecked solve reads only
    # the family's sizes and multiset and never places the drawn items;
    # checked mode verifies the groups, so it places them, and its report
    # is the same
    inst = generate_instance("dense", 35_294, 16, 1, t=30_000)
    families = []
    partition = solver.partition_groups
    monkeypatch.setattr(solver, "partition_groups", lambda *a, **k: families.append(partition(*a, **k)) or families[-1])
    place = colorcoding._place
    monkeypatch.setattr(colorcoding, "_place", lambda *a: pytest.fail("an unchecked solve placed items"))
    out = solve(inst, SolverConfig(seed=1))
    (family,) = families
    assert out.branch == "sparse" and family.largest > 1 and family._layers
    placed = []
    monkeypatch.setattr(colorcoding, "_place", lambda *a: placed.append(a) or place(*a))
    checked = solve(inst, SolverConfig(seed=1, checked_mode=True))
    assert len(placed) == 1
    assert (out.decision, out.branch, out.candidate_set_size, out.report) == (
        checked.decision, checked.branch, checked.candidate_set_size, checked.report,
    )
