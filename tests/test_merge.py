import numpy as np
import pytest

from subsetsum import colorcoding, merge, solver
from subsetsum.cli import generate_instance
from subsetsum.core import InternalConsistencyError, SolverConfig, ceil_log2, rng_stream
from subsetsum.colorcoding import (
    GroupFamily,
    build_group_sumsets,
    color_params,
    partition_groups,
)
from subsetsum.merge import DenseEvidence, merge_group_sumsets
from subsetsum.colorcoding import GroupSumsets
from subsetsum.solver import solve
from subsetsum.sumset import FALLBACK_MAX_BITS, Flat, SumSet, cap, common_step

from oracles import ascending_family, merge_bounds, multiset, per_copy_subset_sums, subset_sums


def _pipeline_inputs(items, t, w, n, q, seed, budget_mult=1.0):
    fam = partition_groups(multiset(items), t, rng_stream(seed, "p1"))
    gs = build_group_sumsets(fam, t, w, n, q, rng_stream(seed, "p2"), budget_mult=budget_mult)
    return fam, gs


def test_single_pair_merge_keeps_joint_sum():
    fam = GroupFamily(Flat.of(((3,), (5,))), 2)
    params = color_params(2, 8, 5, 0.5)
    gs = GroupSumsets(Flat.of(((0, 3), (0, 5))), params)
    root = merge_group_sumsets(gs, fam, 8, 5, 2, 0.5, rng_stream(1, "p3"))
    assert isinstance(root, SumSet)
    # both group maxima combined survive the capping; the root keeps only
    # its values in [t - window, t]
    assert root.values.tolist() == [0, 3, 5, 8]


def test_merge_root_is_subset_of_true_sums():
    rng_data = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng_data.integers(4, 11))
        w = int(rng_data.integers(2, 20))
        items = [int(v) for v in rng_data.integers(1, w + 1, size=n)]
        t = max(1, (2 * sum(items)) // 4)
        seed = int(rng_data.integers(1 << 30))
        fam, gs = _pipeline_inputs(items, t, w, n, 0.25, seed)
        root = merge_group_sumsets(
            gs, fam, t, w, n, 0.25, rng_stream(seed, "p3")
        )
        assert isinstance(root, SumSet)
        assert set(root.values) <= set(subset_sums(items))


def test_merge_deterministic():
    items = [3, 5, 6, 7, 2, 4]
    fam, gs = _pipeline_inputs(items, 10, 8, 6, 0.3, 21)
    a = merge_group_sumsets(gs, fam, 10, 8, 6, 0.3, rng_stream(21, "p3"))
    b = merge_group_sumsets(gs, fam, 10, 8, 6, 0.3, rng_stream(21, "p3"))
    assert a == b


def test_merge_narrow_windows_can_empty_nodes():
    items = [3, 5, 6, 7, 2, 4]
    fam, gs = _pipeline_inputs(items, 10, 8, 6, 0.3, 2)
    root = merge_group_sumsets(
        gs, fam, 10, 8, 6, 0.3, rng_stream(2, "p3"), window=0, eta_mult=1e-12
    )
    assert isinstance(root, SumSet)
    # capping to +-2 around t/ell_h prunes hard; whatever survives is real
    assert set(root.values) <= set(subset_sums(items))


def test_collapse_is_bounded_by_the_dp_s_memory_cap(monkeypatch):
    # the trip and cap bounds allow the collapse for both families (checked
    # below), so exact sets collapse exactly when the DP's mask of
    # t // step + 1 bits fits in FALLBACK_MAX_BITS; past it the DP is not
    # called, so no mask is allocated.  Sets that are not exact take the
    # kernel, and both roots are the same
    calls = []
    _spy(monkeypatch, merge, "window_subset_sums", calls)
    far = [int(v) for v in np.random.default_rng(3).integers(2**40 - 2**20, 2**40, size=10)]
    for groups, collapses in (
        # ten singletons near 2**40 in 16 groups: t // step + 1 ~ 2**42 bits
        ([(x,) for x in far] + [()] * 6, False),
        # 31 groups (2, 2) and one singleton 12676, in units of the step 2:
        # a mask of 3,201 bits, although its 101 words outnumber the leaf
        # level's 95 values in units of the step
        ([(2, 2)] * 31 + [(12676,)], True),
    ):
        items = [x for grp in groups for x in grp]
        w, n, q, t = 1 << max(items).bit_length(), len(items), 0.3, sum(items) // 2
        params = color_params(n, t, w, q)
        family = GroupFamily(Flat.of(groups), sum(1 for grp in groups if grp))
        sets = Flat.of([subset_sums(grp) for grp in groups])
        # window = t: the root is returned on [0, t]
        eta, _, tail = merge_bounds(params.rho, params.g, t, w, n, q, 1.0, 1.0, t)
        assert sum(items) < tail and eta + 1 >= max(t, sum(items))
        assert (t // common_step(np.array(items)) + 1 <= FALLBACK_MAX_BITS) == collapses
        calls.clear()
        roots = [
            merge_group_sumsets(GroupSumsets(sets, params, exact), family, t, w, n, q, rng_stream(4, "p3"), window=t)
            for exact in (True, False)
        ]
        assert len(calls) == collapses
        assert roots[0] == roots[1] == SumSet(tuple(subset_sums(items, t)))


def test_merge_budget_trip_produces_checked_evidence():
    # mass-heavy instance so the weight lower bound 3t/2 holds
    items = [2] * 60 + [1] * 30
    t = 40
    fam, gs = _pipeline_inputs(items, t, 2, len(items), 0.3, 5)
    res = merge_group_sumsets(
        gs, fam, t, 2, len(items), 0.3, rng_stream(5, "p3"), budget_mult=1e-13
    )
    assert isinstance(res, DenseEvidence)
    assert res.source == "phase-three"
    assert res.trivial_sets + res.set_sizes.sum() >= res.threshold
    assert res.observed_total_size >= res.threshold
    # the weight recursion conserves the stage-two maxima sum
    assert sum(res.f_values) == sum(s.max() for s in gs.sets)
    assert 2 * sum(res.f_values) >= 3 * t


def test_merge_trip_at_deeper_levels_keeps_f_sum():
    items = [2] * 60 + [1] * 30
    t = 40
    fam, gs = _pipeline_inputs(items, t, 2, len(items), 0.3, 6)
    seen_levels = set()
    for mult in (1e-14, 1e-13, 3e-13, 5e-13):
        res = merge_group_sumsets(
            gs, fam, t, 2, len(items), 0.3, rng_stream(6, "p3"), budget_mult=mult
        )
        if isinstance(res, DenseEvidence):
            seen_levels.add(res.level)
            assert sum(res.f_values) == sum(s.max() for s in gs.sets)
    assert seen_levels, "expected at least one budget trip"


def test_evidence_rejects_bad_bookkeeping_on_construction():
    # every DenseEvidence passes its checks when constructed
    with pytest.raises(InternalConsistencyError, match="sizes below threshold"):
        DenseEvidence(
            "phase-three", t=10, rho=4, u_prime=100, level=1, threshold=50, observed_total_size=50,
            trivial_sets=0, set_sizes=[5, 5], f_values=[20, 20], sigma_values=[20, 20],
        )  # sizes sum 10 < threshold 50
    with pytest.raises(InternalConsistencyError, match="weight sum below 3t/2"):
        DenseEvidence(
            "phase-three", t=10, rho=4, u_prime=100, level=1, threshold=5, observed_total_size=5,
            trivial_sets=0, set_sizes=[5, 5], f_values=[2, 2], sigma_values=[2, 2],
        )  # weight sum 4 below 3t/2
    with pytest.raises(InternalConsistencyError, match="weight sum above rho"):
        DenseEvidence(
            "phase-three", t=10, rho=1, u_prime=100, level=1, threshold=5, observed_total_size=5,
            trivial_sets=0, set_sizes=[5, 5], f_values=[20, 20], sigma_values=[20, 20],
        )  # weight sum 40 above rho*t/2 = 5
    # per-node conditions: f <= subtree sum, and a computed node's maximum
    # <= f (the maxima cover a prefix of the nodes)
    valid = dict(
        source="phase-three", t=10, rho=4, u_prime=100, level=1, threshold=5,
        observed_total_size=5, trivial_sets=0, set_sizes=[5, 5], f_values=[10, 10],
    )
    with pytest.raises(InternalConsistencyError, match="positive density factor"):
        DenseEvidence(**{**valid, "rho": 0}, sigma_values=[10, 10])
    for sigma, maxes in (([10], None), ([10, 10, 10], None), ([10, 10], [10, 10, 10])):
        with pytest.raises(InternalConsistencyError, match="length mismatch"):
            DenseEvidence(**valid, sigma_values=sigma, max_values=maxes)
    with pytest.raises(InternalConsistencyError, match="length mismatch"):
        DenseEvidence(**{**valid, "f_values": [10, 10, 0]}, sigma_values=[10, 10])
    with pytest.raises(InternalConsistencyError, match="weight exceeds subtree sum"):
        DenseEvidence(**valid, sigma_values=[10, 9])
    with pytest.raises(InternalConsistencyError, match="set maximum exceeds weight"):
        DenseEvidence(**valid, sigma_values=[10, 10], max_values=[11])
    with pytest.raises(InternalConsistencyError, match="set maximum exceeds weight"):
        DenseEvidence(**valid, sigma_values=[10, 10], max_values=[10, 11])
    ev = DenseEvidence(**valid, sigma_values=[10, 10], max_values=[10])
    assert np.array_equal(ev.max_values, [10])
    # num_sets is derived: the trivial sets plus the retained ones
    assert ev.num_sets == 2
    assert DenseEvidence(**{**valid, "trivial_sets": 3}, sigma_values=[10, 10]).num_sets == 5
    with pytest.raises(TypeError):
        DenseEvidence(**valid, sigma_values=[10, 10], num_sets=2)
    # the stages pass int64 arrays, and the evidence holds them; lists are
    # read into int64 arrays
    arrays = {k: np.asarray(v) if isinstance(v, list) else v for k, v in valid.items()}
    got = DenseEvidence(**arrays, sigma_values=np.array([10, 10]), max_values=np.array([10]))
    assert got == ev
    for record in (got, ev):
        for values in (record.set_sizes, record.f_values, record.sigma_values, record.max_values):
            assert values.dtype == np.int64
    assert got != DenseEvidence(**arrays, sigma_values=np.array([10, 10]))
    with pytest.raises(InternalConsistencyError, match="weight exceeds subtree sum"):
        DenseEvidence(**arrays, sigma_values=np.array([10, 9]))


def test_checked_merge_rejects_an_exact_set_without_its_group_sum():
    # the merge takes an exact set's maximum to be its group's sum without
    # reading the set; checked mode reads the sets and compares
    groups = ((3, 5), (6,), (7, 2), (4,))
    family = ascending_family(groups, 4)
    params = color_params(6, 10, 8, 0.3)
    sets = [subset_sums(g) for g in groups]
    sets[2] = sets[2][:-1]  # lacks sigma = 9, as a never-complete group does
    staged = GroupSumsets(Flat.of(sets), params, True)
    with pytest.raises(InternalConsistencyError, match="maximum differs from its group's sum"):
        merge_group_sumsets(staged, family, 10, 8, 6, 0.3, rng_stream(1, "p3"), checked=True)
    assert isinstance(merge_group_sumsets(staged, family, 10, 8, 6, 0.3, rng_stream(1, "p3")), SumSet)
    staged = GroupSumsets(Flat.of([subset_sums(g) for g in groups]), params, True)
    assert isinstance(
        merge_group_sumsets(staged, family, 10, 8, 6, 0.3, rng_stream(1, "p3"), checked=True), SumSet
    )


def test_checked_merge_rejects_a_dp_root_unlike_the_kernel_s(monkeypatch):
    # these groups collapse the merge; checked mode also runs every level
    # through the kernel and compares the roots on the window
    groups = ((3, 5), (6,), (7, 2), (4,))
    family = ascending_family(groups, 4)
    params = color_params(6, 10, 8, 0.3)
    staged = GroupSumsets(Flat.of([subset_sums(g) for g in groups]), params, True)
    args = (staged, family, 10, 8, 6, 0.3)
    root = SumSet(tuple(subset_sums(sum(groups, ()), 10)))
    assert merge_group_sumsets(*args, rng_stream(1, "p3"), checked=True) == root
    dp = merge.window_subset_sums
    monkeypatch.setattr(merge, "window_subset_sums", lambda *a, **k: SumSet(dp(*a, **k).values[:-1]))
    assert 10 not in merge_group_sumsets(*args, rng_stream(1, "p3"))
    with pytest.raises(InternalConsistencyError, match="windowed subset-sum DP differs"):
        merge_group_sumsets(*args, rng_stream(1, "p3"), checked=True)


def _grouped_instance():
    # the `grouped` benchmark's t26000 shape: dense w=16, sigma ~ 10t, where
    # about a fifth of the groups hold several items and every one of them
    # completes, so stage two's sets are every group's full subset sums
    return generate_instance("dense", 30_588, 16, 5, t=26_000)


def _spy(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends (args, result) to calls."""
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, spy)


def _refuse_group_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("the group sets were built")

    monkeypatch.setattr(colorcoding, "_group_sets", refuse)


def test_default_sparse_solve_collapses_the_merge(monkeypatch):
    # at the paper's constants no merge level can cap or trip, so the root
    # is one windowed DP over the dense part's multiset: no level kernel, no
    # group set
    _refuse_group_sets(monkeypatch)
    families, dps, levels = [], [], []
    _spy(monkeypatch, solver, "partition_groups", families)
    _spy(monkeypatch, merge, "window_subset_sums", dps)
    _spy(monkeypatch, merge, "_pair_level", levels)
    inst = _grouped_instance()
    out = solve(inst, SolverConfig(seed=3))
    assert out.branch == "sparse" and out.decision
    ((_, family),) = families
    ((args, root),) = dps
    t, lo = inst.target, max(inst.target - out.report.window, 0)
    assert args[0] is family.multiset and args[1:] == (lo, t)
    assert levels == []
    # the root in the window, against every copy added as its own 0/1 item
    whole = per_copy_subset_sums(family.groups.vals.tolist(), t)
    assert root == cap(SumSet(whole), lo, t) and len(root) > 0


def test_sparse_window_solve_collapses_the_merge(monkeypatch):
    # a `sparse-window` instance: a sparse D of large items, whose DP row of
    # sigma(D) / step bits takes more words than the leaf level has values.
    # No level can cap or trip, so the merge is still one windowed DP and no
    # kernel level; checked mode also runs every level through the kernel
    # and gives the same outputs
    families, dps, levels = [], [], []
    _spy(monkeypatch, solver, "partition_groups", families)
    _spy(monkeypatch, merge, "window_subset_sums", dps)
    _spy(monkeypatch, merge, "_pair_level", levels)
    inst = generate_instance("sparse-window", 16340, 256, 1)
    out = solve(inst, SolverConfig(seed=1))
    assert out.branch == "sparse"
    assert len(dps) == 1 and levels == []
    checked = solve(inst, SolverConfig(seed=1, checked_mode=True))
    ((_, family), _) = families
    assert len(dps) == 2 and len(levels) == ceil_log2(family.ell)
    outputs = ("decision", "branch", "candidate_set_size", "report")
    assert [getattr(checked, k) for k in outputs] == [getattr(out, k) for k in outputs]


def test_narrow_caps_send_every_merge_level_through_the_kernel(monkeypatch):
    # eta_mult = 1e-9 narrows the caps of the upper levels, so the merge
    # cannot collapse: every level, one kernel call each, goes through the
    # kernel, and the windowed DP is not called from the merge
    families, dps, levels = [], [], []
    _spy(monkeypatch, solver, "partition_groups", families)
    _spy(monkeypatch, merge, "window_subset_sums", dps)
    _spy(monkeypatch, merge, "_pair_level", levels)
    inst = _grouped_instance()
    out = solve(inst, SolverConfig(seed=3, eta_mult=1e-9))
    assert out.branch == "sparse" and out.decision
    ((_, family),) = families
    assert dps == [] and len(levels) == ceil_log2(family.ell)
    checked = solve(inst, SolverConfig(seed=3, eta_mult=1e-9, checked_mode=True))
    outputs = ("decision", "branch", "candidate_set_size", "report")
    assert [getattr(checked, k) for k in outputs] == [getattr(out, k) for k in outputs]


def test_checked_solve_builds_every_group_s_full_subset_sums(monkeypatch):
    built = []
    _spy(monkeypatch, colorcoding, "_group_sets", built)
    inst = _grouped_instance()
    checked = solve(inst, SolverConfig(seed=3, checked_mode=True))
    (((family, _, open_groups, _), sets),) = built
    assert open_groups.size == 0
    assert [s.tolist() for s in sets] == [subset_sums(g.tolist()) for g in family.groups]
    unchecked = solve(inst, SolverConfig(seed=3))
    assert len(built) == 1
    outputs = ("decision", "branch", "candidate_set_size", "report")
    assert [getattr(checked, k) for k in outputs] == [getattr(unchecked, k) for k in outputs]

