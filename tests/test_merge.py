import numpy as np
import pytest

from subsetsum.core import InternalConsistencyError, SumSet, rng_stream
from subsetsum.colorcoding import (
    GroupFamily,
    build_group_sumsets,
    color_params,
    partition_groups,
)
from subsetsum.merge import (
    DenseEvidence,
    assemble_dense_evidence,
    merge_group_sumsets,
    select_ap_generators,
)
from subsetsum import merge
from subsetsum.colorcoding import GroupSumsets
from subsetsum.sumset import Flat

from oracles import merge_bounds, subset_sums


def _pipeline_inputs(items, t, w, n, q, seed, budget_mult=1.0):
    fam = partition_groups(items, t, rng_stream(seed, "p1"))
    gs = build_group_sumsets(fam, t, w, n, q, 1, rng_stream(seed, "p2"), budget_mult=budget_mult)
    return fam, gs


def test_single_pair_merge_keeps_joint_sum():
    fam = GroupFamily(Flat.of(((3,), (5,))), 2)
    params = color_params(2, 5, 5, 0.5, 1)
    gs = GroupSumsets(Flat.of(((0, 3), (0, 5))), params)
    root = merge_group_sumsets(gs, fam, 5, 5, 2, 0.5, 1, rng_stream(1, "p3"))
    assert isinstance(root, SumSet)
    assert 8 in root  # both group maxima combined survive the capping


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
            gs, fam, t, w, n, 0.25, 1, rng_stream(seed, "p3")
        )
        assert isinstance(root, SumSet)
        assert set(root.values) <= set(subset_sums(items))


def test_merge_deterministic():
    items = [3, 5, 6, 7, 2, 4]
    fam, gs = _pipeline_inputs(items, 10, 8, 6, 0.3, 21)
    a = merge_group_sumsets(gs, fam, 10, 8, 6, 0.3, 1, rng_stream(21, "p3"))
    b = merge_group_sumsets(gs, fam, 10, 8, 6, 0.3, 1, rng_stream(21, "p3"))
    assert a == b


def test_merge_narrow_windows_can_empty_nodes():
    items = [3, 5, 6, 7, 2, 4]
    fam, gs = _pipeline_inputs(items, 10, 8, 6, 0.3, 2)
    root = merge_group_sumsets(
        gs, fam, 10, 8, 6, 0.3, 1, rng_stream(2, "p3"), window=0, eta_mult=1e-12
    )
    assert isinstance(root, SumSet)
    # capping to +-2 around t/ell_h prunes hard; whatever survives is real
    assert set(root.values) <= set(subset_sums(items))


def test_fold_refuses_rows_larger_than_the_leaf_level(monkeypatch):
    # ten singletons near 2**40 in 16 groups: the fold's one row would need
    # ~2**37 words against 26 leaf values, so the merge must take the
    # kernel although the trip and cap bounds allow the fold (checked
    # below); the fold is never called, so no row is allocated
    rng = np.random.default_rng(3)
    items = [int(v) for v in rng.integers(2**40 - 2**20, 2**40, size=10)]
    groups = [(x,) for x in items] + [()] * 6
    w, n, q, t = 2**40, len(items), 0.3, sum(items) // 2
    params = color_params(n, t, w, q, 1)
    family = GroupFamily(Flat.of(groups), len(items))
    sets = Flat.of([(0, *grp) for grp in groups])
    eta, _, tail = merge_bounds(params.rho, params.g, t, w, n, q, 1, 1.0, 1.0, 0)
    assert sum(items) < tail and eta + 1 >= max(t, sum(items))
    calls = []
    fold_levels = merge._fold_levels
    monkeypatch.setattr(merge, "_fold_levels", lambda *a: calls.append(a) or fold_levels(*a))
    roots = [
        merge_group_sumsets(GroupSumsets(sets, params, exact), family, t, w, n, q, 1, rng_stream(4, "p3"), window=0)
        for exact in (True, False)
    ]
    assert calls == []
    assert roots[0] == roots[1] == SumSet(tuple(subset_sums(items)))


def test_merge_budget_trip_produces_checked_evidence():
    # mass-heavy instance so the weight lower bound 3t/2 holds
    items = [2] * 60 + [1] * 30
    t = 40
    fam, gs = _pipeline_inputs(items, t, 2, len(items), 0.3, 5)
    res = merge_group_sumsets(
        gs, fam, t, 2, len(items), 0.3, 1, rng_stream(5, "p3"), budget_mult=1e-13
    )
    assert isinstance(res, DenseEvidence)
    assert res.source == "phase-three"
    assert res.total_size() >= res.threshold
    assert res.observed_total_size >= res.threshold
    # the weight recursion conserves the stage-two maxima sum
    assert res.total_f() == sum(s.max() for s in gs.sets)
    assert 2 * res.total_f() >= 3 * t


def test_merge_trip_at_deeper_levels_keeps_f_sum():
    items = [2] * 60 + [1] * 30
    t = 40
    fam, gs = _pipeline_inputs(items, t, 2, len(items), 0.3, 6)
    seen_levels = set()
    for mult in (1e-14, 1e-13, 3e-13, 5e-13):
        res = merge_group_sumsets(
            gs, fam, t, 2, len(items), 0.3, 1, rng_stream(6, "p3"), budget_mult=mult
        )
        if isinstance(res, DenseEvidence):
            seen_levels.add(res.level)
            assert res.total_f() == sum(s.max() for s in gs.sets)
    assert seen_levels, "expected at least one budget trip"


def test_assemble_evidence_rejects_bad_bookkeeping():
    with pytest.raises(InternalConsistencyError):
        assemble_dense_evidence(
            "phase-three", t=10, rho=4, u_prime=100, level=1, threshold=50,
            observed_total_size=50, set_sizes=[5, 5], f_values=[20, 20],
        )  # sizes sum 10 < threshold 50
    with pytest.raises(InternalConsistencyError):
        assemble_dense_evidence(
            "phase-three", t=10, rho=4, u_prime=100, level=1, threshold=5,
            observed_total_size=5, set_sizes=[5, 5], f_values=[2, 2],
        )  # weight sum 4 below 3t/2
    with pytest.raises(InternalConsistencyError):
        assemble_dense_evidence(
            "phase-three", t=10, rho=1, u_prime=100, level=1, threshold=5,
            observed_total_size=5, set_sizes=[5, 5], f_values=[20, 20],
        )  # weight sum 40 above rho*t/2 = 5
    # per-node conditions: f <= subtree sum, and a known maximum <= f
    valid = dict(
        source="phase-three", t=10, rho=4, u_prime=100, level=1, threshold=5,
        observed_total_size=5, set_sizes=[5, 5], f_values=[10, 10],
    )
    with pytest.raises(InternalConsistencyError, match="weight exceeds subtree sum"):
        assemble_dense_evidence(**valid, sigma_values=[10, 9])
    with pytest.raises(InternalConsistencyError, match="set maximum exceeds weight"):
        assemble_dense_evidence(**valid, sigma_values=[10, 10], max_values=[None, 11])
    ev = assemble_dense_evidence(**valid, sigma_values=[10, 10], max_values=[None, 10])
    assert ev.max_values == [None, 10]


def test_select_generators_single_size():
    sets = [SumSet.of([0, 1, 2]) for _ in range(20)]
    f = list(range(1, 21))
    chosen = select_ap_generators(sets, f, rho=3, u_prime=10, c_ap=1)
    assert chosen == [0, 1, 2, 3]  # ceil(10/3) = 4 smallest weights
    assert sum(f[i] for i in chosen) * 3 <= sum(f)


def test_select_generators_threshold_not_met():
    sets = [SumSet.of([0, 1, 2]) for _ in range(2)]
    with pytest.raises(ValueError, match="threshold"):
        select_ap_generators(sets, [1, 2], rho=3, u_prime=10, c_ap=1)


def test_select_generators_weight_share():
    rng = np.random.default_rng(4)
    sets = []
    f = []
    for _ in range(300):
        size = int(rng.integers(2, 12))
        sets.append(SumSet.of(range(size)))
        f.append(int(rng.integers(1, 1000)))
    rho = 5
    # pick u_prime so some k qualifies: count(size>=2)=300, need 300*2 >= 2*rho*u'
    chosen = select_ap_generators(sets, f, rho=rho, u_prime=50, c_ap=1)
    assert rho * sum(f[i] for i in chosen) <= sum(f)
    assert len(chosen) == len(set(chosen))
