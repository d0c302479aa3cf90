import math

import numpy as np
import pytest

from subsetsum import colorcoding, sumset
from subsetsum.cli import generate_instance
from subsetsum.core import SolverConfig, next_pow2, normalize, rng_stream
from subsetsum.colorcoding import (
    DenseTripSignal,
    GroupFamily,
    GroupSumsets,
    build_group_sumsets,
    color_params,
    partition_groups,
    verify_group_family,
)
from subsetsum.merge import evidence_from_color_trip
from subsetsum.structure import partition_instance
from subsetsum.sumset import Flat, common_step

from oracles import (
    all_subsets,
    ascending_family,
    full_subset_sums,
    level_of,
    materialized_stage_two,
    multiset,
    slot_stage_two,
    split_into_parts,
    subset_sums,
)


def test_partition_groups_hand_trace():
    rng = rng_stream(0, "phase1")
    fam = partition_groups(multiset((1, 1, 2, 3, 5, 8)), 10, rng)
    assert fam.raw_count == 6
    assert fam.ell == 8
    assert [g.tolist() for g in fam.groups] == [[1], [1], [2], [3], [5], [8], [], []]


def test_partition_groups_requires_mass():
    with pytest.raises(ValueError, match="mass"):
        partition_groups(multiset((1, 2)), 10, rng_stream(0, "phase1"))


def test_partition_groups_invariants_random():
    rng_data = np.random.default_rng(8)
    for _ in range(80):
        n = int(rng_data.integers(4, 60))
        w = int(rng_data.integers(2, 50))
        items = [int(v) for v in rng_data.integers(1, w + 1, size=n)]
        t = max(1, (2 * sum(items)) // (3 * int(rng_data.integers(2, 6))))
        if 2 * sum(items) < 3 * t:
            continue
        fam = partition_groups(multiset(items), t, rng_stream(int(rng_data.integers(1 << 30)), "p1"))
        verify_group_family(fam, items, t, max(items))


def test_partition_groups_nonempty_before_padding_even_with_random_split():
    # force the random-assignment branch: one layer, fewer caps than items
    items = [2] * 40  # layer 1, cap = ceil(t/1) = t
    t = 30  # sigma = 80 >= 45
    fam = partition_groups(multiset(items), t, rng_stream(3, "p1"))
    assert fam.groups.sizes()[: fam.raw_count].min() >= 1
    assert sum(len(g) for g in fam.groups) == 40
    assert fam.raw_count == 30


def test_partition_groups_deterministic():
    items = [2] * 40 + [1] * 9
    a = partition_groups(multiset(items), 30, rng_stream(11, "p1"))
    b = partition_groups(multiset(items), 30, rng_stream(11, "p1"))
    assert a == b


def test_partition_groups_reads_any_order_and_never_aliases_its_input():
    # a layer that is drawn (36 twos in 30 buckets) and one that is not
    # (eight 4s and 5s); the family is the same for the multiset of the
    # items in any order, as read-only or writable arrays or lists, and
    # shares no memory with them
    items = np.array([1] * 3 + [2] * 36 + [4] * 4 + [5] * 4, dtype=np.int64)
    shuffled = np.random.default_rng(4).permutation(items)
    plain = multiset(items)
    frozen = tuple(a.copy() for a in plain)
    for a in frozen:
        a.flags.writeable = False
    forms = (frozen, multiset(shuffled), tuple(a.tolist() for a in plain), plain)
    fams = [partition_groups(x, 30, rng_stream(6, "p1")) for x in forms]
    assert all(f == fams[0] for f in fams) and fams[0].largest >= 2
    # no layer drawn: the groups are the sorted items, built from the
    # family's multiset
    kept = [partition_groups(x, 40, rng_stream(6, "p1")) for x in forms]
    assert all(f == kept[0] for f in kept) and kept[0].largest == 1
    assert kept[0].groups.vals.tolist() == sorted(items.tolist())
    for x, fam, single in zip(forms, fams, kept):
        for a in x:
            assert not np.shares_memory(fam.groups.vals, a) and not np.shares_memory(single.groups.vals, a)
    assert all(a.flags.writeable for a in plain) and shuffled.tolist() != items.tolist()


def test_family_refuses_a_group_that_does_not_ascend():
    # stage two's one stable sort keeps each part ascending only because
    # every group is
    with pytest.raises(ValueError, match="ascending"):
        GroupFamily(Flat.of(((3, 5), (7, 2))), 2)
    # a descent where a group starts, past an empty one or not, is allowed;
    # the multiset and the largest group are counted at construction
    family = GroupFamily(Flat.of(((3, 5), (), (2, 2, 7), (1,))), 3)
    assert [a.tolist() for a in family.multiset] == [[1, 2, 3, 5, 7], [1, 2, 1, 1, 1]]
    assert (family.largest, family.element_count, family.sigma) == (3, 6, 20)


def test_partition_groups_rejects_a_malformed_multiset():
    # values out of order once built a wrong family without an error: this
    # one, sorted, gives 10,125 raw groups, and unsorted gave 6,000, whose
    # layer 3 held more groups than its cap
    values, counts, t = [1, 3, 9, 16], [9000, 8000, 7000, 5000], 3000
    assert partition_groups((values, counts), t, rng_stream(1, "p1")).raw_count == 10_125
    malformed = (
        ([16, 3, 9, 1], [5000, 8000, 7000, 9000]),  # not increasing
        ([1, 3, 3, 16], [9000, 8000, 7000, 5000]),  # a value repeated
        ([1, 3, 9, 16], [9000, 0, 7000, 5000]),  # a count below 1
        ([1, 3, 9, 16], [9000, 8000, 7000]),  # lengths differ
    )
    for bad in malformed:
        with pytest.raises(ValueError, match="values"):
            partition_groups(bad, t, rng_stream(1, "p1"))


def test_color_params_shapes():
    # stage two's constants against the paper's formulas, written out here:
    # k = ceil(6 log(2n/q)), g = k^2 up to a power of two, reps =
    # ceil(log_{4/3}(4n/q)), u' = max(g w + 1, ceil(5 sqrt(wt) log w)),
    # rho = 10 g ceil(log w) and the budget tail
    # ceil(budget_mult * 4 c_ap rho u' ceil(log u')) with c_ap = 1
    c_ap = 1
    for n, t, w, q in ((400, 200, 2, 0.01), (10_588, 30_000, 16, 1 / 40_588), (7, 10, 1000, 0.3)):
        k = math.ceil(6 * math.log2(2 * n / q))
        g = 1 << (k * k - 1).bit_length()
        reps = math.ceil(math.log(4 * n / q) / math.log(4 / 3))
        u_prime = max(g * w + 1, math.ceil(5 * math.sqrt(w * t) * math.log2(max(w, 2))))
        rho = 10 * g * (w - 1).bit_length()
        for budget_mult in (1.0, 0.3, 1e-12):
            tail = math.ceil(budget_mult * 4 * c_ap * rho * u_prime * (u_prime - 1).bit_length())
            p = color_params(n, t, w, q, budget_mult)
            assert (p.k, p.g, p.reps, p.u_prime, p.rho, p.tail) == (k, g, reps, u_prime, rho, tail)
            assert p.tail >= 1


def test_singleton_groups_give_zero_and_element():
    fam = partition_groups(multiset((1, 1, 2, 3, 5, 8)), 10, rng_stream(0, "p1"))
    out = build_group_sumsets(fam, 10, 8, 6, 0.3, rng_stream(0, "p2"))
    for grp, s in zip(fam.groups, out.sets):
        if len(grp) == 1:
            assert s.tolist() == [0, grp[0]]
        elif not len(grp):
            assert s.tolist() == [0]


def test_group_sumsets_are_true_subset_sums():
    rng_data = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng_data.integers(4, 12))
        w = int(rng_data.integers(2, 30))
        items = [int(v) for v in rng_data.integers(1, w + 1, size=n)]
        t = max(1, (2 * sum(items)) // 4)
        seed = int(rng_data.integers(1 << 30))
        fam = partition_groups(multiset(items), t, rng_stream(seed, "p1"))
        out = build_group_sumsets(fam, t, w, n, 0.2, rng_stream(seed, "p2"))
        assert not isinstance(out, DenseTripSignal)
        for grp, s in zip(fam.groups, out.sets):
            grp, s = grp.tolist(), s.tolist()
            achievable = set(subset_sums(grp))
            assert 0 in s
            assert set(s) <= achievable
            assert max(s) >= max(grp, default=0)
            assert max(s) <= out.params.g * max(grp, default=0)


def test_group_sumsets_deterministic():
    fam = partition_groups(multiset([3, 5, 6, 7, 2, 4]), 10, rng_stream(5, "p1"))
    a = build_group_sumsets(fam, 10, 8, 6, 0.3, rng_stream(5, "p2"))
    b = build_group_sumsets(fam, 10, 8, 6, 0.3, rng_stream(5, "p2"))
    assert a.sets == b.sets


def test_witness_coverage_rate():
    # distinct-valued bulk so subsets can be traced through the groups
    items = (1, 2, 3, 4, 5, 6, 7, 9, 11, 13)
    t = 30  # sigma = 61 >= 45
    q = 0.2
    n = len(items)
    targets = [z for z in all_subsets(items) if 0 < sum(z) <= t]
    misses = {z: 0 for z in targets}
    seeds = 200
    for seed in range(seeds):
        fam = partition_groups(multiset(items), t, rng_stream(seed, "p1"))
        out = build_group_sumsets(fam, t, max(items), n, q, rng_stream(seed, "p2"))
        group_of = {}
        for gi, grp in enumerate(fam.groups):
            for x in grp.tolist():
                group_of[x] = gi
        sets = [set(s.tolist()) for s in out.sets]
        for z in targets:
            per_group = {}
            for x in z:
                gi = group_of[x]
                per_group[gi] = per_group.get(gi, 0) + x
            if not all(v in sets[gi] for gi, v in per_group.items()):
                misses[z] += 1
    stderr = math.sqrt(q * (1 - q) / seeds)
    worst = max(misses.values()) / seeds
    assert worst <= q + 3 * stderr, f"worst miss rate {worst}"


def _naive_stage_two(family, t, w, n, q, rng, budget_mult):
    """Materialized reference (`materialized_stage_two`) as stage two's
    result, and the kind of trip (None without one)."""
    params = color_params(n, t, w, q, budget_mult)
    groups = [g.tolist() for g in family.groups]
    ref = materialized_stage_two(groups, params.g, params.reps, params.tail, rng)
    if ref[0] == "sets":
        return GroupSumsets(level_of(ref[1]), params, full_subset_sums(groups, ref[1])), None
    _, fields, kind = ref
    return DenseTripSignal(rho=params.rho, u_prime=params.u_prime, g=params.g, **fields), kind


def _first_clean_rep(family, g, reps, rng):
    """Per multi-element group, the first repetition (same draws as stage
    two) that puts each of its elements into a part of its own, or None."""
    total = sum(len(grp) for grp in family.groups)
    first = {}
    for rep in range(reps):
        draws = rng.integers(0, g, size=total)
        pos = 0
        for i, grp in enumerate(family.groups):
            parts = draws[pos : pos + len(grp)].tolist()
            pos += len(grp)
            if len(grp) >= 2 and len(set(parts)) == len(grp):
                first.setdefault(i, rep)
    return [first.get(i) for i, grp in enumerate(family.groups) if len(grp) >= 2]


_SMALL_GROUPS = (ascending_family(((3, 5), (6,), (7, 2), (4,)), 4), 4, 0.9)
# n=1 and q=0.9 give the smallest part count (g=64) and 6 repetitions: the
# 10-item group splits cleanly only after a collision, the 40-item one never
_LARGE_GROUPS = (
    ascending_family(((1, 2, 3, 4, 5, 6, 7, 8, 1, 2), (6,), tuple(range(1, 9)) * 5, ()), 3),
    1,
    0.9,
)


@pytest.mark.parametrize(
    "budget_mult,seed,case,trip",
    [
        pytest.param(1.0, 4, _SMALL_GROUPS, None, id="1.0-4"),
        pytest.param(1e-9, 4, _SMALL_GROUPS, ("trailing", 1), id="1e-09-4"),
        pytest.param(1e-9, 9, _SMALL_GROUPS, ("trailing", 1), id="1e-09-9"),
        pytest.param(3e-9, 2, _SMALL_GROUPS, None, id="3e-09-2"),
        pytest.param(1e-9, 3, _SMALL_GROUPS, ("gap", 1), id="1e-09-3"),
        pytest.param(1.0, 4, _LARGE_GROUPS, None, id="1.0-4-large"),
        pytest.param(1.0, 9, _LARGE_GROUPS, None, id="1.0-9-large"),
        pytest.param(1e-9, 1, _LARGE_GROUPS, ("node", 1), id="1e-09-1-large"),
        pytest.param(3e-6, 0, _LARGE_GROUPS, ("node", 3), id="3e-06-0-large"),
        pytest.param(3e-6, 4, _LARGE_GROUPS, ("trailing", 3), id="3e-06-4-large"),
    ],
)
def test_virtual_levels_match_materialized_reference(budget_mult, seed, case, trip):
    # trip: (where the stop falls, level), or None when no repetition
    # trips; the stop falls on a node holding an element, in the {0} gap
    # before one, or in the trailing gap after the last one
    family, n, q = case
    t, w = 10, 8
    if case is _LARGE_GROUPS and trip is None:
        params = color_params(n, t, w, q, budget_mult)
        first = _first_clean_rep(family, params.g, params.reps, rng_stream(seed, "p2"))
        assert any(r is not None and r > 0 for r in first), "no group completes late"
        assert None in first, "every group completes"
    fast = build_group_sumsets(
        family, t, w, n, q, rng_stream(seed, "p2"), budget_mult=budget_mult
    )
    ref, kind = _naive_stage_two(family, t, w, n, q, rng_stream(seed, "p2"), budget_mult)
    assert fast == ref
    if trip is None:
        assert kind is None
    else:
        assert (kind, ref.level) == trip


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "n,w,budget_mult", [(4000, 2, 1e-12), (12000, 2, 1e-12), (12000, 8, 1e-11), (4000, 3, 1e-9)]
)
def test_budgeted_levels_match_slot_reference_at_pipeline_size(n, w, budget_mult, seed):
    # g = 32,768 parts per group, far beyond what the materialized
    # reference can hold.  The first three shapes are `dense-trip`'s,
    # which trip at level 1; (12000, 2) is the one whose stage one draws a
    # layer and moves elements into over a thousand empty buckets.  The
    # last trips at the root level (seeds 1 and 2) or runs every
    # repetition without a trip (seed 3).  The reference sums every
    # occupied node with its sibling, the package only nodes with two
    # occupied children
    inst = normalize(generate_instance("dense", n, w, seed)).instance
    t, config = inst.target, SolverConfig(seed=seed, budget_mult=budget_mult)
    q = config.q_for(inst.n, t)
    family = partition_groups(partition_instance(inst).dense_multiset, t, rng_stream(seed, "phase1"))
    params = color_params(inst.n, t, inst.w, q, budget_mult)
    assert params.g == 1 << 15 and params.tail <= colorcoding._max_level_excess(family)
    got = build_group_sumsets(
        family, t, inst.w, inst.n, q, rng_stream(seed, "phase2"), budget_mult=budget_mult
    )
    ref = slot_stage_two(family, params, rng_stream(seed, "phase2"))
    assert got == ref
    trip = (ref.level, ref.repetition) if isinstance(ref, DenseTripSignal) else None
    assert trip == ((1, 0) if w != 3 else (15, 0) if seed < 3 else None)
    if trip:
        assert evidence_from_color_trip(got, t) == evidence_from_color_trip(ref, t)


@pytest.mark.parametrize("tail,level", [(100, 1), (1000, 4)])
def test_tripping_level_computes_at_most_a_chunk_past_its_stop(monkeypatch, tail, level):
    # 64 groups of ten elements at g = 64; with 16-value chunks a tripping
    # level computes at most 16 values plus one pair's output past its
    # stop, though the nodes after the stop hold more than that.  The
    # kernel sees only nodes with two occupied children: every operand
    # holds 0 and an element, never the {0} of a missing sibling
    monkeypatch.setattr(sumset, "LEVEL_CHUNK_VALUES", 16)
    computed, calls = [0], []
    level_chunk, pair_level = sumset._level_chunk, colorcoding._pair_level

    def chunk_spy(*args):
        out = level_chunk(*args)
        computed[0] += int(out[0].sum())
        return out

    def level_spy(pairs, budget, gaps):
        assert pairs.sizes().min() >= 2, "a one-child node went to the kernel"
        computed[0] = 0
        out = pair_level(pairs, budget, gaps)
        calls.append((pairs, budget, out[0], computed[0]))
        return out

    monkeypatch.setattr(sumset, "_level_chunk", chunk_spy)
    monkeypatch.setattr(colorcoding, "_pair_level", level_spy)
    rng = np.random.default_rng(5)
    groups = tuple(tuple(int(v) for v in rng.integers(1, 9, size=10)) for _ in range(64))
    family = ascending_family(groups, 64)
    budget_mult = tail / color_params(1, 10, 8, 0.9).tail
    sig = build_group_sumsets(family, 10, 8, 1, 0.9, rng_stream(1, "p2"), budget_mult=budget_mult)
    assert isinstance(sig, DenseTripSignal) and sig.level == level
    pairs, budget, prefix, values = calls[-1]
    assert budget == sig.threshold, "the tripping level called no kernel"
    full, _ = pair_level(pairs, 1 << 62)
    pair_bound = max(
        min(len(a) * len(b), int(a[-1] - a[0] + b[-1] - b[0]) + 1)
        for a, b in zip(list(pairs)[0::2], list(pairs)[1::2])
    )
    past = values - prefix.sizes().sum()
    assert past <= 16 + pair_bound < full.sizes().sum() - prefix.sizes().sum()


def test_max_level_excess_is_attained_by_full_subset_sums():
    # (1, 2, 4) reaches 2^3 - 1 sums past 0, (1, 1, 1) reaches sigma = 3,
    # and 70 ones reach sigma = 70 (where 2^70 - 1 does not fit in int64)
    groups = ((1, 2, 4), (1, 1, 1), (5,), (1,) * 70, (), (300, 700))
    family = GroupFamily(Flat.of(groups), 5)
    assert colorcoding._max_level_excess(family) == 7 + 3 + 1 + 70 + 0 + 3
    assert colorcoding._max_level_excess(family) == sum(len(subset_sums(g)) - 1 for g in groups)
    # 64 copies of 2^56 (|G| >= 63) add sigma = 2^62, not 2^62 - 1
    family = GroupFamily(Flat.of(((1 << 56,) * 64, (3,))), 2)
    assert colorcoding._max_level_excess(family) == (1 << 62) + 1


def test_level_one_trip_builds_no_runs(monkeypatch):
    # the `dense-trip` n4000-w2 shape trips at level 1 of repetition 0,
    # where no node has two occupied children: the trip reads only node
    # sizes, so level 0 is never split into runs, no kernel runs, and the
    # tail (below the non-empty group count) needs no excess scan
    inst = normalize(generate_instance("dense", 4000, 2, 1)).instance
    t, config = inst.target, SolverConfig(seed=1, budget_mult=1e-12)
    q = config.q_for(inst.n, t)
    family = partition_groups(partition_instance(inst).dense_multiset, t, rng_stream(1, "phase1"))
    params = color_params(inst.n, t, inst.w, q, config.budget_mult)
    assert params.tail <= np.count_nonzero(family.groups.sizes())
    calls = []
    for name in ("_part_level", "_pair_level", "_max_level_excess"):
        real = getattr(colorcoding, name)
        monkeypatch.setattr(
            colorcoding, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    got = build_group_sumsets(
        family, t, inst.w, inst.n, q, rng_stream(1, "phase2"),
        budget_mult=config.budget_mult,
    )
    assert isinstance(got, DenseTripSignal) and (got.level, got.repetition) == (1, 0)
    assert calls == []
    assert got == slot_stage_two(family, params, rng_stream(1, "phase2"))


@pytest.mark.parametrize("case", [0, 1, 2, "repeats-at-ends", "no-repeats"])
def test_part_sizes_from_counts_match_part_level(case):
    # level 0's sizes are counted from the sorted parts, without runs: one
    # plus each part's distinct elements.  Parts hold repeated values and
    # several distinct ones, so a count that ORs the distinct marks (every
    # size 2) or counts repeats would differ.  A part may repeat its first
    # value or its last, and a part's first value may equal the previous
    # part's last, which is no repeat; a level may hold no repeat at all
    if case == "repeats-at-ends":
        parts = [(3, 3, 4), (1, 2, 5, 5), (5, 5), (5, 6, 6), (6, 7, 7)]
    elif case == "no-repeats":
        parts = [(1, 2), (2, 3), (3,), (3, 4, 9), (9,)]
    else:
        rng = np.random.default_rng(case)
        parts = [(2, 2, 2), (1, 3, 3, 5), (4,), (1, 2, 3, 4, 5, 6), (7, 7)]
        parts += [tuple(np.sort(rng.integers(1, 6, size=rng.integers(1, 9))).tolist()) for _ in range(40)]
    part_val = np.concatenate([np.array(p, dtype=np.int64) for p in parts])
    part_first = np.zeros(part_val.size, dtype=bool)
    part_first[np.cumsum([0, *(len(p) for p in parts[:-1])])] = True
    sizes, repeats = colorcoding._part_sizes(part_val, part_first, np.flatnonzero(part_first))
    at = np.cumsum([0, *(len(p) for p in parts)])
    assert repeats.tolist() == [a + k for a, p in zip(at, parts) for k in range(1, len(p)) if p[k] == p[k - 1]]
    if case == "no-repeats":
        assert repeats.size == 0
    level = colorcoding._part_level(np.delete(part_val, repeats), np.delete(part_first, repeats), 1)
    assert sizes.tolist() == level.sizes().tolist() == [1 + len(set(p)) for p in parts]
    assert [x.tolist() for x in level] == [[0, *sorted(set(p))] for p in parts]


@pytest.mark.parametrize(
    "groups,open_groups",
    [
        pytest.param(((), (5,), (2, 2, 1), (7,), (3, 4), (), (9,), ()), (), id="mixed"),
        pytest.param(((), (5,), (2, 2, 1), (7,), (3, 4, 4, 8), (), (9,), ()), (2,), id="mixed-open"),
        pytest.param(((4,), (), (6,), (6,)), (), id="small-only"),
        pytest.param(((1, 2), (3, 3, 3), (8, 1), (2, 5, 9, 11)), (1, 3), id="multi-only"),
        pytest.param(
            ((2, 3), (1, 4), (2, 3), (3, 2), (5, 5, 1), (2, 3), (5, 5, 1), (1, 4, 4), (2, 3), (), (7,), (7,)),
            (5,),
            id="repeated-contents",
        ),
    ],
)
def test_group_sets_match_subset_sums(groups, open_groups):
    # every group that is not open gets its full subset sums: {0} for an
    # empty group and {0, x} for a singleton directly, a larger group
    # through the level loop (written here in any order, then sorted by
    # `ascending_family`); each open group keeps the set it is given, in
    # its own place
    family = ascending_family(groups, len(groups))
    params = color_params(6, 10, 16, 0.3)
    open_groups = np.array(open_groups, dtype=np.int64)
    open_sets = [[0, int(k) + 100] for k in open_groups]
    got = colorcoding._group_sets(family, params, open_groups, level_of(open_sets))
    want = [subset_sums(g) for g in groups]
    for k, s in zip(open_groups, open_sets):
        want[k] = s
    assert [s.tolist() for s in got] == want


def test_open_group_roots_that_touch_join_into_one_run():
    # group (1, 1, 3, 3) shares a part in both repetitions: parts {1},
    # {1}, {3, 3} give the root [0, 5], and parts {1, 1, 3}, {3} give
    # {0, 1, 3, 4, 6}, whose run [6, 6] starts right after [0, 5] ends.
    # The union is one maximal run [0, 6]; the empty group is {0}
    params = color_params(4, 10, 3, 0.3)
    draws = [np.array([0, 1, 2, 2]), np.array([0, 0, 0, 1])]
    got = colorcoding._budgeted_sumsets(np.array([1, 1, 3, 3]), np.array([4, 0]), params, 1, draws)
    assert not got.exact
    sets = got.sets
    assert (sets.starts.tolist(), sets.ends.tolist(), sets.offs.tolist()) == ([0, 0], [6, 0], [0, 1, 2])


def test_complete_group_sumsets_equal_their_built_form(monkeypatch):
    # both multi-element groups complete (each element in a part of its
    # own), so stage two returns sets that are built on their first read
    family = ascending_family(((3, 5), (6,), (7, 2, 2), (), (4,), (), (), ()), 5)
    params = color_params(6, 10, 8, 0.3)
    built = []
    group_sets = colorcoding._group_sets
    monkeypatch.setattr(colorcoding, "_group_sets", lambda *a: built.append(a) or group_sets(*a))
    lazy = build_group_sumsets(family, 10, 8, 6, 0.3, rng_stream(2, "p2"))
    assert lazy.exact and built == []
    eager = GroupSumsets(level_of([subset_sums(g.tolist()) for g in family.groups]), params, True)
    assert lazy == eager and eager == lazy and len(built) == 1
    assert lazy == GroupSumsets.complete(family, params) == eager
    assert lazy.sets == eager.sets and len(built) == 2  # built once per object
    assert lazy != GroupSumsets(eager.sets, params, False)
    assert lazy != GroupSumsets(level_of([[0]] * family.ell), params, True)


def test_all_singleton_family_draws_nothing_and_builds_no_item_array(monkeypatch):
    # no group holds two elements: stage two returns the complete sets at
    # once, with no draw and no item-sized array
    family = partition_groups(multiset([1, 2, 3, 5, 8, 13, 21]), 10, rng_stream(0, "p1"))
    assert family.largest == 1
    params = color_params(7, 10, 32, 0.3)
    monkeypatch.setattr(colorcoding.np, "repeat", lambda *a, **k: pytest.fail("item-sized array built"))
    rng = rng_stream(5, "p2")
    got = colorcoding._unbudgeted_sumsets(family, params, rng)
    monkeypatch.undo()
    assert rng.integers(0, 1 << 62) == rng_stream(5, "p2").integers(0, 1 << 62)
    want = GroupSumsets(level_of([subset_sums(g.tolist()) for g in family.groups]), params, True)
    assert got == want and got.exact


def test_two_element_group_is_drawn_whatever_the_empty_groups():
    # an empty group before raw_count and one two-element group: as many
    # elements as raw_count, yet a group of two, so repetitions are drawn
    family = GroupFamily(Flat.of(((), (3, 5))), 2)
    assert family.largest == 2 and family.groups.vals.size == family.raw_count
    params = color_params(2, 5, 8, 0.3)
    rng = rng_stream(5, "p2")
    got = colorcoding._unbudgeted_sumsets(family, params, rng)
    assert rng.integers(0, 1 << 62) != rng_stream(5, "p2").integers(0, 1 << 62)
    assert got.exact and got.sets == level_of([[0], [0, 3, 5, 8]])


def test_budget_that_cannot_trip_takes_unbudgeted_path(monkeypatch):
    # uniform w=3, t=1560, n=2340 at budget_mult=1e-9: the tail lies below
    # sigma(D) but above every level's possible excess (2,298 singletons
    # and 18 groups of two or three), so no repetition can trip and the
    # unbudgeted path must run; the budgeted one runs all 61 repetitions
    # here (~1 s) and must report the same sets and the same exactness
    w, t, n = 3, 1560, 2340
    rng = np.random.default_rng(1)
    items = [w, *(int(v) for v in rng.integers(1, w + 1, size=n - 1))]
    config = SolverConfig(seed=1, budget_mult=1e-9)
    q = config.q_for(n, t)
    family = partition_groups(multiset(items), t, rng_stream(1, "phase1"))
    params = color_params(n, t, w, q, config.budget_mult)
    assert colorcoding._max_level_excess(family) < params.tail <= sum(items)
    ran = []
    unbudgeted = colorcoding._unbudgeted_sumsets
    monkeypatch.setattr(
        colorcoding, "_unbudgeted_sumsets", lambda *a: ran.append(1) or unbudgeted(*a)
    )
    got = build_group_sumsets(
        family, t, w, n, q, rng_stream(1, "p2"), budget_mult=config.budget_mult
    )
    assert ran == [1]
    rng = rng_stream(1, "p2")
    draws = (rng.integers(0, params.g, size=family.groups.vals.size) for _ in range(params.reps))
    step = common_step(family.multiset[0])
    assert got == colorcoding._budgeted_sumsets(family.groups.vals, family.sizes(), params, step, draws)


def test_never_complete_groups_match_slot_reference_at_pipeline_size():
    # n=50 and q=0.5 give g = 4,096 parts and 21 repetitions, beyond what
    # the materialized reference can hold.  200 groups of 250-300 elements
    # never split cleanly (each repetition does with probability below
    # 1e-3), among groups of two to five that complete, singletons and
    # padding; the tail lies far above every level's possible excess, so
    # the unbudgeted path runs, and its sets must be the union of every
    # repetition's roots that the slot reference builds from the same draws
    rng = np.random.default_rng(3)
    sizes = [*rng.integers(250, 301, size=200), *rng.integers(2, 6, size=150), *[1] * 50]
    rng.shuffle(sizes)
    groups = [tuple(sorted(int(v) for v in rng.integers(1, 3, size=k))) for k in sizes]
    family = GroupFamily(Flat.of(groups + [()] * (512 - len(groups))), len(groups))
    t, w, n, q = 4000, 2, 50, 0.5
    params = color_params(n, t, w, q)
    assert (params.g, params.reps) == (4096, 21)
    assert params.tail > colorcoding._max_level_excess(family)
    got = build_group_sumsets(family, t, w, n, q, rng_stream(8, "p2"))
    assert got == slot_stage_two(family, params, rng_stream(8, "p2"))
    assert not got.exact
    # a group that never completes lacks at least its own sum
    lacking = np.flatnonzero(np.array([s[-1] for s in got.sets]) < family.group_sums)
    assert lacking.size >= 190 and np.all(family.groups.sizes()[lacking] >= 250)


def test_trip_signal_bookkeeping_consistency():
    family = ascending_family(((3, 5), (6,), (7, 2), (4,)), 4)
    sig = build_group_sumsets(
        family, 10, 8, 4, 0.9, rng_stream(9, "p2"), budget_mult=1e-9
    )
    assert isinstance(sig, DenseTripSignal)
    assert sig.observed_total_size >= sig.threshold
    assert sig.trivial_nodes + len(sig.node_sizes) == sig.num_nodes
    # weights are subtree maxima sums: bounded by subtree element sums
    assert all(f <= s for f, s in zip(sig.node_f, sig.node_sigma))
    assert sum(sig.node_f) >= sum(max(g) for g in family.groups if len(g))
    assert sum(sig.node_sigma) == sum(sum(g) for g in family.groups)


def test_part_split_all_distinct_probability():
    # spreading k marked elements over k^2 parts keeps them apart with
    # probability noticeably above 1/4
    k = 4
    g = next_pow2(k * k)
    rng = rng_stream(123, "isolation-split")
    trials = 1000
    ok = 0
    marked = list(range(k))
    for _ in range(trials):
        parts = split_into_parts(marked, g, rng)
        if all(len(v) == 1 for v in parts.values()):
            ok += 1
    rate = ok / trials
    stderr = math.sqrt(0.25 * 0.75 / trials)
    assert rate >= 0.25 - 3 * stderr
