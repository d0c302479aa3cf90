import math

import numpy as np
import pytest

from subsetsum import sumset
from subsetsum.solver import bounded_subset_sums, dense_interval_set
from subsetsum.sumset import (
    HULL_FFT_LIMIT,
    Level,
    SumSet,
    _pair_level,
    _sum_values,
    cap,
    dense_sumset,
)

from oracles import level_of, multiset, pairwise_sumset


def S(*vals):
    return SumSet.of(vals)


def test_dense_sumset_examples():
    assert dense_sumset(S(0, 1), S(0, 2)).values.tolist() == [0, 1, 2, 3]
    assert dense_sumset(S(5), S(7)).values.tolist() == [12]
    expected = tuple(pairwise_sumset([1, 3, 4], [0, 10]))
    assert tuple(dense_sumset(S(1, 3, 4), S(0, 10)).values.tolist()) == expected
    assert expected == (1, 3, 4, 11, 13, 14)


def test_sparse_sumset_examples():
    # sparse operands (wide hull, few values) go through the same entry point
    assert dense_sumset(S(0, 1000000), S(0, 1)).values.tolist() == [0, 1, 1000000, 1000001]
    b = S(3, 8, 19)
    assert dense_sumset(S(0), b).values.tolist() == b.values.tolist()


def test_empty_operand_errors():
    with pytest.raises(ValueError, match="empty operand"):
        dense_sumset(SumSet.empty(), S(1))
    with pytest.raises(ValueError, match="empty operand"):
        dense_sumset(S(1), SumSet.empty())


def test_kernels_agree_with_bruteforce():
    rng = np.random.default_rng(11)
    for trial in range(60):
        hi = 10**6 if trial < 6 else 10**5
        na, nb = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        a = sorted(set(int(v) for v in rng.integers(0, hi, size=na)))
        b = sorted(set(int(v) for v in rng.integers(0, hi, size=nb)))
        expected = tuple(pairwise_sumset(a, b))
        assert tuple(dense_sumset(SumSet(tuple(a)), SumSet(tuple(b))).values.tolist()) == expected


def test_split_exact_on_wide_ranges():
    rng = np.random.default_rng(3)
    # values spread over 2**40: far beyond the FFT hull limit
    for trial in range(5):
        a = sorted(set(int(v) for v in rng.integers(0, 1 << 40, size=80)))
        b = sorted(set(int(v) for v in rng.integers(0, 1 << 40, size=70)))
        got = tuple(dense_sumset(SumSet(tuple(a)), SumSet(tuple(b))).values.tolist())
        assert got == tuple(pairwise_sumset(a, b))
    # a narrow left operand: only the right one can be halved
    a = [7, 8, 12]
    b = sorted(set(int(v) for v in rng.integers(0, 1 << 40, size=3000)))
    got = tuple(dense_sumset(SumSet(tuple(a)), SumSet(tuple(b))).values.tolist())
    assert got == tuple(pairwise_sumset(a, b))


def test_split_exact_on_structured_collisions():
    # long arithmetic progressions whose hull is ~15% above the FFT limit;
    # every sum lies on the progression, so the halves' outputs overlap
    step, big = 601, 1 << 30
    a = SumSet(tuple(big + x for x in range(0, 5000 * step, step)))
    b = SumSet(tuple(range(0, 3000 * step, step)))
    assert (a.max() - a.min()) + (b.max() - b.min()) + 1 > HULL_FFT_LIMIT
    expected = tuple(range(big, big + (5000 + 3000 - 1) * step, step))
    assert tuple(dense_sumset(a, b).values.tolist()) == expected


@pytest.mark.parametrize("excess", [0, 1])
def test_hull_limit_boundary(monkeypatch, fft_hulls, excess):
    # 600 scattered values per operand are ~360k run pairs, more than
    # RUN_PAIRS_MAX: hull == HULL_FFT_LIMIT takes one FFT row and no
    # split; one more splits the wider operand, and no FFT row exceeds
    # the limit
    splits, split_pair = [], sumset._split_pair

    def split_spy(level, i):
        splits.append(i)
        return split_pair(level, i)

    monkeypatch.setattr(sumset, "_split_pair", split_spy)
    rng = np.random.default_rng(40 + excess)
    hull = HULL_FFT_LIMIT + excess
    da = hull // 2
    db = hull - 1 - da
    a = sorted({0, da, *(int(v) for v in rng.integers(0, da, size=600))})
    b = sorted({0, db, *(int(v) for v in rng.integers(0, db, size=600))})
    assert len(a) * len(b) > sumset.RUN_PAIRS_MAX
    got = tuple(dense_sumset(SumSet(tuple(a)), SumSet(tuple(b))).values.tolist())
    assert got == tuple(pairwise_sumset(a, b))
    if excess == 0:
        assert fft_hulls == [HULL_FFT_LIMIT] and not splits
    else:
        assert splits and max(fft_hulls, default=0) <= HULL_FFT_LIMIT


def test_fft_backend_matches_pairwise(fft_hulls):
    rng = np.random.default_rng(4)
    a = tuple(sorted(set(int(v) for v in rng.integers(0, 3000, size=150))))
    b = tuple(sorted(set(int(v) for v in rng.integers(0, 3000, size=150))))
    out, observed = _pair_level(level_of((a, b)), math.inf)
    assert len(fft_hulls) == 1 and observed is None
    assert tuple(out[0].tolist()) == tuple(pairwise_sumset(a, b))


def test_sumsets_are_read_only_int64_arrays(monkeypatch, fft_hulls):
    # every producer gives a 1-D int64 array that cannot be written
    a = SumSet(np.arange(0, 3000, 7))
    b = SumSet(np.arange(5, 4000, 11))
    outs = [dense_sumset(S(1, 2, 3), S(4, 10)), dense_sumset(a, b)]
    assert len(fft_hulls) == 1
    monkeypatch.setattr(sumset, "HULL_FFT_LIMIT", 1024)
    outs.append(dense_sumset(a, b))
    assert len(fft_hulls) > 2
    outs += [bounded_subset_sums(multiset([3, 5, 9]), 17), dense_interval_set(3, 100, 2), cap(a, 10, 100), S()]
    for out in outs:
        v = out.values
        assert v.ndim == 1 and v.dtype == np.int64 and not v.flags.writeable
        with pytest.raises(ValueError):
            v[:1] = 7
    assert outs[1] == outs[2]
    assert _sum_values(np.array([0, 4]), np.array([0, 1])).tolist() == [0, 1, 4, 5]
    # the caller's writable array is copied, not aliased
    mine = np.array([1, 4, 9], dtype=np.int64)
    s = SumSet(mine)
    mine[0] = 3
    assert s.values.tolist() == [1, 4, 9] and not np.shares_memory(s.values, mine)
    assert mine.flags.writeable
    # scalar accessors give Python ints and bools
    assert [type(x) for x in (s.min(), s.max(), s.dm(), len(s), *s)] == [int] * 7
    assert type(4 in s) is bool and type(5 in s) is bool and type(s.is_empty) is bool
    assert (4 in s, 5 in s, s.dm()) == (True, False, 9)
    # tuple, list, array and `of` inputs give equal sets with equal hashes
    forms = [SumSet((1, 4, 9)), SumSet([1, 4, 9]), SumSet(np.array([1, 4, 9])), SumSet.of((9, 1, 4, 4)), s]
    assert all(f == s for f in forms) and len({hash(f) for f in forms}) == 1
    assert len({f: None for f in forms}) == 1
    assert s != SumSet((1, 4)) and s != (1, 4, 9)


def test_membership_and_cap_outside_int64():
    s = S(0, 5, 2**62)
    for x in (2**63, 2**64 + 5, 2**100, -1, -(2**70)):
        assert x not in s
    assert 2**62 in s and 2**62 + 1 not in s and 2**63 not in S()
    assert cap(s, -(2**70), 2**70) == s
    assert cap(s, -(2**70), -1).is_empty and cap(s, 2**63, 2**70).is_empty
    assert cap(s, 1, 2**64).values.tolist() == [5, 2**62]


def test_sumset_commutative_associative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = SumSet.of(int(v) for v in rng.integers(0, 500, size=10))
        b = SumSet.of(int(v) for v in rng.integers(0, 500, size=10))
        c = SumSet.of(int(v) for v in rng.integers(0, 500, size=10))
        assert dense_sumset(a, b) == dense_sumset(b, a)
        left = dense_sumset(dense_sumset(a, b), c)
        right = dense_sumset(a, dense_sumset(b, c))
        assert left == right


def test_cap_examples():
    assert cap(S(1, 5, 9), 4, 9).values.tolist() == [5, 9]
    assert cap(S(1, 2), 5, 6).is_empty
    nested = cap(cap(S(1, 5, 9, 12), 2, 11), 4, 9)
    assert nested == cap(S(1, 5, 9, 12), 4, 9)
    with pytest.raises(ValueError):
        cap(S(1), 3, 2)


def test_pair_level_returns_level():
    level = level_of([[0, 1], [0, 2], [0, 4], [0, 8]])
    out, observed = _pair_level(level, 100)
    assert observed is None
    assert [z.tolist() for z in out] == [[0, 1, 2, 3], [0, 4, 8, 12]]


def test_pair_level_trips_midway():
    level = level_of([[0, 1], [0, 2], [0, 4], [0, 8]])
    out, observed = _pair_level(level, 5)
    # first output has size 4 < 5; the second pushes the total to 8
    assert observed == 8
    assert [z.tolist() for z in out] == [[0, 1, 2, 3], [0, 4, 8, 12]]
    # a budget no larger than the first output stops right after it
    for budget in (1, 2, 4):
        out, observed = _pair_level(level, budget)
        assert observed == 4
        assert [z.tolist() for z in out] == [[0, 1, 2, 3]]


def test_pair_level_contract_fuzz():
    rng = np.random.default_rng(9)
    for _ in range(120):
        ell = 2 * int(rng.integers(1, 9))
        sets = []
        for _ in range(ell):
            size = int(rng.integers(1, 6))
            sets.append(SumSet.of(int(v) for v in rng.integers(0, 40, size=size)))
        full = [
            tuple(pairwise_sumset(sets[2 * i].values, sets[2 * i + 1].values))
            for i in range(ell // 2)
        ]
        total = sum(len(f) for f in full)
        budget = int(rng.integers(1, total + 4))
        out, observed = _pair_level(level_of([s.values for s in sets]), budget)
        if observed is not None:
            assert total >= budget
            stop = len(out)
            assert observed == sum(len(f) for f in full[:stop]) >= budget > sum(len(f) for f in full[: stop - 1])
            assert [tuple(z.tolist()) for z in out] == full[:stop]
        else:
            assert [tuple(z.tolist()) for z in out] == full
            assert total < budget


# hulls above the limit the level test patches in (128): two runs per
# operand; and five isolated values each, 25 run pairs, above the run
# pairs the test patches in (24) though below a quarter of the hull (751)
WIDE_RUNS = ((0, 1, 2, 100, 101), (0, 1, 30, 31))
WIDE_CAPPED = ((0, 100, 200, 300, 400), (0, 50, 150, 250, 350))


def _random_level_sets(rng):
    """Operand sets for one level, pairs in random order: pairs with an
    empty operand; pairs of intervals, of step-3 progressions, of unions
    of a few intervals and of small scattered sets (values in [0, 8], so
    that sums collide); scattered pairs with hull <= 121 and many runs
    (convolved); WIDE_RUNS, WIDE_CAPPED, and a scattered pair with hull 161
    and many runs, which is returned with the level's sets."""

    def draw(size, hi, ends=False):
        vals = {int(v) for v in rng.integers(0, hi + 1, size=size)}
        return tuple(sorted(vals | ({0, hi} if ends else set())))

    def interval(n, step=1):
        lo = int(rng.integers(0, 20))
        return tuple(range(lo, lo + step * n, step))

    def runs(k, hi):
        out = set()
        for lo in rng.integers(0, hi, size=k).tolist():
            out.update(range(lo, min(lo + int(rng.integers(1, 6)), hi + 1)))
        return tuple(sorted(out))

    wide_split = (draw(12, 100, ends=True), draw(10, 60, ends=True))
    pairs = [((), draw(3, 50)), (draw(2, 50), ()), ((), ())]
    pairs += [(interval(int(rng.integers(1, 30))), interval(int(rng.integers(1, 30)))) for _ in range(2)]
    pairs += [(interval(int(rng.integers(1, 8)), 3), interval(int(rng.integers(1, 8)), 3)) for _ in range(2)]
    pairs += [(runs(3, 60), runs(2, 60)) for _ in range(2)]
    pairs += [(draw(int(rng.integers(1, 5)), 8), draw(int(rng.integers(1, 5)), 8)) for _ in range(3)]
    pairs += [(draw(int(rng.integers(9, 14)), 60), draw(int(rng.integers(9, 14)), 60)) for _ in range(3)]
    pairs += [WIDE_RUNS, WIDE_CAPPED, wide_split]
    order = rng.permutation(len(pairs))
    return [s for i in order for s in pairs[i]], wide_split


def _left_to_right_level(sets, budget, gaps=None):
    out, total = [], 0
    for i in range(len(sets) // 2):
        for _ in range(0 if gaps is None else gaps[i]):  # virtual {0} nodes, one at a time
            total += 1
            if total >= budget:
                return out, total
        x, y = sets[2 * i], sets[2 * i + 1]
        out.append(tuple(pairwise_sumset(x, y)) if x and y else ())
        total += len(out[-1])
        if total >= budget:
            return out, total
    return out, None


@pytest.mark.parametrize("chunk", [sumset.LEVEL_CHUNK_VALUES, 7])
def test_pair_level_matches_left_to_right_reference(monkeypatch, chunk):
    # every kernel path of the level (runs, FFT, split), every budget from
    # 1 to total + 1, levels in units of 1 and of 3, without and with
    # virtual {0} nodes before pairs, run batches halved at 24 run pairs,
    # and (chunk=7) a level split into many node-order chunks, which bounds
    # the values computed past the budget and past the stop
    monkeypatch.setattr(sumset, "RUN_PAIRS_MAX", 24)
    monkeypatch.setattr(sumset, "LEVEL_CHUNK_VALUES", chunk)
    calls = {"_run_rows": 0, "_fft_rows": 0, "_split_pair": 0, "_level_chunk": 0, "_sum_values": 0}
    computed, run_outputs, split_operands, step = [0], set(), set(), [1]
    splitting = [0]  # open `_split_pair` calls, whose inner levels count nothing
    for attr in calls:
        kernel = getattr(sumset, attr)

        def spy(*args, _kernel=kernel, _attr=attr):
            calls[_attr] += 1
            if _attr == "_split_pair":
                level, i = args
                split_operands.add((tuple(level[2 * i].tolist()), tuple(level[2 * i + 1].tolist())))
                splitting[0] += 1
            try:
                out = _kernel(*args)
            finally:
                splitting[0] -= _attr == "_split_pair"
            if _attr == "_level_chunk" and not splitting[0]:
                computed[0] += int(out[0].sum())
            elif _attr == "_run_rows":
                runs = Level(out[2], out[3], sumset._offsets(out[1]), step[0])
                run_outputs.update(tuple(z.tolist()) for z in runs)
            return out

        monkeypatch.setattr(sumset, attr, spy)
    rng, gap_rng = np.random.default_rng(17), np.random.default_rng(29)
    for scale in (1, 3):
        monkeypatch.setattr(sumset, "HULL_FFT_LIMIT", 128 * scale)
        sets, wide_split = _random_level_sets(rng)
        sets = [tuple(scale * v for v in s) for s in sets]
        wide_runs = [tuple(scale * v for v in s) for s in WIDE_RUNS]
        wide_capped = tuple(tuple(scale * v for v in s) for s in WIDE_CAPPED)
        wide_split = tuple(tuple(scale * v for v in s) for s in wide_split)
        level, step[0] = level_of(sets, scale), scale
        # the largest output-size bound of one pair
        pair_bound = max(
            min(len(a) * len(b), a[-1] - a[0] + b[-1] - b[0] + 1)
            for a, b in zip(sets[0::2], sets[1::2])
            if a and b
        )
        # half the pairs follow a gap of 1 to 5 virtual nodes
        m = len(sets) // 2
        gaps = gap_rng.integers(1, 6, size=m) * (gap_rng.random(m) < 0.5)
        full, _ = _left_to_right_level(sets, float("inf"))
        for gap in (None, gaps):
            total = sum(map(len, full)) + (0 if gap is None else int(gap.sum()))
            for budget in range(1, total + 2):
                computed[0] = 0
                out, observed = _pair_level(level, budget, gap)
                expected, expected_observed = _left_to_right_level(sets, budget, gap)
                assert observed == expected_observed
                assert [tuple(z.tolist()) for z in out] == expected
                # and no runs past the last node
                assert out.values().tolist() == [v for z in expected for v in z]
                if observed is not None:
                    assert computed[0] <= budget + chunk + pair_bound
                    assert computed[0] - sum(map(len, expected)) <= chunk + pair_bound
        # wide pairs: few runs take the run kernel; many runs, or more run
        # pairs than RUN_PAIRS_MAX, the split
        assert tuple(pairwise_sumset(*wide_runs)) in run_outputs
        assert tuple(wide_runs) not in split_operands
        assert wide_split in split_operands
        assert wide_capped in split_operands
        assert tuple(pairwise_sumset(*wide_capped)) not in run_outputs
    # the level never leaves numpy for the tuple adapter
    assert calls.pop("_sum_values") == 0 and all(calls.values()), calls


def test_level_cap_matches_per_node_cap():
    rng = np.random.default_rng(23)
    sets, _ = _random_level_sets(rng)
    # values above 199, one near the top of int64, so that the cap whose hi
    # lies above int64 keeps values
    sets += [(150, 199, 200), (7, (1 << 63) - 2)]
    level = level_of(sets)
    for lo, hi in ((-5, 400), (0, 0), (30, 60), (61, 59), (199, 1 << 70)):
        got = [tuple(z.tolist()) for z in level.cap(lo, hi)]
        assert got == [tuple(v for v in s if lo <= v <= hi) for s in sets]
