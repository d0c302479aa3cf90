import numpy as np
import pytest

from subsetsum.core import Instance
from subsetsum.sumset import _value_counts
from subsetsum.structure import (
    _peel,
    alpha_for,
    distinct_primes,
    extract_residue_set,
    find_almost_divisor,
    partition_instance,
    verify_partition,
)

from oracles import almost_divisors, factorize, residues_covered


def test_factorize_examples():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    big = 97 * 89
    assert factorize(big) == {89: 1, 97: 1}


def test_factorize_reconstructs_and_is_prime():
    rng = np.random.default_rng(2)
    items = [int(v) for v in rng.integers(1, 10**6, size=120)]
    for x in items:
        prod = 1
        for p, e in factorize(x).items():
            assert p >= 2 and all(p % q for q in range(2, min(p, 1000)) if q * q <= p)
            prod *= p**e
        assert prod == x


def test_factorize_range_check():
    for bad in ([0], [5, 0, 7], [3, -2]):
        with pytest.raises(ValueError, match="items must be >= 1"):
            distinct_primes(bad)


def test_distinct_primes_match_per_item_factorizations():
    rng = np.random.default_rng(21)
    w = 10**6
    # 1, a prime square, a product of two primes and a prime above sqrt(w)
    specials = [1, 997 * 997, 97 * 89, 999_983]
    assert distinct_primes(specials) == [89, 97, 997, 999_983]
    assert distinct_primes([]) == [] and distinct_primes([1, 1]) == []
    for _ in range(40):
        items = [int(v) for v in rng.integers(1, w + 1, size=int(rng.integers(0, 60)))] + specials
        items = [int(x) for x in rng.permutation(items)]
        assert distinct_primes(items) == sorted({p for x in items for p in factorize(x)})


def test_find_almost_divisor_examples():
    assert find_almost_divisor([2, 4, 6, 3], 1) == 2
    assert find_almost_divisor([2, 3, 5, 7], 0) is None
    assert find_almost_divisor([4, 8, 12], 0) == 2


def test_find_almost_divisor_agrees_with_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 61))
        w = int(rng.integers(2, 60))
        items = [int(v) for v in rng.integers(1, w + 1, size=n)]
        alpha = int(rng.integers(0, 9))
        truth = almost_divisors(items, alpha, max(items))
        got = find_almost_divisor(items, alpha)
        # 2 is an almost divisor of any multiset with n <= alpha even
        # when it exceeds every item, so truth may miss it.
        if n <= alpha:
            assert got == 2
        elif truth:
            # the smallest almost divisor is prime, and it is the one returned
            assert got == min(truth)
        else:
            assert got is None


def _peel_items(items, alpha):
    """`_peel` of the items' multiset, with its parts as sorted item arrays."""
    d, peeled, leftovers = _peel(*_value_counts(items), alpha)
    return d, np.repeat(*peeled), np.repeat(*leftovers)


def test_peel_divisors_examples():
    d, peeled, leftovers = _peel_items(np.array([2, 4, 6, 8]), 1)
    assert (d, peeled.tolist(), leftovers.tolist()) == (2, [1, 2, 3, 4], [])
    assert find_almost_divisor(peeled, 1) is None

    d, peeled, leftovers = _peel_items(np.array([3, 5, 7]), 0)
    assert (d, peeled.tolist(), leftovers.tolist()) == (1, [3, 5, 7], [])

    d, peeled, leftovers = _peel_items(np.array([4, 5, 8, 12]), 1)
    assert d % 2 == 0
    assert 5 in leftovers
    for arr in (peeled, leftovers):
        assert arr.dtype == np.int64 and np.all(np.diff(arr) >= 0)


def test_peel_divisors_postconditions():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        w = int(rng.integers(2, 80))
        items = [int(v) for v in rng.integers(1, w + 1, size=n)]
        alpha = int(rng.integers(1, 4))
        d, peeled, leftovers = _peel_items(np.sort(items), alpha)
        if peeled.size:
            assert find_almost_divisor(peeled, alpha) is None
        # multiset identity at the original scale
        rebuilt = sorted([x * d for x in peeled.tolist()] + leftovers.tolist())
        assert rebuilt == sorted(items)
        assert len(leftovers) <= alpha * (max(items).bit_length() + 1)


def test_extract_residue_set_alpha_one_keeps_seed():
    items = [3, 5, 7, 9, 11, 13, 15]
    r = extract_residue_set(items, 1)
    assert list(r) == [3, 5]  # first 2*alpha in sorted order, no primes <= 1


def test_extract_residue_set_covers_small_moduli():
    items = [1, 2, 3, 4, 5, 6, 7]
    alpha = 2
    assert find_almost_divisor(items, alpha) is None
    r = extract_residue_set(items, alpha)
    assert sum(1 for x in r if x % 2) >= 2
    assert residues_covered(r, 2) == {0, 1}


def test_extract_residue_set_random_coverage():
    rng = np.random.default_rng(5)
    done = 0
    while done < 150:
        n = int(rng.integers(4, 30))
        w = int(rng.integers(3, 100))
        items = [int(v) for v in rng.integers(1, w + 1, size=n)]
        alpha = int(rng.integers(1, 6))
        if find_almost_divisor(items, alpha) is not None:
            continue
        done += 1
        r = extract_residue_set(items, alpha, checked=True)
        assert sorted(r) == list(r)
        for b in range(2, alpha + 1):
            assert residues_covered(r, b) == set(range(b))


def test_extract_residue_set_checked_rejects_bad_input():
    with pytest.raises(ValueError, match="almost divisor"):
        extract_residue_set([4, 8, 12, 16, 20, 24, 28, 32], 1, checked=True)


def test_alpha_for_is_ceiling_sqrt():
    assert alpha_for(1, 5) == 1
    assert alpha_for(100, 1) == 10
    assert alpha_for(101, 1) == 11
    assert alpha_for(50, 2) == 5


def test_partition_coprime_small():
    inst = Instance((3, 5, 7, 11), 13)
    part = partition_instance(inst)
    assert part.divisor == 1
    assert part.leftover_part.tolist() == []
    verify_partition(part, inst)


def test_partition_parts_are_read_only_int64_arrays():
    # (2, 4, ..., 40) peels the divisor 2; (1,) * 3 peels everything
    for items, t in (((3, 5, 7, 11), 13), (tuple(range(2, 42, 2)), 60), ((1, 1, 1), 1)):
        inst = Instance(items, t)
        part = partition_instance(inst)
        for p in (part.leftover_part, part.residue_part, part.dense_part):
            assert isinstance(p, np.ndarray) and p.dtype == np.int64 and p.ndim == 1
            assert not p.flags.writeable
            assert np.all(p[1:] >= p[:-1])
        again = partition_instance(inst)
        assert again == part and hash(again) == hash(part)
        assert again != partition_instance(Instance(items + (max(items),), t))


def test_partition_structured_divisible():
    inst = Instance((6, 12, 18, 24, 30), 36)
    part = partition_instance(inst)
    assert part.divisor > 1
    assert part.leftover_part.tolist() == []
    assert all(x % part.divisor == 0 for x in part.residue_part.tolist() + part.dense_part.tolist())
    verify_partition(part, inst)


def test_partition_invariants_random_sweep():
    rng = np.random.default_rng(6)
    for _ in range(250):
        n = int(rng.integers(1, 40))
        w = int(rng.integers(2, 60))
        items = tuple(int(v) for v in rng.integers(1, w + 1, size=n))
        t = int(rng.integers(1, max(2, sum(items) // 2 + 1)))
        inst = Instance(items, t)
        part = partition_instance(inst)
        verify_partition(part, inst)
        assert part.alpha == alpha_for(t, inst.w)
        if part.residue_part.size or part.dense_part.size:
            # peeling left a bulk with no almost divisor, so the residue
            # part covers every small modulus
            reduced = [x // part.divisor for x in part.residue_part.tolist()]
            for b in range(2, part.alpha + 1):
                assert residues_covered(reduced, b) == set(range(b))


def test_partition_coverage_in_solver_regime():
    # generation keeps n comfortably above alpha * log2(w), the regime
    # where peeling cannot consume the whole multiset
    rng = np.random.default_rng(7)
    for _ in range(120):
        w = int(rng.integers(2, 40))
        n = int(rng.integers(40, 160))
        items = tuple(int(v) for v in rng.integers(1, w + 1, size=n))
        lg = max(items).bit_length()
        alpha_cap = max(1, n // (4 * (lg + 1)))
        alpha_target = int(rng.integers(1, alpha_cap + 1))
        t = min(max(alpha_target * alpha_target * w, 1), sum(items) // 2)
        if t < 1:
            continue
        inst = Instance(items, t)
        part = partition_instance(inst)
        verify_partition(part, inst)
        assert part.residue_part.size or part.dense_part.size
        reduced = [x // part.divisor for x in part.residue_part.tolist()]
        for b in range(2, part.alpha + 1):
            assert residues_covered(reduced, b) == set(range(b))


def test_partition_does_not_depend_on_item_order():
    # the split reads the instance's distinct values and counts, so the
    # same multiset in any order gives the same partition
    rng = np.random.default_rng(8)
    for _ in range(80):
        w = int(rng.integers(2, 60))
        d = int(rng.choice([1, 2, 6]))
        items = [d * v for v in rng.integers(1, w + 1, size=int(rng.integers(1, 80))).tolist()]
        items += rng.integers(1, d * w + 1, size=int(rng.integers(0, 4))).tolist()
        t = int(rng.integers(1, sum(items) + 1))
        part = partition_instance(Instance(items, t))
        for order in (items[::-1], rng.permutation(items).tolist()):
            again = partition_instance(Instance(order, t))
            assert again == part and hash(again) == hash(part)
