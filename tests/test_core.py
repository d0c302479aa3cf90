import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsum import core
from subsetsum.core import (
    Instance,
    InvalidInstanceError,
    SolverConfig,
    normalize,
    rng_stream,
)
from subsetsum.sumset import SumSet

from oracles import reference_instance


def test_instance_derives_bounds():
    inst = Instance((3, 5), 4)
    assert (inst.n, inst.w, inst.sigma) == (2, 5, 8)
    empty = Instance((), 0)
    assert (empty.n, empty.w, empty.sigma) == (0, 0, 0)


def test_instance_rejects_bad_items():
    with pytest.raises(InvalidInstanceError):
        Instance((0, 3), 1)
    with pytest.raises(InvalidInstanceError):
        Instance((3,), -1)


def test_instance_overflow_guard():
    with pytest.raises(InvalidInstanceError):
        Instance((2**62, 2**62), 5)
    Instance((2**61,), 5)  # n*w = 2**61 is fine


_NEAR = st.builds(
    lambda base, delta: base + delta,
    st.sampled_from([0, 1, 1 << 62, 1 << 63, -(1 << 70)]),
    st.integers(-3, 3),
)
_KINDS = ("tuple", "list", "generator", "ndarray", "bools", "numpy-scalars")


def _as_kind(values, kind):
    """A fresh input of the given kind holding values: an int64 or uint64
    array when one holds them all (else a tuple); bools are the values'
    parities; numpy scalars are int64 or uint64 where one holds the
    value, and Python ints otherwise."""
    fits = {
        dtype: all(np.iinfo(dtype).min <= v <= np.iinfo(dtype).max for v in values)
        for dtype in (np.int64, np.uint64)
    }
    if kind == "tuple":
        return tuple(values)
    if kind == "list":
        return list(values)
    if kind == "generator":
        return (v for v in values)
    if kind == "ndarray":
        dtype = next((d for d, ok in fits.items() if ok), None)
        return np.array(values, dtype=dtype) if dtype else tuple(values)
    if kind == "bools":
        return [bool(v & 1) for v in values]
    return [np.int64(v) if -(1 << 63) <= v < 1 << 63 else np.uint64(v) if 0 <= v < 1 << 64 else v for v in values]


def _outcome(build):
    try:
        return build(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@given(
    values=st.lists(st.one_of(_NEAR, st.integers(1, 1000)), max_size=6),
    kind=st.sampled_from(_KINDS),
    target=st.one_of(_NEAR, st.integers(0, 10**6)),
)
@settings(max_examples=400, deadline=None)
def test_instance_matches_per_item_constructor(values, kind, target):
    got, error = _outcome(lambda: Instance(_as_kind(values, kind), target))
    ref, ref_error = _outcome(lambda: reference_instance(_as_kind(values, kind), target))
    assert error == ref_error
    if ref is None:
        return
    items, target, n, w, sigma = ref
    assert (got.items, got.target, got.n, got.w, got.sigma) == ref
    assert all(type(x) is int for x in got.items) and type(got.target) is int
    assert got == Instance(items, target) and hash(got) == hash(ref)
    assert repr(got) == f"Instance(items={items!r}, target={target!r}, n={n!r}, w={w!r}, sigma={sigma!r})"
    want = np.unique(np.array(items, dtype=np.int64), return_counts=True)
    for arr, expected in zip(got.multiset, want):
        assert arr.dtype == np.int64 and arr.ndim == 1 and not arr.flags.writeable
        assert np.array_equal(arr, expected)


def test_instance_errors_outside_int64():
    for items, target, message in (
        ((-(1 << 70),), 1, "all items must be >= 1"),
        ((1 << 63,), 1, "instance exceeds 64-bit sum guard"),
        ((1 << 63,), -1, "target must be >= 0"),
        ((1 << 63, 0), 1, "all items must be >= 1"),
        ((0,), 1, "all items must be >= 1"),
        ((1 << 62, 1 << 62), 1, "instance exceeds 64-bit sum guard"),
    ):
        with pytest.raises(InvalidInstanceError, match=message):
            Instance(items, target)


def test_non_integer_input_is_refused():
    # the int64 reading truncates a fraction, which once solved another
    # instance: (1.5, 2.7) read as (1, 2) and a target of 2.9 as 2
    for items, target, message in (
        ((1.5, 2.7), 2, "items must be integers"),
        (np.array([2.0, 1.5]), 1, "items must be integers"),
        ((float("nan"),), 1, "items must be integers"),
        ((3, 4), 2.9, "target must be an integer"),
    ):
        with pytest.raises(InvalidInstanceError, match=message):
            Instance(items, target)
    # an integral value reads back unchanged, so it passes
    assert Instance((2.0, np.int64(3)), 3.0) == Instance((2, 3), 3)
    for values in ([0.5, 1.5], np.array([0.5, 1.5])):
        with pytest.raises(ValueError, match="integers"):
            SumSet(values)
    with pytest.raises(ValueError, match="integers"):
        SumSet.of([2.5])
    assert SumSet([0.0, 1.0]) == SumSet((0, 1))


def test_normalize_complements_large_targets():
    res = normalize(Instance((3, 5), 7))
    assert res.complemented and res.trivial is None
    assert res.instance.target == 1


def test_complemented_instance_equals_a_fresh_one(monkeypatch):
    # built from the parent's fields and arrays, not by reading the items
    # again, yet equal to the instance constructed with the new target
    items = np.random.default_rng(3).integers(1, 17, size=500).tolist()
    inst = Instance(items, 3000)
    monkeypatch.setattr(core.np, "fromiter", lambda *a, **k: pytest.fail("items read again"))
    res = normalize(inst)
    monkeypatch.undo()
    fresh = Instance(items, inst.sigma - 3000)
    assert res.complemented and res.instance == fresh
    assert hash(res.instance) == hash(fresh) and repr(res.instance) == repr(fresh)
    assert (res.instance.n, res.instance.w, res.instance.sigma) == (fresh.n, fresh.w, fresh.sigma)
    for got, want in zip(res.instance.multiset, fresh.multiset):
        assert np.array_equal(got, want) and got.dtype == want.dtype and not got.flags.writeable


def test_normalize_keeps_half_targets():
    res = normalize(Instance((3, 5), 4))
    assert not res.complemented and res.trivial is None
    assert res.instance.target == 4


def test_normalize_trivial_cases():
    assert normalize(Instance((3, 5), 9)).trivial == "no"
    assert normalize(Instance((3, 5), 0)).trivial == "yes"
    assert normalize(Instance((3, 5), 8)).trivial == "yes"
    assert normalize(Instance((), 0)).trivial == "yes"


def test_normalize_involution_on_target():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        items = tuple(int(v) for v in rng.integers(1, 50, size=n))
        t = int(rng.integers(0, sum(items) + 1))
        res = normalize(Instance(items, t))
        if res.complemented:
            assert sum(items) - res.instance.target == t
            again = normalize(res.instance)
            assert not again.complemented or again.trivial is not None


def test_sumset_validation():
    with pytest.raises(ValueError):
        SumSet((3, 2))
    with pytest.raises(ValueError):
        SumSet((-1, 2))
    assert SumSet.of([4, 2, 2, 9]).values.tolist() == [2, 4, 9]


def test_sumset_empty_conventions():
    empty = SumSet.empty()
    assert empty.is_empty and len(empty) == 0
    assert empty.min() == 0 and empty.max() == 0 and empty.dm() == 1


def test_sumset_membership_and_diameter():
    s = SumSet((2, 5, 11))
    assert 5 in s and 6 not in s
    assert s.dm() == 10


def test_config_validation():
    # c_ap is no longer a setting: the dense threshold's constant is 1
    with pytest.raises(TypeError):
        SolverConfig(c_ap=1)
    with pytest.raises(ValueError):
        SolverConfig(error_q=1.0)
    for bad in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="^eta_mult must be finite and positive"):
            SolverConfig(eta_mult=bad)
        with pytest.raises(ValueError, match="^budget_mult must be finite and positive"):
            SolverConfig(budget_mult=bad)
    cfg = SolverConfig()
    assert cfg.q_for(100, 1000) == pytest.approx(1 / 1100)
    assert cfg.q_for(2, 3) == pytest.approx(0.01)


def test_rng_stream_is_deterministic():
    a = rng_stream(123, "phase1").integers(0, 1 << 30, size=16)
    b = rng_stream(123, "phase1").integers(0, 1 << 30, size=16)
    assert (a == b).all()


def test_rng_stream_label_separation():
    a = rng_stream(123, "phase1").integers(0, 1 << 30, size=16)
    b = rng_stream(123, "phase3").integers(0, 1 << 30, size=16)
    assert (a != b).any()


def test_rng_permutation_is_bijection():
    perm = rng_stream(5, "perm").permutation(8)
    assert sorted(int(x) for x in perm) == list(range(8))
