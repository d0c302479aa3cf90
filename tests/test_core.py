import numpy as np
import pytest

from subsetsum.core import (
    Instance,
    InvalidInstanceError,
    SolverConfig,
    SumSet,
    normalize,
    rng_stream,
)


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


def test_normalize_complements_large_targets():
    res = normalize(Instance((3, 5), 7))
    assert res.complemented and res.trivial is None
    assert res.instance.target == 1


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
    with pytest.raises(ValueError):
        SolverConfig(c_ap=0)
    with pytest.raises(ValueError):
        SolverConfig(error_q=1.0)
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
