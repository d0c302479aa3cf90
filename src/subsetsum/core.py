"""Domain types, instance normalization, and deterministic randomness.

Conventions used throughout the package:

  * All logarithms are base 2.  Where a logarithm is used as a count
    (number of layers, rounds, repetitions) it is taken as a ceiling.
  * For an empty multiset, max = min = sigma = 0, and the diameter of an
    empty value set is 1.
  * All sums fit in 64 bits.  This is enforced at instance construction
    (n * w < 2**63), so plain Python ints never silently overflow numpy
    intermediates.
  * An instance reads its items into int64 once, at construction, and
    keeps them as sorted distinct values with their counts
    (`Instance.multiset`); no later stage converts its Python ints again.
  * Randomness is never global.  Every randomized routine takes an
    explicit stream obtained from :func:`rng_stream`, so a fixed seed
    reproduces a run bit-for-bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional

import numpy as np

MASK64 = (1 << 64) - 1
OVERFLOW_LIMIT = 1 << 63


class InvalidInstanceError(ValueError):
    """Raised when an instance violates its declared domain."""


class InternalConsistencyError(RuntimeError):
    """Raised when internally assembled evidence fails its own checks.

    This always indicates an implementation bug, never a bad input.
    """


class OracleBudgetError(RuntimeError):
    """Raised when an exact oracle would exceed its time/memory budget."""


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x.  ceil_log2(1) == 0."""
    if x < 1:
        raise ValueError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


def next_pow2(x: int) -> int:
    """Smallest power of two >= max(x, 1)."""
    return 1 << ceil_log2(max(x, 1))


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def target_window(w: int, t: int) -> int:
    """Width ceil(5 * sqrt(w*t) * log2 max(w, 2)) of the target window.

    The sparse path looks for dense-part sums in [t - window, t]; colour
    coding sizes its diameter bound u' from the same width.
    """
    return math.ceil(5 * math.sqrt(w * t) * math.log2(max(w, 2)))


@dataclass(frozen=True)
class Instance:
    """A subset-sum instance: positive integer items and a target.

    The constructor reads the items once into an int64 array and checks
    them there.  `items` is the tuple of the items as Python ints, in
    input order; `n`, `w` and `sigma` are derived from the array; `w` is
    the maximum item (0 for an empty item list) and `sigma` the sum of
    all items.  `multiset` is the items as their sorted distinct values
    and the count of each, two read-only int64 arrays, which the split
    reads instead of the items; it takes no part in `==`, `hash` or
    `repr`.
    """

    items: tuple[int, ...]
    target: int
    n: int = field(init=False)
    w: int = field(init=False)
    sigma: int = field(init=False)
    multiset: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = self.items if isinstance(self.items, (list, tuple)) else list(self.items)
        try:
            arr = np.fromiter(items, dtype=np.int64, count=len(items))
        except OverflowError:
            arr = None
        target = int(self.target)
        object.__setattr__(self, "target", target)
        if arr is None or arr.size and arr.min() < 1:
            # an item below 1, or outside int64 (which raised, or wrapped
            # below 1 where numpy casts a numpy scalar): check Python ints
            ints = [int(x) for x in items]
            if min(ints) < 1:
                raise InvalidInstanceError("all items must be >= 1")
            w = max(ints)  # at least 2**63, so the guard below fails
        else:
            w = int(arr.max()) if arr.size else 0
        if target < 0:
            raise InvalidInstanceError("target must be >= 0")
        n = len(items)
        # Overflow guard: all subset sums must stay below 2**63.
        if n * max(w, 1) >= OVERFLOW_LIMIT or target >= OVERFLOW_LIMIT:
            raise InvalidInstanceError("instance exceeds 64-bit sum guard (n*w < 2**63)")
        values, counts = np.unique(arr, return_counts=True)
        counts = counts.astype(np.int64, copy=False)
        values.flags.writeable = counts.flags.writeable = False
        object.__setattr__(self, "items", tuple(arr.tolist()))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "sigma", int(arr.sum()))
        object.__setattr__(self, "multiset", (values, counts))


def _int64_vector(values: Iterable[int]) -> np.ndarray:
    """values as a new 1-D int64 array; ValueError if that cannot hold them."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    try:
        v = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("SumSet values must lie in [0, 2**63)") from None
    if v.ndim != 1:
        raise ValueError("SumSet values must be one-dimensional")
    return v


@dataclass(frozen=True, eq=False)
class SumSet:
    """A set of achievable sums: a strictly increasing, read-only, 1-D
    int64 array of values in [0, 2**63).

    The constructor takes a strictly increasing sequence or array and
    stores a read-only copy, so a caller's array is never aliased; `of`
    takes any iterable of integers.  Values outside int64, negative or
    non-increasing values and arrays that are not 1-D raise ValueError.
    Iteration, `len`, `in`, `min`, `max` and `dm` give Python ints and
    bools.  Two SumSets are equal when they hold the same values, and hash
    by them.  The empty set is allowed and means "no achievable sum"; by
    convention its max and min are 0 and its diameter is 1.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _int64_vector(self.values)
        if v.size and v[0] < 0:
            raise ValueError("SumSet values must be non-negative")
        if not (v[1:] > v[:-1]).all():
            raise ValueError("SumSet values must be strictly increasing")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def of(cls, values: Iterable[int]) -> "SumSet":
        return cls(np.unique(_int64_vector(values)))

    @classmethod
    def empty(cls) -> "SumSet":
        return cls(())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SumSet):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())

    def __contains__(self, x: int) -> bool:
        v = self.values
        # bounds first: searchsorted cannot take integers outside int64
        if not v.size or not int(v[0]) <= x <= int(v[-1]):
            return False
        return bool(v[np.searchsorted(v, x)] == x)

    @property
    def is_empty(self) -> bool:
        return not self.values.size

    def min(self) -> int:
        return int(self.values[0]) if self.values.size else 0

    def max(self) -> int:
        return int(self.values[-1]) if self.values.size else 0

    def dm(self) -> int:
        """Diameter max - min + 1 (1 for the empty set)."""
        return self.max() - self.min() + 1


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for the randomized solver.

    error_q is the per-phase error parameter; None means
    min(0.01, 1/(n+t)) chosen per instance.  checked_mode re-verifies
    dense-branch yes answers with the exact DP on small instances and
    enables extra internal assertions.  eta_mult scales the concentration
    constant in the merge windows, and budget_mult scales the budget tail
    4 * c_ap * rho * u' * ceil(log2 u') of the dense-trip threshold, whose
    non-constructive arithmetic-progression constant c_ap is taken as 1
    (`colorcoding._budget_tail`), so budget_mult is its one scale.  Both
    multipliers default to 1.0, the faithful setting, and must be finite
    and positive.  budget_mult < 1 is a diagnostic device to make dense
    trips reachable on desk-scale inputs.
    """

    error_q: Optional[float] = None
    seed: int = 0
    checked_mode: bool = False
    fallback_only: bool = False
    eta_mult: float = 1.0
    budget_mult: float = 1.0

    def __post_init__(self):
        if self.error_q is not None and not (0.0 < self.error_q < 1.0):
            raise ValueError("error_q must be in (0, 1)")
        for name in ("eta_mult", "budget_mult"):
            # written so that nan fails too
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    def q_for(self, n: int, t: int) -> float:
        if self.error_q is not None:
            return self.error_q
        return min(0.01, 1.0 / max(n + t, 2))


@dataclass
class SolveOutcome:
    """Result of a solver run.

    decision is True for "yes".  branch records which path produced the
    decision: 'sparse', 'dense', 'fallback-dp' or 'trivial'.  On the
    sparse branch a yes decision is certified: t was found in a set that
    is a subset of the instance's true subset sums by construction.
    """

    decision: bool
    branch: str
    candidate_set_size: int
    dense_evidence: Optional[object]
    seed: int
    timings: dict[str, int]
    report: Optional[object] = None


@dataclass(frozen=True)
class NormalizeResult:
    """Outcome of target normalization.

    trivial is 'yes' or 'no' when the decision is immediate, else None.
    When complemented is True the returned instance has target
    sigma - original_target.
    """

    instance: Instance
    complemented: bool
    trivial: Optional[str]


def normalize(instance: Instance) -> NormalizeResult:
    """Reduce to a target at most half the total sum.

    Targets above sigma are trivially no; target 0 and target sigma are
    trivially yes (empty set / full set).  Otherwise, if t > sigma/2 the
    target is replaced by sigma - t, which has the same answer.
    """
    t, sigma = instance.target, instance.sigma
    if t > sigma:
        return NormalizeResult(instance, False, "no")
    if t == 0 or t == sigma:
        return NormalizeResult(instance, False, "yes")
    if 2 * t > sigma:
        return NormalizeResult(_with_target(instance, sigma - t), True, None)
    return NormalizeResult(instance, False, None)


def _with_target(instance: Instance, target: int) -> Instance:
    """The instance with another target in [0, sigma], equal to
    `Instance(instance.items, target)` (multiset included), built from the
    instance's checked fields and arrays: reading the items again took
    1.1 ms at n = 42,352 (2-core x86 VM, numpy 2.4)."""
    out = object.__new__(Instance)
    for f in fields(Instance):
        object.__setattr__(out, f.name, getattr(instance, f.name))
    object.__setattr__(out, "target", target)
    return out


def rng_stream(seed: int, label: bytes | str) -> np.random.Generator:
    """Deterministic random stream for (seed, label).

    Distinct labels give independent-looking streams from one seed.  The
    label is hashed into the seed material so callers can use readable
    stream names.  Streams support uniform integer draws and
    permutations via the numpy Generator API.
    """
    if isinstance(label, str):
        label = label.encode("utf-8")
    digest = hashlib.blake2b(label, digest_size=32).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    ss = np.random.SeedSequence([seed & MASK64, *words])
    return np.random.Generator(np.random.Philox(ss))
