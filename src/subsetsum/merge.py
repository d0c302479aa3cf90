"""Final merge stage: random permutation, capped tree merging, and
checkable dense evidence.

The group sumsets are randomly permuted and merged pairwise, level by
level, under the same running size budget as the earlier stages.  After
each level every node is intersected with a short interval around
t / (groups merged so far): a random permutation concentrates the
contribution of any witness subset near its mean, so values outside the
window can be discarded without losing the witness (with high
probability), keeping node diameters small.  The window half-width eta
combines a concentration term with the width of the target window the
caller cares about; caps are widened by one on each side to absorb
integer rounding.

Each level is one `sumset.Level`: every node's maximal runs in units of
the family's common step (the gcd of its elements, which every sum and
cap keeps as a divisor), back to back.  The leaf level is stage two's
sets as they come (`GroupSumsets.sets`, a `Level` in that step),
permuted by one `take`, and each leaf's maximum is its last run's end;
each level goes through the level kernel `_pair_level` whole and comes
back as runs, so no level is expanded to values.  Every stage-two set
holds each element of its group, so the gcd of the leaves' values is
the family's step: the step that a merge derived from its leaf values
is the one it now takes.  The interval cap clips the runs, and the per-node
weights and subtree sums, the checked-mode bounds and the evidence sizes
(sums of run lengths) and maxima (last run ends) are all computed
level-wide from the offsets.  The root's runs, clipped to the target
window [t - window, t], are the returned SumSet as they are: no level,
the root included, is expanded to values.

When stage two reports its sets exact (each its group's full subset
sums) and no level can trip or cap (sigma(D) / step below the budget
tail, and eta + 1 >= max(t, sigma(D)), which the paper's constants give
whenever stage two is exact), the merge collapses: the root is every
subset sum of the dense part D, in whatever order the leaves come, and
only its values in the window are returned (`_collapses`).
`sumset.window_subset_sums` computes them with one shift-or DP on a
Python int over D's multiset (the family's distinct values and their
counts, so no item-sized array is read) in units of their gcd, the
step (Pisinger, "Dynamic programming on the word RAM", 2003), each
value's multiplicity split into powers of two (the bounded-to-0/1
reduction, as in Koiliaris and Xu, SODA 2017), cut at t and read back
as runs only in the window.  Its one size bound is memory: the DP raises
OracleBudgetError past `sumset.FALLBACK_MAX_BITS` bits, so a target
whose mask of t // step + 1 bits is past it stays on the kernel.  The
permutation is not drawn (the phase-3 stream is then never created), no
level, weight or cap is computed, and neither the stage-two sets nor the
groups' sums are read (the step and sigma(D) come from the multiset), so
stage two never builds the sets (see `colorcoding.GroupSumsets`).
Otherwise every level goes through the kernel.  Checked mode draws the
permutation, also reads the sets, requires each exact set's maximum to
be its group's sum, runs every level through the kernel with its
per-level checks, and for a collapse requires the same root in the
window.

A budget trip, here or in the color-coding stage, is converted into a
DenseEvidence record: per-node set sizes, a weight f per node (the
permuted-order subtree sums of the original group maxima, an exact
upper bound on each node's maximum and lower bound on its subtree
element sum), the tripped threshold and, for a trip here, the maxima of
the nodes computed before the stop, each per-node field the int64 array
the stage passes.  The record checks its three numeric conditions when
it is constructed, so every DenseEvidence that exists meets them; they
are exactly what the downstream interval decision relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import InternalConsistencyError, array_fields_eq, ceil_div, ceil_log2, target_window
from .colorcoding import DenseTripSignal, GroupFamily, GroupSumsets, _budget_tail
from .sumset import FALLBACK_MAX_BITS, SumSet, _pair_level, common_step, window_subset_sums


@dataclass(eq=False)
class DenseEvidence:
    """Numeric certificate that a budget trip really happened on a level
    whose total size crosses the structural threshold.

    Sets that are exactly {0} (size 1, zero weight, zero subtree sum)
    are carried as trivial_sets; the per-node fields describe the
    remaining sets, each read into an int64 array in node order (an int64
    array is held as it is).  set_sizes are exact for computed nodes and
    conservative lower bounds for nodes after the stop; f_values and
    sigma_values are exact for every node.  max_values is None (phase
    two, where f is each node's maximum) or the maxima of the nodes
    computed before the stop (phase three), a prefix of the node order.
    num_sets, trivial_sets plus the retained sets, is derived.  Records
    compare equal field by field, the arrays by their values.

    Construction checks the three conditions, and that rho >= 1, that the
    per-node fields have one entry per retained set (max_values at most
    one) and that every maximum is at most its node's weight:

      (i)   total size >= threshold, with threshold = number of sets
            plus the budget tail 4 * c_ap * rho * u_prime * ceil(log2 u_prime),
            with the paper's constant c_ap taken as 1 and the tail scaled
            by budget_mult, its one scale (`colorcoding._budget_tail`);
      (ii)  max(S_i) <= f(S_i) <= sigma(D_i) for every retained set;
      (iii) 3t/2 <= total weight <= rho * t / 2.

    A violation means the solver's own accounting is broken, so it raises
    InternalConsistencyError rather than reporting bad input.
    """

    source: str  # 'phase-two' | 'phase-three'
    t: int
    rho: int
    u_prime: int
    level: int
    threshold: int
    observed_total_size: int
    num_sets: int = field(init=False)
    trivial_sets: int
    set_sizes: np.ndarray
    f_values: np.ndarray
    sigma_values: np.ndarray
    max_values: Optional[np.ndarray] = None

    __eq__ = array_fields_eq

    def __post_init__(self) -> None:
        if self.rho < 1:
            raise InternalConsistencyError("evidence requires a positive density factor")
        sizes, f, sigma = (
            np.asarray(a, dtype=np.int64) for a in (self.set_sizes, self.f_values, self.sigma_values)
        )
        maxes = None if self.max_values is None else np.asarray(self.max_values, dtype=np.int64)
        self.set_sizes, self.f_values, self.sigma_values, self.max_values = sizes, f, sigma, maxes
        self.num_sets = self.trivial_sets + len(sizes)
        if not len(sizes) == len(f) == len(sigma) or (maxes is not None and len(maxes) > len(f)):
            raise InternalConsistencyError("size/weight bookkeeping length mismatch")
        if self.trivial_sets + int(sizes.sum()) < self.threshold:
            raise InternalConsistencyError("trip recorded but sizes below threshold")
        total_f = int(f.sum())
        if 2 * total_f < 3 * self.t:
            raise InternalConsistencyError("weight sum below 3t/2")
        if 2 * total_f > self.rho * self.t:
            raise InternalConsistencyError("weight sum above rho*t/2")
        if np.any(f > sigma):
            raise InternalConsistencyError("weight exceeds subtree sum")
        if maxes is not None and np.any(maxes > f[: len(maxes)]):
            raise InternalConsistencyError("set maximum exceeds weight")


def evidence_from_color_trip(signal: DenseTripSignal, t: int) -> DenseEvidence:
    """Convert a color-coding budget trip into dense evidence.

    For these levels the weight of a node equals its exact maximum (the
    sum of its parts' maxima), so condition (ii) holds by construction
    and is re-checked against the recorded subtree sums.
    """
    return DenseEvidence(
        source="phase-two",
        t=t,
        rho=signal.rho,
        u_prime=signal.u_prime,
        level=signal.level,
        threshold=signal.threshold,
        observed_total_size=signal.observed_total_size,
        trivial_sets=signal.trivial_nodes,
        set_sizes=signal.node_sizes,
        f_values=signal.node_f,
        sigma_values=signal.node_sigma,
    )


def merge_group_sumsets(
    group_sumsets: GroupSumsets,
    family: GroupFamily,
    t: int,
    w: int,
    n: int,
    q: float,
    rng: np.random.Generator,
    eta_mult: float = 1.0,
    budget_mult: float = 1.0,
    window: Optional[int] = None,
    checked: bool = False,
) -> Union[SumSet, DenseEvidence]:
    """Merge the per-group sumsets into one set near the target.

    On the sparse path returns the root set intersected with the target
    window [max(t - window, 0), t].  Any subset Z of the bulk with
    sigma(Z) in that window survives all the interval caps with
    probability at least 1 - 3q.  A budget trip returns DenseEvidence.
    """
    ell = family.ell
    params = group_sumsets.params
    g = params.g
    lgw = math.log2(max(w, 2))
    if window is None:
        window = target_window(w, t)

    exact = group_sumsets.exact
    try:
        eta = math.ceil(eta_mult * 2304 * math.sqrt(w * t) * lgw**2 * math.log2(2 * n / q) ** 3)
    except OverflowError:
        raise ValueError(f"eta_mult = {eta_mult} is too large: eta overflows a float") from None
    eta += window
    # u' covers the largest possible diameter at any level: children are
    # either capped nodes (span <= 2*eta+4) or the uncapped stage-two
    # roots (diameter <= g*w + 1).
    u_prime = max(4 * eta + 9, 2 * g * w + 1)
    rho = params.rho
    tail = _budget_tail(rho, u_prime, budget_mult)

    levels = ceil_log2(ell)
    lo = max(t - window, 0)
    collapse = _collapses(exact, family, t, eta, tail)
    if collapse:
        # no level caps or trips: the root is every subset sum of the items,
        # in whatever order the leaves come
        root = window_subset_sums(family.multiset, lo, t)
        if not checked:
            return root

    perm = rng.permutation(ell)
    sig = family.group_sums[perm]
    cur = group_sumsets.sets.take(perm)
    # every stage-two set holds 0, so none is empty and its last run ends
    # at its maximum
    f = cur.ends[cur.offs[1:] - 1] * cur.step
    if checked and exact and not np.array_equal(f, sig):
        raise InternalConsistencyError("an exact set's maximum differs from its group's sum")

    for h in range(1, levels + 1):
        ell_h = ell >> h
        budget = ell_h + tail
        f = f[0::2] + f[1::2]
        sig = sig[0::2] + sig[1::2]
        out, observed = _pair_level(cur, budget)
        sizes = out.sizes()
        filled = np.flatnonzero(sizes)
        tops = out.ends[out.offs[filled + 1] - 1] * out.step
        if observed is not None:
            # nodes after the stop: size >= 1 unless an operand is empty
            rest = cur.sizes()[2 * len(out) :]
            maxes = np.zeros(len(out), dtype=np.int64)
            maxes[filled] = tops
            return DenseEvidence(
                "phase-three",
                t,
                rho,
                u_prime,
                h,
                budget,
                observed,
                0,  # trivial_sets
                np.append(sizes, (rest[0::2] > 0) & (rest[1::2] > 0)),
                f,
                sig,
                maxes,
            )

        if checked and not (np.all(tops <= f[filled]) and np.all(f[filled] <= sig[filled])):
            raise InternalConsistencyError("merge weight bookkeeping broken")
        cur = out.cap(t // ell_h - eta - 1, ceil_div(t, ell_h) + eta + 1)

    out = SumSet._of_node(cur.cap(lo, t))
    if collapse and out != root:
        raise InternalConsistencyError("windowed subset-sum DP differs from the level kernel's root")
    return out


def _collapses(exact: bool, family: GroupFamily, t: int, eta: int, tail: int) -> bool:
    """Whether the merge collapses to one windowed DP; if not, every level
    goes through the kernel.  The conditions read the items' common step.

    The root is every subset sum of the items only if the leaves are their
    groups' full subset sums (exact) and no level trips or loses a value
    to a cap.  A node's set lies in [0, sigma(node)], so a level's total
    size is at most sigma(D) / step plus its node count, below its budget
    when sigma(D) / step < tail.  A level-h cap keeps [0, sigma] of every
    node when eta + 1 >= t // ell_h and eta + 1 >= the largest sigma of a
    level-h node, which holds at every level, whatever the leaf order,
    when eta + 1 >= max(t, sigma(D)).  The DP's mask, cut at t (or lower,
    at sigma(D)), holds at most t // step + 1 bits.  This test is not a
    guard: it chooses between the collapse and the kernel, which runs
    where the DP's mask could pass FALLBACK_MAX_BITS and the DP would
    raise OracleBudgetError.
    """
    # from the family's multiset: a few us over 16 distinct values, where
    # the items took ~0.2 ms at 42k
    step, sigma = common_step(family.multiset[0]), family.sigma
    return exact and sigma // step < tail and eta + 1 >= max(t, sigma) and t // step + 1 <= FALLBACK_MAX_BITS
