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
the leaf level's common step (the gcd of its values, which every sum and
cap above it keeps as a divisor, so it is computed once), back to back.
The leaf level is split into runs once; each level goes through the
level kernel `_pair_level` whole and comes back as runs, so no level is
expanded to values.  The interval cap clips the runs, and the per-node
weights and subtree sums, the checked-mode bounds and the evidence sizes
(sums of run lengths) and maxima (last run ends) are all computed
level-wide from the offsets.  Only the root is expanded, after its runs
are clipped to the target window [t - window, t], to the int64 array
that the returned SumSet holds; no value passes through a Python int on
the way.

When stage two reports its sets exact (each its group's full subset
sums) and no level can trip or cap (sigma(D) / step below the budget
tail, and eta + 1 >= max(t, sigma(D)), which the paper's constants give
whenever stage two is exact), the merge collapses: the root is every
subset sum of the dense part D, in whatever order the leaves come, and
only its values in the window are returned (`_collapse_step`).
`sumset.window_subset_sums` computes them with one shift-or DP on a
Python int over D's multiset (the family's distinct values and their
counts, so no item-sized array is read) in units of the step
(Pisinger, "Dynamic programming on the word RAM", 2003), each value's
multiplicity split into powers of two (the bounded-to-0/1 reduction, as
in Koiliaris and Xu, SODA 2017), cut at t and read back only in the
window.  Its one size bound is memory: the DP's mask of t // step + 1
bits must fit in `sumset.FALLBACK_MAX_BITS`, as the exact decision's
must; a target past it stays on the kernel.  The permutation is not
drawn (the phase-3 stream is then never created), no level, weight or
cap is computed, and neither the stage-two sets nor the groups' sums
are read (the step and sigma(D) come from the multiset), so stage two
never builds the sets (see `colorcoding.GroupSumsets`).
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
the stage passes.  The three numeric conditions checked in
`assemble_dense_evidence` are exactly what the downstream interval
decision relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import InternalConsistencyError, SumSet, array_fields_eq, ceil_div, ceil_log2, target_window
from .colorcoding import DenseTripSignal, GroupFamily, GroupSumsets, _budget_tail
from .sumset import FALLBACK_MAX_BITS, Level, _pair_level, common_step, window_subset_sums


@dataclass(eq=False)
class DenseEvidence:
    """Numeric certificate that a budget trip really happened on a level
    whose total size crosses the structural threshold.

    Sets that are exactly {0} (size 1, zero weight, zero subtree sum)
    are carried as trivial_sets; the per-node fields describe the
    remaining sets, each an int64 array in node order.  set_sizes are
    exact for computed nodes and conservative lower bounds for nodes
    after the stop; f_values and sigma_values are exact for every node.
    max_values is None (phase two, where f is each node's maximum) or the
    maxima of the nodes computed before the stop (phase three), a prefix
    of the node order.  Records compare equal field by field, the arrays
    by their values.  The three conditions (checked on assembly):

      (i)   total size >= threshold, with threshold = number of sets
            plus the budget tail 4 * c_ap * rho * u_prime * ceil(log2 u_prime),
            with the paper's constant c_ap taken as 1 and the tail scaled
            by budget_mult, its one scale (`colorcoding._budget_tail`);
      (ii)  max(S_i) <= f(S_i) <= sigma(D_i) for every retained set;
      (iii) 3t/2 <= total weight <= rho * t / 2.
    """

    source: str  # 'phase-two' | 'phase-three'
    t: int
    rho: int
    u_prime: int
    level: int
    threshold: int
    observed_total_size: int
    num_sets: int
    trivial_sets: int
    set_sizes: np.ndarray
    f_values: np.ndarray
    sigma_values: np.ndarray
    max_values: Optional[np.ndarray] = None

    __eq__ = array_fields_eq


def assemble_dense_evidence(
    source: str,
    t: int,
    rho: int,
    u_prime: int,
    level: int,
    threshold: int,
    observed_total_size: int,
    set_sizes: Sequence[int],
    f_values: Sequence[int],
    sigma_values: Sequence[int],
    max_values: Optional[Sequence[int]] = None,
    trivial_sets: int = 0,
) -> DenseEvidence:
    """Build evidence from trip bookkeeping, asserting its conditions.

    The per-node fields may be lists or int64 arrays (the stages pass
    arrays, which the checks and the evidence take as they are).  A
    violation here means the solver's own accounting is broken, so it
    raises InternalConsistencyError rather than reporting bad input.
    """
    if rho < 1:
        raise InternalConsistencyError("evidence requires a positive density factor")
    sizes, f = np.asarray(set_sizes, dtype=np.int64), np.asarray(f_values, dtype=np.int64)
    sigma = np.asarray(sigma_values, dtype=np.int64)
    num_sets = trivial_sets + len(sizes)
    if len(f) != len(sizes):
        raise InternalConsistencyError("size/weight bookkeeping length mismatch")
    if trivial_sets + int(sizes.sum()) < threshold:
        raise InternalConsistencyError("trip recorded but sizes below threshold")
    total_f = int(f.sum())
    if 2 * total_f < 3 * t:
        raise InternalConsistencyError("weight sum below 3t/2")
    if 2 * total_f > rho * t:
        raise InternalConsistencyError("weight sum above rho*t/2")
    if np.any(f > sigma):
        raise InternalConsistencyError("weight exceeds subtree sum")
    if max_values is not None:
        max_values = np.asarray(max_values, dtype=np.int64)
        if np.any(max_values > f[: len(max_values)]):
            raise InternalConsistencyError("set maximum exceeds weight")
    return DenseEvidence(
        source=source,
        t=t,
        rho=rho,
        u_prime=u_prime,
        level=level,
        threshold=threshold,
        observed_total_size=observed_total_size,
        num_sets=num_sets,
        trivial_sets=trivial_sets,
        set_sizes=sizes,
        f_values=f,
        sigma_values=sigma,
        max_values=max_values,
    )


def evidence_from_color_trip(signal: DenseTripSignal, t: int) -> DenseEvidence:
    """Convert a color-coding budget trip into dense evidence.

    For these levels the weight of a node equals its exact maximum (the
    sum of its parts' maxima), so condition (ii) holds by construction
    and is re-checked against the recorded subtree sums.
    """
    return assemble_dense_evidence(
        source="phase-two",
        t=t,
        rho=signal.rho,
        u_prime=signal.u_prime,
        level=signal.level,
        threshold=signal.threshold,
        observed_total_size=signal.observed_total_size,
        set_sizes=signal.node_sizes,
        f_values=signal.node_f,
        sigma_values=signal.node_sigma,
        trivial_sets=signal.trivial_nodes,
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
    step = _collapse_step(exact, family, t, eta, tail)
    if step:
        # no level caps or trips: the root is every subset sum of the items,
        # in whatever order the leaves come
        root = window_subset_sums(family.multiset, lo, t, step)
        if not checked:
            return root

    perm = rng.permutation(ell)
    sig = family.group_sums[perm]
    sets = group_sumsets.sets
    # every stage-two set holds 0, so none is empty and its last value is
    # its maximum
    f = sets.vals[sets.offs[1:][perm] - 1]
    if checked and exact and not np.array_equal(f, sig):
        raise InternalConsistencyError("an exact set's maximum differs from its group's sum")
    leaves = sets.take(perm)
    cur = Level.from_values(leaves.vals, leaves.offs)

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
            return assemble_dense_evidence(
                "phase-three",
                t,
                rho,
                u_prime,
                h,
                budget,
                observed,
                np.append(sizes, (rest[0::2] > 0) & (rest[1::2] > 0)),
                f,
                sig,
                maxes,
            )

        if checked and not (np.all(tops <= f[filled]) and np.all(f[filled] <= sig[filled])):
            raise InternalConsistencyError("merge weight bookkeeping broken")
        cur = out.cap(t // ell_h - eta - 1, ceil_div(t, ell_h) + eta + 1)

    out = SumSet(cur.cap(lo, t).values())
    if step and out != root:
        raise InternalConsistencyError("windowed subset-sum DP differs from the level kernel's root")
    return out


def _collapse_step(exact: bool, family: GroupFamily, t: int, eta: int, tail: int) -> int:
    """The step (the items' common step) in which the merge collapses to
    one windowed DP, or 0 when every level goes through the kernel.

    The root is every subset sum of the items only if the leaves are their
    groups' full subset sums (exact) and no level trips or loses a value
    to a cap.  A node's set lies in [0, sigma(node)], so a level's total
    size is at most sigma(D) / step plus its node count, below its budget
    when sigma(D) / step < tail.  A level-h cap keeps [0, sigma] of every
    node when eta + 1 >= t // ell_h and eta + 1 >= the largest sigma of a
    level-h node, which holds at every level, whatever the leaf order,
    when eta + 1 >= max(t, sigma(D)).  The DP's mask, cut at t, holds
    t // step + 1 bits, which must fit in FALLBACK_MAX_BITS, as the exact
    decision's must; past it the kernel runs.
    """
    if not exact:
        return 0
    # from the family's multiset: a few us over 16 distinct values, where
    # the items took ~0.2 ms at 42k
    step = common_step(family.multiset[0])
    sigma = family.sigma
    fits = sigma // step < tail and eta + 1 >= max(t, sigma) and t // step + 1 <= FALLBACK_MAX_BITS
    return step if fits else 0
