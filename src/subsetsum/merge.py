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

Each level is one flat `sumset.Level` (every node's sorted int64 values
back to back) and goes through the level kernel `_pair_level` whole,
in units of the leaf level's common step (the gcd of its values, which
every sum and cap above it keeps as a divisor, so it is computed once);
the interval cap, the per-node weights and subtree sums, the checked-mode
bounds and the evidence sizes and maxima are all computed level-wide
from its offsets.  The root becomes a SumSet only when it is returned.

A budget trip, here or in the color-coding stage, is converted into a
DenseEvidence record: per-node set sizes, a weight f per node (the
permuted-order subtree sums of the original group maxima, an exact
upper bound on each node's maximum and lower bound on its subtree
element sum), and the tripped threshold.  The three numeric conditions
checked in `assemble_dense_evidence` are exactly what the downstream
interval decision relies on; `select_ap_generators` is a diagnostic
that re-runs the counting argument behind that decision and exhibits a
concrete low-weight selection of generator sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import InternalConsistencyError, SumSet, ceil_div, ceil_log2, target_window
from .colorcoding import DenseTripSignal, GroupFamily, GroupSumsets
from .sumset import Level, _pair_level, common_step


@dataclass
class DenseEvidence:
    """Numeric certificate that a budget trip really happened on a level
    whose total size crosses the structural threshold.

    Sets that are exactly {0} (size 1, zero weight, zero subtree sum)
    are carried as trivial_sets; the lists describe the remaining sets.
    set_sizes are exact for computed nodes and conservative lower bounds
    for nodes after the stop; f_values are exact for every node.  The
    three conditions (checked on assembly):

      (i)   total size >= threshold, with threshold = number of sets
            plus the budget tail 4 * c_ap * rho * u_prime * ceil(log2 u_prime)
            (scaled by any diagnostic budget multiplier in force);
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
    set_sizes: list[int]
    f_values: list[int]
    sigma_values: Optional[list[int]] = None
    max_values: Optional[list[Optional[int]]] = None

    def total_size(self) -> int:
        return self.trivial_sets + sum(self.set_sizes)

    def total_f(self) -> int:
        return sum(self.f_values)


def assemble_dense_evidence(
    source: str,
    t: int,
    rho: int,
    u_prime: int,
    level: int,
    threshold: int,
    observed_total_size: int,
    set_sizes: list[int],
    f_values: list[int],
    sigma_values: Optional[list[int]] = None,
    max_values: Optional[list[Optional[int]]] = None,
    trivial_sets: int = 0,
) -> DenseEvidence:
    """Build evidence from trip bookkeeping, asserting its conditions.

    A violation here means the solver's own accounting is broken, so it
    raises InternalConsistencyError rather than reporting bad input.
    """
    if rho < 1:
        raise InternalConsistencyError("evidence requires a positive density factor")
    num_sets = trivial_sets + len(set_sizes)
    if len(f_values) != len(set_sizes):
        raise InternalConsistencyError("size/weight bookkeeping length mismatch")
    if trivial_sets + sum(set_sizes) < threshold:
        raise InternalConsistencyError("trip recorded but sizes below threshold")
    total_f = sum(f_values)
    if 2 * total_f < 3 * t:
        raise InternalConsistencyError("weight sum below 3t/2")
    if 2 * total_f > rho * t:
        raise InternalConsistencyError("weight sum above rho*t/2")
    if sigma_values is not None:
        if any(f > s for f, s in zip(f_values, sigma_values)):
            raise InternalConsistencyError("weight exceeds subtree sum")
    if max_values is not None:
        for m, f in zip(max_values, f_values):
            if m is not None and m > f:
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
        set_sizes=set_sizes,
        f_values=f_values,
        sigma_values=sigma_values,
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
    c_ap: int,
    rng: np.random.Generator,
    eta_mult: float = 1.0,
    budget_mult: float = 1.0,
    window: Optional[int] = None,
    checked: bool = False,
) -> Union[SumSet, DenseEvidence]:
    """Merge the per-group sumsets into one set near the target.

    On the sparse path returns the root set, which the caller still caps
    to its target window [t - window, t].  Any subset Z of the bulk with
    sigma(Z) in that window survives all the interval caps with
    probability at least 1 - 3q.  A budget trip returns DenseEvidence.
    """
    sets0 = group_sumsets.sets
    ell = len(sets0)
    params = group_sumsets.params
    g = params.g
    lgw = math.log2(max(w, 2))
    if window is None:
        window = target_window(w, t)

    perm = [int(i) for i in rng.permutation(ell)]
    cur = Level.of([sets0[p].values for p in perm])
    f = cur.vals[cur.offs[1:] - 1]  # every stage-two set holds 0, so none is empty
    step = common_step(cur.vals)
    sig = family.group_sums()[perm]

    eta = math.ceil(eta_mult * 2304 * math.sqrt(w * t) * lgw**2 * math.log2(2 * n / q) ** 3)
    eta += window
    # u' covers the largest possible diameter at any level: children are
    # either capped nodes (span <= 2*eta+4) or the uncapped stage-two
    # roots (diameter <= g*w + 1).
    u_prime = max(4 * eta + 9, 2 * g * w + 1)
    rho = params.rho
    tail = math.ceil(budget_mult * 4 * c_ap * rho * u_prime * ceil_log2(u_prime))

    levels = ceil_log2(ell)
    for h in range(1, levels + 1):
        ell_h = ell >> h
        budget = ell_h + tail
        f = f[0::2] + f[1::2]
        sig = sig[0::2] + sig[1::2]
        out, signal = _pair_level(cur, budget, step)
        sizes = out.sizes()
        filled = np.flatnonzero(sizes)
        tops = out.vals[out.offs[filled + 1] - 1]
        if signal is not None:
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
                signal.observed_total_size,
                sizes.tolist() + ((rest[0::2] > 0) & (rest[1::2] > 0)).astype(int).tolist(),
                f.tolist(),
                sig.tolist(),
                maxes.tolist() + [None] * (ell_h - len(out)),
            )

        if checked and not (np.all(tops <= f[filled]) and np.all(f[filled] <= sig[filled])):
            raise InternalConsistencyError("merge weight bookkeeping broken")
        cur = out.cap(t // ell_h - eta - 1, ceil_div(t, ell_h) + eta + 1)

    return SumSet(tuple(cur.vals.tolist()))


def select_ap_generators(
    sets: Sequence[SumSet],
    f_values: Sequence[int],
    rho: int,
    u_prime: int,
    c_ap: int,
) -> list[int]:
    """Diagnostic selection of low-weight generator sets.

    When the sizes meet the dense threshold, some k in [2, u] has at
    least 2 * c_ap * rho * u_prime / k sets of size >= k.  Greedily pick
    the ceil(c_ap * u_prime / k) of them with the smallest weights; the
    selection's weight is at most a 1/rho fraction of the total, which
    is what caps the largest generated term.  Raises if no k qualifies,
    i.e. the threshold was not actually met.
    """
    sizes = [len(s) for s in sets]
    u = max((s.dm() for s in sets), default=1)
    best_k = None
    for k in sorted(set(sizes), reverse=True):
        if k < 2 or k > u:
            continue
        count = sum(1 for s in sizes if s >= k)
        if count * k >= 2 * c_ap * rho * u_prime:
            best_k = k
            break
    if best_k is None:
        raise ValueError("threshold not actually met")
    need = ceil_div(c_ap * u_prime, best_k)
    eligible = sorted(
        (i for i, s in enumerate(sizes) if s >= best_k),
        key=lambda i: (f_values[i], i),
    )
    chosen = sorted(eligible[:need])
    total_f = sum(f_values)
    if rho * sum(f_values[i] for i in chosen) > total_f:
        raise InternalConsistencyError("selected weight exceeds its 1/rho share")
    return chosen
