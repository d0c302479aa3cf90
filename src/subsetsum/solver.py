"""Decision pipeline: normalize, split, group, merge, combine, decide.

The pipeline decides "is there a subset summing to t" with one-sided
error.  After normalization (t <= sigma/2) and a small-target gate
(below ~100 * w * log(w)^2 the exact DP `fallback_dp` decides; see
`small_target_gate`), the items are split into leftover / residue /
dense parts.  The leftover and residue parts have sum
O(sqrt(w*t) log w), so their complete subset-sum sets are computed
exactly by bounded bitset DP.  The dense part goes through the grouping
and merge stages, which either return a set of achievable sums inside
the target window (sparse path) or dense evidence (dense path).

  * sparse: the candidate set S = S_G + S_R + S_D is a subset of the
    instance's true subset sums by construction, so a yes answer is
    certified.  A witness is missed with probability at most ~5q.
  * dense: the evidence implies (through the residue set's modular
    coverage) that every multiple of the common divisor d inside
    [t - sqrt(w*t) log w, t] is achievable using the residue and dense
    parts, so the decision reduces to t in S_G + (that interval's
    d-multiples).  This implication leans on a non-constructive
    threshold constant; checked_mode cross-verifies such answers with
    the exact DP on small instances and flags any disagreement (that DP
    is `window_subset_sums`, which the combine runs too).

The combine computes no sumset of two sets.  S_G and S_R are complete
subset sums, so S_G + S_R + X is X plus the subset sums of the leftover
and residue items together: one shift-or DP (`window_subset_sums`)
started from X.  X lies in [t - window, t], and its bits are offset by
X's minimum, so the mask spans at most the window plus the added items'
sum, never t.  X is S_D on the sparse path, where the leftover and
residue items are added; on the dense path it is the interval's
d-multiples (one run), and only the leftover items are added.  The DP
reads X's step from X itself and runs in units of the gcd of it and the
added values (see `window_subset_sums`): S_D is the DP's or the merge
kernel's runs, in a step that divides the dense part's values, and the
interval's step is d.  So on the all-even no-instances the combine runs
in units of 2, where S_D is one run that the DP steps without a shift,
instead of through a mask at step 1.

All randomness is drawn from streams derived from the configured seed,
so runs are reproducible bit for bit; each stage's stream is created on
its first draw, so a stage that draws nothing creates none.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    Instance,
    SolveOutcome,
    SolverConfig,
    ceil_log2,
    normalize,
    rng_stream,
    target_window,
)
from .colorcoding import (
    DenseTripSignal,
    build_group_sumsets,
    partition_groups,
    verify_group_family,
)
from .merge import DenseEvidence, evidence_from_color_trip, merge_group_sumsets
from .structure import _union, partition_instance, verify_partition
from .sumset import Level, SumSet, window_subset_sums
# `subsetsum.solver.FALLBACK_MAX_BITS` still names the window DP's bound
from .sumset import FALLBACK_MAX_BITS  # noqa: F401
# imported only as the combine boundaries that perfbench's tracer wraps
from .sumset import cap, dense_sumset  # noqa: F401

logger = logging.getLogger(__name__)

CHECKED_ORACLE_BUDGET = 10**8


@dataclass
class BranchReport:
    """Diagnostics attached to a SolveOutcome."""

    branch: str
    divisor: int = 1
    window: int = 0
    s_g_size: int = 0
    s_r_size: int = 0
    s_d_size: int = 0
    s_rd_size: int = 0
    sigma_g: int = 0
    sigma_r: int = 0
    sigma_d: int = 0
    gate_reason: Optional[str] = None
    checked_disagreement: Optional[bool] = None


def bounded_subset_sums(multiset: tuple[Sequence[int], Sequence[int]], cap_hi: int) -> SumSet:
    """Exact subset sums of the multiset (values, counts), counts[i]
    copies of values[i], restricted to [0, cap_hi].

    The package's shift-or DP (`sumset.window_subset_sums`) over
    [0, cap_hi].  Complete and deterministic; meant for parts whose total
    sum is small.
    """
    if cap_hi < 0:
        raise ValueError("cap_hi must be >= 0")
    return window_subset_sums(multiset, 0, cap_hi)


def fallback_dp(multiset: tuple[Sequence[int], Sequence[int]], t: int) -> bool:
    """Exact decision: is t a subset sum of the multiset (values, counts),
    counts[i] copies of values[i]?  The values must fit in int64, as an
    `Instance`'s do.

    The package's shift-or DP (`sumset.window_subset_sums`) read at t
    alone.  It runs in units of the values' gcd and is cut at the lower
    of t and the values' total, so a t that the gcd does not divide, a
    negative t and a t above every subset sum are a no before any budget
    (no mask is built, but a malformed multiset is still refused).
    Otherwise the DP's mask of min(t, sigma) // gcd + 1 bits must fit in
    FALLBACK_MAX_BITS, or OracleBudgetError is raised.
    """
    return not window_subset_sums(multiset, t, t).is_empty


def small_target_gate(t: int, w: int) -> bool:
    """True when t < 100 * w * ceil(log2 w)^2, where the solver decides
    with the exact DP instead of the pipeline.

    The gate is kept as a decision of record, not as a crossover: since
    `fallback_dp` runs the window DP, it was faster than the pipeline on
    every shape measured (2-core x86 VM, numpy 2.4): at least 6x on
    uniform sigma ~ 3t yes-instances and all-even odd-t no-instances
    (w in {2, 16, 64, 1024}, t from 30k to 10.5M), and 1.8x to 8x on
    `sparse-window` shapes, whose sums form no interval."""
    if w <= 1:
        return True
    return t < 100 * w * ceil_log2(w) ** 2


def dense_interval_set(d: int, t: int, w: int) -> SumSet:
    """All multiples of d in [t - floor(sqrt(w*t) log2 w), t].

    Used on the dense branch, where the evidence implies every such
    multiple is achievable by the residue and dense parts combined.
    """
    if d < 1:
        raise ValueError("divisor must be >= 1")
    width = int(math.sqrt(w * t) * math.log2(max(w, 2)))
    first, last = -(-max(t - width, 0) // d), t // d
    if first > last:
        return SumSet.empty()
    return SumSet._of_node(Level(np.array([first]), np.array([last]), np.array([0, 1]), d), last - first + 1)


class _Stream:
    """`rng_stream(seed, label)`, created on its first draw, so a stage
    that draws nothing costs no stream (~55 us each): on a solve whose
    layers are not drawn, whose groups are singletons and whose merge
    collapses, no stream is created.  Each stream has a label of its own,
    so when one is created changes none of its draws."""

    __slots__ = ("seed", "label", "rng")

    def __init__(self, seed: int, label: str) -> None:
        self.seed, self.label, self.rng = seed, label, None

    def __getattr__(self, name: str):
        if self.rng is None:
            self.rng = rng_stream(self.seed, self.label)
        return getattr(self.rng, name)


def solve_d_window(
    multiset: tuple[Sequence[int], Sequence[int]],
    t: int,
    w: int,
    n: int,
    config: SolverConfig,
    window: Optional[int] = None,
) -> Union[SumSet, DenseEvidence]:
    """Run the grouping and merge stages on the dense part, the multiset
    of sorted distinct values and their positive counts that
    `partition_groups` takes (the solver passes
    `InstancePartition.dense_multiset`).

    Sparse path: returns S, a subset of the true subset sums of the
    multiset restricted to [t - window, t], containing any achievable
    value in that window with probability >= 1 - 3q - q.  Dense path:
    returns checkable DenseEvidence from whichever stage tripped its
    budget.  Requires a sum of at least 3t/2.  Each stage's random stream
    is created on its first draw.
    """
    q = config.q_for(n, t)
    if window is None:
        window = target_window(w, t)
    family = partition_groups(multiset, t, _Stream(config.seed, "phase1"))
    if config.checked_mode:
        verify_group_family(family, np.repeat(*multiset), t, w)
    staged = build_group_sumsets(
        family, t, w, n, q, _Stream(config.seed, "phase2"), budget_mult=config.budget_mult
    )
    if isinstance(staged, DenseTripSignal):
        return evidence_from_color_trip(staged, t)
    # a sparse root already lies within [max(t - window, 0), t]
    return merge_group_sumsets(
        staged, family, t, w, n, q,
        _Stream(config.seed, "phase3"),
        eta_mult=config.eta_mult,
        budget_mult=config.budget_mult,
        window=window,
        checked=config.checked_mode,
    )


def solve(instance: Instance, config: Optional[SolverConfig] = None) -> SolveOutcome:
    """Decide the instance.

    Returns a SolveOutcome with the decision, the branch taken, the
    candidate set size and per-stage timings.  Yes answers on the sparse
    branch are certified correct; no answers may be wrong with
    probability at most ~5q on yes-instances.
    """
    if config is None:
        config = SolverConfig()
    timings: dict[str, int] = {}
    t_start = time.perf_counter_ns()

    def _mark(name: str, since: int) -> int:
        now = time.perf_counter_ns()
        timings[name] = now - since
        return now

    norm = normalize(instance)
    tick = _mark("normalize", t_start)
    inst = norm.instance
    t, w, n = inst.target, inst.w, inst.n
    candidate_set_size, evidence = 0, None

    if norm.trivial is not None:
        reason = f"trivially {norm.trivial}"
    elif config.fallback_only:
        reason = "fallback_only"
    elif small_target_gate(t, w):
        reason = "small target"
    else:
        reason = None
        part = partition_instance(inst)
        if config.checked_mode:
            verify_partition(part, inst)
        tick = _mark("partition", tick)
        parts = (part.leftover_multiset, part.residue_multiset, part.dense_multiset)
        sigma_g, sigma_r, sigma_d = (int(values @ counts) for values, counts in parts)
        if 2 * sigma_d < 3 * t:
            # Rounding slack in the split bounds can leave the dense part
            # short of the 3t/2 mass the merge stage needs; fall back.
            reason = "dense part below 3t/2"

    if norm.trivial is not None:
        decision = norm.trivial == "yes"
        report = BranchReport(branch="trivial", gate_reason=reason)
    elif reason is not None:
        decision = fallback_dp(inst.multiset, t)
        _mark("fallback_dp", tick)
        report = BranchReport(branch="fallback-dp", gate_reason=reason)
    else:
        s_g = bounded_subset_sums(part.leftover_multiset, sigma_g)
        s_r = bounded_subset_sums(part.residue_multiset, sigma_r)
        tick = _mark("bounded_sums", tick)

        window = max(target_window(w, t), sigma_g + sigma_r)
        result = solve_d_window(part.dense_multiset, t, w, n, config, window)
        tick = _mark("d_window", tick)

        report = BranchReport(
            branch="sparse",
            divisor=part.divisor,
            window=window,
            s_g_size=len(s_g),
            s_r_size=len(s_r),
            sigma_g=sigma_g,
            sigma_r=sigma_r,
            sigma_d=sigma_d,
        )

        # the combine (see the module docstring): one DP started from X, cut
        # at t plus the added items' sum (X lies in [0, t])
        evidence = result if isinstance(result, DenseEvidence) else None
        if evidence is not None:
            report.branch = "dense"
            start = dense_interval_set(part.divisor, t, w)
            report.s_rd_size = len(start)
            added, sigma_added = part.leftover_multiset, sigma_g
        else:
            start = result
            report.s_d_size = len(start)
            added = _union(part.leftover_multiset, part.residue_multiset)
            sigma_added = sigma_g + sigma_r
        candidates = window_subset_sums(added, 0, t + sigma_added, start=start)
        candidate_set_size = len(candidates)
        decision = t in candidates
        # the exact DP's cost: shifts of t + 1 bits, a few per distinct value
        if evidence is not None and config.checked_mode and len(inst.multiset[0]) * (t + 1) <= CHECKED_ORACLE_BUDGET:
            oracle = fallback_dp(inst.multiset, t)
            report.checked_disagreement = decision != oracle
            if report.checked_disagreement:
                logger.error(
                    "dense-branch decision %s disagrees with exact DP %s "
                    "(seed=%d, n=%d, t=%d)", decision, oracle, config.seed, n, t,
                )
        _mark("combine", tick)
    timings["total"] = time.perf_counter_ns() - t_start
    return SolveOutcome(
        decision=decision,
        branch=report.branch,
        candidate_set_size=candidate_set_size,
        dense_evidence=evidence,
        seed=config.seed,
        timings=timings,
        report=report,
    )
