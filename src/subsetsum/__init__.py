"""Subset-sum decision solver built on sparse sumset kernels.

Decides whether a subset of positive integers sums to a target, with
one-sided error: certified-path yes answers are always correct, and
yes-instances are missed with small configurable probability.  Exports
the instance and outcome types, the pipeline's stages (the structural
split, the grouping stages, the merge and its dense-evidence check), the
exact DPs a solve runs (`fallback_dp` and `bounded_subset_sums`, both
the window DP over a multiset), and a CLI (`subsetsum --help`).

Sets and records hold int64 arrays: `SumSet.values`, the parts of an
`InstancePartition`, `GroupFamily.group_sums`, and the per-node fields
of a `DenseTripSignal` and of a `DenseEvidence`.
"""

from .core import (
    Instance,
    InvalidInstanceError,
    InternalConsistencyError,
    NormalizeResult,
    OracleBudgetError,
    SolveOutcome,
    SolverConfig,
    SumSet,
    normalize,
    rng_stream,
)
from .sumset import cap, dense_sumset
from .structure import InstancePartition, partition_instance
from .colorcoding import GroupFamily, GroupSumsets, build_group_sumsets, partition_groups
from .merge import DenseEvidence, assemble_dense_evidence, merge_group_sumsets
from .solver import (
    BranchReport,
    bounded_subset_sums,
    dense_interval_set,
    fallback_dp,
    solve,
    solve_d_window,
)

__all__ = [
    "Instance",
    "SumSet",
    "SolverConfig",
    "SolveOutcome",
    "NormalizeResult",
    "normalize",
    "rng_stream",
    "InvalidInstanceError",
    "InternalConsistencyError",
    "OracleBudgetError",
    "dense_sumset",
    "cap",
    "InstancePartition",
    "partition_instance",
    "GroupFamily",
    "GroupSumsets",
    "partition_groups",
    "build_group_sumsets",
    "DenseEvidence",
    "assemble_dense_evidence",
    "merge_group_sumsets",
    "BranchReport",
    "bounded_subset_sums",
    "fallback_dp",
    "dense_interval_set",
    "solve_d_window",
    "solve",
]

__version__ = "0.1.0"
