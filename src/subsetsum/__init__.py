"""Subset-sum decision solver built on sparse sumset kernels.

Decides whether a subset of positive integers sums to a target, with
one-sided error: certified-path yes answers are always correct, and
yes-instances are missed with small configurable probability.  Exports
the pipeline's stages, the exact DPs it uses (`fallback_dp`,
`bounded_subset_sums`), and a CLI (`subsetsum --help`).

`SumSet.values` is a strictly increasing, read-only, 1-D int64 array (it
used to be a tuple of Python ints).  `SumSet.of` still takes any
iterable of integers, and iteration, `len`, `in`, `min`, `max` and `dm`
still give Python ints and bools.  Likewise the parts of an
`InstancePartition` (`leftover_part`, `residue_part`, `dense_part`) are
sorted, read-only, 1-D int64 arrays; they used to be tuples.
`GroupSumsets` is no longer a dataclass: it is built and compared as
before, but when every group completed its `sets` is computed on first
read.  A `DenseTripSignal`'s `node_sizes`, `node_f` and `node_sigma` are
int64 arrays (they used to be lists); `DenseEvidence` still holds lists.
`GroupFamily.group_sums` is a read-only int64 array computed once per
family (it used to be a method that recomputed it).  The diagnostic
`select_ap_generators`, which no solve called, is deleted.

Names that no solve called are no longer defined or exported: the test
oracles `brute_force` and `textbook_dp` (their copies live in the test
suite), the budgeted-level wrapper `sum_if_sparse`, the tuple wrapper
`peel_divisors`, the per-item factor table `FactorTable` with
`factorize_all`, and the helpers `core.ceil_sqrt`, `Instance.of` and
`DenseEvidence.total_f`.  The `subsetsum bench` command is gone too,
with its helpers `cli.bench_rows`, `cli.rows_to_csv`,
`cli.BENCH_HEADER` and `cli.BENCH_ALGORITHMS` and its baseline
`solver.bitset_dp_table`; the benchmark is `perfbench/` in the source
tree.

Settings that no caller needed are gone: `SolverConfig.c_ap` with
`--c-ap` (the dense threshold's constant c_ap is 1, and budget_mult is
its one scale, so `--c-ap c --budget-mult m` becomes `--budget-mult c*m`),
`gen --t-ratio` with `generate_instance(t_ratio=)`, and
`fallback_dp(max_bits=)`, whose budget is always `FALLBACK_MAX_BITS`.
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
from .sumset import DenseSignal, cap, dense_sumset
from .structure import InstancePartition, extract_residue_set, find_almost_divisor, partition_instance
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
    "DenseSignal",
    "dense_sumset",
    "cap",
    "find_almost_divisor",
    "extract_residue_set",
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
