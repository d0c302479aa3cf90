"""Workload definitions: which instances each workload solves, and how.

Every instance comes from `subsetsum.cli.generate_instance`, with a
generator seed derived from the workload seed, so the same `--seed`
always yields the same inputs.  The solver seed of each instance is
derived the same way and is reused on every pass, which is what lets a
run check that passes agree.

The workloads are chosen to load different layers of the pipeline; see
README.md in this directory for the rationale and the layer map.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """One instance to generate and solve.

    `cls` names the instance class over which per-class medians and the
    scaling slopes are taken.
    """

    label: str
    profile: str
    n: int
    w: int
    t: int | None
    cls: str
    budget_mult: float = 1.0
    divisor: int = 6
    tail: int = 2


@dataclass(frozen=True)
class Workload:
    """`dp_repeats`: bitset DP runs per instance and pass, half before and
    half after the solve, so that the DP samples the host's speed around
    each solve; set so that the DP takes ~10-25% of a pass."""

    name: str
    expected_branch: str
    specs: tuple[Spec, ...]
    dp_repeats: int


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed for (workload seed, label), independent of the package."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def _sparse_ladder() -> tuple[Spec, ...]:
    # uniform on [1, 16] has mean 8.5, so n = 3t/8.5 gives sigma ~ 3t
    yes = tuple(
        Spec(f"yes-t{t}", "uniform", int(3 * t / 8.5), 16, t, cls=f"t{t}")
        for t in (30_000, 60_000, 120_000)
    )
    # all items even, target odd: a no-instance the sparse path must reject
    no = tuple(
        Spec(f"no-t{t}", "divisor-structured", t // 3, 16, t, cls=f"no-t{t}", divisor=2, tail=0)
        for t in (60_001, 120_001)
    )
    return yes + no


def _dense_trip() -> tuple[Spec, ...]:
    shapes = ((4_000, 2, 1e-12), (12_000, 2, 1e-12), (12_000, 8, 1e-11))
    return tuple(
        Spec(f"n{n}-w{w}-{i}", "dense", n, w, None, cls=f"n{n}-w{w}", budget_mult=bm)
        for n, w, bm in shapes
        for i in range(20)
    )


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("sparse-ladder", "sparse", _sparse_ladder(), dp_repeats=2),
        Workload(
            "grouped",
            "sparse",
            (
                # n/t = 1.176 (sigma ~ 10t); t just above the w=16 gate of 25,600
                Spec("t30000", "dense", 35_294, 16, 30_000, cls="t30000"),
                Spec("t26000", "dense", 30_588, 16, 26_000, cls="t26000"),
            ),
            dp_repeats=8,
        ),
        Workload("dense-trip", "dense", _dense_trip(), dp_repeats=3),
        # Runnable by name but not listed in BENCHMARK.json: the merge
        # root exceeds the sumset kernels' size limits and raises, and one
        # pass takes longer than a whole listed run.
        Workload(
            "wide-root",
            "sparse",
            (Spec("t1600000", "uniform", 147_692, 64, 1_600_000, cls="t1600000"),),
            dp_repeats=1,
        ),
    )
}

