"""The benchmark's layer tracer (`perfbench/tracing.py`) wraps package
functions by (module, attribute) name.  A renamed or deleted boundary
would silently turn its per-layer metrics into nulls, so check here that
every boundary still resolves and that traced solves feed the counters."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from subsetsum.core import Instance, SolverConfig
from subsetsum.solver import solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_trace_boundaries_resolve(tracing):
    boundaries = {**tracing.SPANS, **tracing.KERNELS}
    missing = [
        f"{mod}.{attr}"
        for mod, attr in boundaries
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing


def test_traced_solves_feed_counters(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        branches = []
        # eta_mult = 1e-9 narrows the merge caps until they can remove
        # values, so the sparse solve's merge runs its upper levels through
        # the level kernel instead of computing the root as one bitset
        for w, t, budget_mult, eta_mult in ((3, 1300, 1.0, 1e-9), (2, 220, 1e-9, 1.0)):
            rng = np.random.default_rng(5)
            n = round(3 * t / ((w + 1) / 2))
            items = (w, *(int(v) for v in rng.integers(1, w + 1, size=n - 1)))
            config = SolverConfig(seed=1, budget_mult=budget_mult, eta_mult=eta_mult)
            out = solve(Instance(items, t), config)
            branches.append(out.branch)
    finally:
        tracer.uninstall()
    assert branches == ["sparse", "dense"]
    assert tracer.absent == [] and tracer.broken == {}
    c = tracer.counts
    assert c["merge.root_values"] > 0 and c["sumset.phase3.calls"] > 0
    assert c["colorcoding.trips"] == 1 and c["merge.evidence"] == 1
    # the combine is one windowed DP, which no kernel boundary wraps
    assert tracer.times["solver.combine"] > 0
