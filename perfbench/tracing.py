"""Outside-in layer tracing of the subsetsum package.

The package's modules call each other through module-level names
(`solver` calls `partition_groups` through `subsetsum.solver`, and so
on).  `Tracer.install` replaces those names with timing wrappers and
`Tracer.uninstall` puts the originals back; no package file changes.

Each wrapper is a span.  A span's self time is its duration minus the
time of the spans it encloses, so the self times of all layers add up
to the solve time the benchmark measures around `solve`.  Counting done
by a wrapper after the call returns is charged to `trace.bookkeeping`,
not to any layer.  A boundary name that no longer exists is recorded as
absent, and a counting hook that fails (say, on a changed return type)
is recorded as broken; the metrics fed by either are then reported as
absent (null) rather than blamed on the program.
"""

from __future__ import annotations

import importlib
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute) -> span key.  The solver's root span is opened by
# the benchmark itself around each `solve` call.
SPANS = {
    ("subsetsum.cli", "Instance"): "core.instance",
    ("subsetsum.solver", "normalize"): "core.normalize",
    ("subsetsum.solver", "partition_instance"): "structure.partition",
    ("subsetsum.solver", "bounded_subset_sums"): "solver.bounded_sums",
    ("subsetsum.solver", "fallback_dp"): "solver.fallback_dp",
    ("subsetsum.solver", "cap"): "solver.combine",
    ("subsetsum.solver", "dense_interval_set"): "solver.combine",
    ("subsetsum.solver", "partition_groups"): "colorcoding.phase1",
    ("subsetsum.solver", "build_group_sumsets"): "colorcoding.phase2",
    ("subsetsum.solver", "merge_group_sumsets"): "merge",
    ("subsetsum.solver", "evidence_from_color_trip"): "merge",
}
# Sumset kernel entry points, split by caller: colour coding (phase 2),
# the merge tree (phase 3) and the solver's final combine.
KERNELS = {
    ("subsetsum.colorcoding", "_sum_values"): "sumset.phase2",
    ("subsetsum.merge", "_pair_level"): "sumset.phase3",
    ("subsetsum.solver", "dense_sumset"): "sumset.combine",
}


class Tracer:
    """Span times (inclusive and self) and counts, keyed by layer."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = [[0.0]]
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        # span key -> the error its counting hook raised, over the whole run
        self.broken: dict[str, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stack = [[0.0]]
        self.times.clear()
        self.counts.clear()

    def install(self) -> None:
        self.absent = []
        for (mod_name, attr), key in {**SPANS, **KERNELS}.items():
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(key, original, _AFTER.get(key)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def span(self, key, fn, after=None):
        """Wrap fn in a span named key; `after(tracer, args, kwargs, result)` counts.

        A raise of fn is counted as `<key>.errors` and re-raised.  A raise
        of `after` is not the program's: it is recorded in `broken` and
        the metrics fed by key are then reported as absent.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            child = [0.0]
            tracer.stack.append(child)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[key + ".errors"] += 1
                raise
            finally:
                elapsed = _clock() - start
                tracer.stack.pop()
                tracer.stack[-1][0] += elapsed
                tracer.times[key] += elapsed
                tracer.times[key + ".self"] += elapsed - child[0]
            mid = _clock()
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except Exception as exc:
                    tracer.broken.setdefault(key, f"{type(exc).__name__}: {exc}")
            book = _clock() - mid
            tracer.times["trace.bookkeeping"] += book
            tracer.stack[-1][0] += book
            return result

        return wrapper


def _after_partition(tracer, args, kwargs, part):
    c = tracer.counts
    c["structure.divisor"] += part.divisor
    c["structure.leftover_items"] += len(part.leftover_part)
    c["structure.residue_items"] += len(part.residue_part)
    c["structure.dense_items"] += len(part.dense_part)


def _after_fallback(tracer, args, kwargs, result):
    tracer.counts["solver.fallback_dp_calls"] += 1


def _after_phase1(tracer, args, kwargs, family):
    c = tracer.counts
    c["colorcoding.groups"] += family.raw_count
    c["colorcoding.multi_groups"] += sum(1 for g in family.groups if len(g) >= 2)


def _after_phase2(tracer, args, kwargs, result):
    if type(result).__name__ == "DenseTripSignal":
        tracer.counts["colorcoding.trips"] += 1
    else:
        tracer.counts["colorcoding.group_sumset_values"] += sum(len(s) for s in result.sets)


def _after_merge(tracer, args, kwargs, result):
    c = tracer.counts
    if type(result).__name__ == "DenseEvidence":  # from phase 3 or a phase-2 trip
        c["merge.evidence"] += 1
        return
    # merge_group_sumsets(staged, family, t, ..., window=...)
    root, t, window = result.values, args[2], kwargs["window"]
    c["merge.root_values"] += len(root)
    c["merge.root_useful"] += bisect_right(root, t) - bisect_left(root, max(t - window, 0))


def _after_phase2_kernel(tracer, args, kwargs, result):
    tracer.counts["sumset.phase2.calls"] += 1
    tracer.counts["sumset.phase2.out_values"] += len(result)


def _after_phase3_kernel(tracer, args, kwargs, result):
    values = args[0]
    out, _signal = result
    c = tracer.counts
    hull = c["sumset.phase3.max_hull"]
    for i, z in enumerate(out):
        x, y = values[2 * i], values[2 * i + 1]
        if len(x) and len(y):
            c["sumset.phase3.calls"] += 1
            hull = max(hull, int(x[-1] - x[0] + y[-1] - y[0] + 1))
        c["sumset.phase3.out_values"] += len(z)
    c["sumset.phase3.max_hull"] = hull


_AFTER = {
    "structure.partition": _after_partition,
    "solver.fallback_dp": _after_fallback,
    "colorcoding.phase1": _after_phase1,
    "colorcoding.phase2": _after_phase2,
    "merge": _after_merge,
    "sumset.phase2": _after_phase2_kernel,
    "sumset.phase3": _after_phase3_kernel,
}
