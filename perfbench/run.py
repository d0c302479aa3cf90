"""Benchmark of the subsetsum solver: one workload per run.

    python3 perfbench/run.py --workload sparse-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory.  A run generates the workload's instances from
`--seed`, then runs passes until `--seconds` have passed (at least
three).  In each pass every instance is solved and then decided by the
benchmark's own full-table bitset DP (the oracle and the linear-in-t
baseline), and two fresh processes time the setup.  Every solve is
checked: it fails if it raises, disagrees with the oracle, or takes
another branch than the workload expects.  A failed solve, or a pass
that disagrees with the first pass on decision, branch, candidate set
size or report, makes the run incorrect.

Timings are per-instance medians over the passes.  Every kind of
measurement is spread over the whole run rather than timed in one
block, because the single-thread speed of a shared host drifts by tens
of percent over seconds to minutes.  `--trace 0` prints every
end-to-end metric, and the JSON carries those listed in BENCHMARK.json.
`--trace 1` alternates untraced and traced passes and prints the
per-layer metrics (see tracing.py).  Human-readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import KERNELS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 120

_clock = time.perf_counter


def _import_package():
    sys.path.insert(0, str(SRC))
    import subsetsum

    if Path(subsetsum.__file__).resolve().parent != SRC / "subsetsum":
        raise ImportError(f"subsetsum imported from {subsetsum.__file__}, not {SRC}")


def generate(workload, seed):
    """(instances, configs) of a workload; what `setup_s` measures."""
    from subsetsum.cli import generate_instance
    from subsetsum.core import SolverConfig

    instances, configs = [], []
    for s in workload.specs:
        instances.append(
            generate_instance(
                s.profile, s.n, s.w, derive_seed(seed, "gen:" + s.label),
                t=s.t, divisor=s.divisor, tail=s.tail,
            )
        )
        configs.append(
            SolverConfig(seed=derive_seed(seed, "solve:" + s.label), budget_mult=s.budget_mult)
        )
    return instances, configs


def probe_setup(name: str, seed: int) -> int:
    """Child process: time import + generation once, print seconds.

    Nothing heavy is imported before the clock starts, so the package's
    own imports (numpy included) are part of the measurement.
    """
    start = _clock()
    _import_package()
    generate(WORKLOADS[name], seed)
    print(repr(_clock() - start))
    return 0


def bitset_dp(items, t):
    """Exact decision by a bitset DP that always fills the full [0, t] table.

    The same algorithm as `subsetsum.solver.bitset_dp_table`, kept here so
    that the oracle and the baseline stay fixed when the package changes.
    A sentinel bit above t keeps every shift at full width.
    """
    keep = (1 << (t + 1)) - 1
    mask = (1 << (t + 1)) | 1
    for x in items:
        if x <= t:
            mask |= (mask << x) & keep
    return (mask >> t) & 1 == 1


def setup_probe(name, seed):
    """Setup time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, instances, configs, seconds, tracer):
    """Passes over every instance until `seconds` have passed.

    With a tracer, odd passes are traced; a traced run takes no setup
    probes.  Returns a list of passes: dicts with the solve signatures
    and times, the DP decisions and times, the setup probe times and,
    when traced, a snapshot of the tracer.
    """
    import subsetsum.solver as solver_mod

    traced_solve = tracer.span("solver", solver_mod.solve) if tracer else None
    passes = []
    start = _clock()
    while len(passes) < MIN_PASSES or _clock() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        solve = traced_solve if traced else solver_mod.solve
        if traced:
            tracer.reset()
            tracer.install()
        times, sigs, dp, dp_times = [], [], [], []
        before = workload.dp_repeats // 2
        gc.collect()
        gc.disable()
        try:
            for inst, cfg in zip(instances, configs):
                s = _clock()
                for _ in range(before):
                    bitset_dp(inst.items, inst.target)
                dp_before = _clock() - s
                s = _clock()
                try:
                    out = solve(inst, cfg)
                    sig = ("ok", out.decision, out.branch, out.candidate_set_size, out.report)
                except Exception as exc:  # a raising solve is a counted failure
                    sig = ("raised", type(exc).__name__, str(exc))
                times.append(_clock() - s)
                sigs.append(sig)
                s = _clock()
                dp.append(bitset_dp(inst.items, inst.target))
                for _ in range(workload.dp_repeats - before - 1):
                    bitset_dp(inst.items, inst.target)
                dp_times.append((dp_before + _clock() - s) / workload.dp_repeats)
        finally:
            gc.enable()
            if traced:
                tracer.uninstall()
        setup = [] if tracer else [setup_probe(workload.name, seed) for _ in range(SETUP_PROBES_PER_PASS)]
        record = {"times": times, "sigs": sigs, "dp": dp, "dp_times": dp_times, "setup": setup,
                  "traced": traced}
        if traced:
            record["trace"] = (dict(tracer.times), dict(tracer.counts))
        passes.append(record)
    return passes


def check(passes, expected_branch):
    """Failure counts over all solves, and determinism mismatches.

    The DP decisions are the oracle.
    """
    oracle = passes[0]["dp"]
    if any(p["dp"] != oracle for p in passes):
        raise RuntimeError("bitset DP oracle is not deterministic")
    c = {"attempted": 0, "raised": 0, "wrong": 0, "branch_mismatch": 0, "failed": 0,
         "nondeterministic": 0}
    errors = set()
    first = passes[0]["sigs"]
    for p in passes:
        for sig, truth, ref in zip(p["sigs"], oracle, first):
            c["attempted"] += 1
            bad = False
            if sig[0] == "raised":
                c["raised"] += 1
                errors.add(f"{sig[1]}: {sig[2]}")
                bad = True
            else:
                if sig[1] != truth:
                    c["wrong"] += 1
                    bad = True
                if sig[2] != expected_branch:
                    c["branch_mismatch"] += 1
                    bad = True
            c["failed"] += bad
            c["nondeterministic"] += sig != ref
    return c, sorted(errors), oracle


def per_instance(passes):
    """Median time of each instance over the given passes (lists of times)."""
    return [statistics.median(col) for col in zip(*passes)]


def tail(times):
    """(value, percentile) at the highest percentile with >= 10 solve
    times beyond it; (None, None) when fewer than 20 leave no tail above
    the median."""
    if len(times) < 20:
        return None, None
    xs = sorted(times)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def loglog_slope(xs, ys):
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def scaling(workload, instances, oracle, dp_per, solve_per):
    """Per-class medians over yes-only classes, their log-log slopes in t
    and the solve/DP ratio at the smallest and largest class target."""
    rows = []
    for cls in dict.fromkeys(s.cls for s in workload.specs):
        idx = [i for i, s in enumerate(workload.specs) if s.cls == cls]
        if not all(oracle[i] for i in idx):
            continue
        solve = statistics.median(solve_per[i] for i in idx)
        dp = statistics.median(dp_per[i] for i in idx)
        t = statistics.median(instances[i].target for i in idx)
        rows.append((t, cls, solve, dp))
    rows.sort()
    out = {"solver.t_exponent": None, "solver.dp_t_exponent": None,
           "solver.dp_ratio_min_t": None, "solver.dp_ratio_max_t": None}
    if len({r[0] for r in rows}) >= 2:
        ts = [r[0] for r in rows]
        out["solver.t_exponent"] = loglog_slope(ts, [r[2] for r in rows])
        out["solver.dp_t_exponent"] = loglog_slope(ts, [r[3] for r in rows])
        out["solver.dp_ratio_min_t"] = rows[0][2] / rows[0][3]
        out["solver.dp_ratio_max_t"] = rows[-1][2] / rows[-1][3]
    return out, rows


def traced_setup(workload, seed, repeats=3):
    """Setup under the tracer: median generate and Instance times."""
    gen, inst = [], []
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(repeats):
            tracer.reset()
            s = _clock()
            generate(workload, seed)
            total = _clock() - s
            inst.append(tracer.times["core.instance"])
            gen.append(total - inst[-1])
    finally:
        tracer.uninstall()
    return {"cli.generate_s": statistics.median(gen), "core.instance_s": statistics.median(inst)}


# metric -> the span keys it reads; null when one of them is absent
SOURCES = {
    "cli.generate_s": ["core.instance"],
    "core.instance_s": ["core.instance"],
    "core.normalize_s": ["core.normalize"],
    "structure.partition_s": ["structure.partition"],
    "structure.divisor": ["structure.partition"],
    "structure.leftover_items": ["structure.partition"],
    "structure.residue_items": ["structure.partition"],
    "structure.dense_items": ["structure.partition"],
    "solver.bounded_sums_s": ["solver.bounded_sums"],
    "solver.combine_s": ["solver.combine"],
    "solver.fallback_dp_calls": ["solver.fallback_dp"],
    "colorcoding.phase1_s": ["colorcoding.phase1"],
    "colorcoding.groups": ["colorcoding.phase1"],
    "colorcoding.multi_groups": ["colorcoding.phase1"],
    "colorcoding.phase2_s": ["colorcoding.phase2"],
    "colorcoding.phase2_self_s": ["colorcoding.phase2", "sumset.phase2"],
    "colorcoding.group_sumset_values": ["colorcoding.phase2"],
    "colorcoding.trips": ["colorcoding.phase2"],
    "merge.s": ["merge"],
    "merge.self_s": ["merge", "sumset.phase3"],
    "merge.root_values": ["merge"],
    "merge.evidence": ["merge"],
    "merge.root_useful_frac": ["merge"],
    "sumset.s": ["sumset.phase2", "sumset.phase3", "sumset.combine"],
    "sumset.phase2_calls": ["sumset.phase2"],
    "sumset.phase2_out_values": ["sumset.phase2"],
    "sumset.phase3_calls": ["sumset.phase3"],
    "sumset.phase3_out_values": ["sumset.phase3"],
    "sumset.phase3_max_hull": ["sumset.phase3"],
    "sumset.values_per_s": ["sumset.phase2", "sumset.phase3"],
    "sumset.errors": ["sumset.phase2", "sumset.phase3", "sumset.combine"],
}


def layer_metrics(traced, untraced_wall, absent_keys):
    """Per-layer metrics from the traced passes."""

    def med(key):
        return statistics.median(p["trace"][0].get(key, 0.0) for p in traced)

    counts = traced[0]["trace"][1]
    cnt = lambda key: counts.get(key, 0)  # noqa: E731
    tree_s = med("sumset.phase2") + med("sumset.phase3")
    out_values = cnt("sumset.phase2.out_values") + cnt("sumset.phase3.out_values")
    self_sum = statistics.median(
        sum(v for k, v in p["trace"][0].items() if k.endswith(".self")) for p in traced
    )
    wall = sum(per_instance([p["times"] for p in traced]))
    m = {
        "core.normalize_s": med("core.normalize"),
        "structure.partition_s": med("structure.partition"),
        "structure.divisor": cnt("structure.divisor"),
        "structure.leftover_items": cnt("structure.leftover_items"),
        "structure.residue_items": cnt("structure.residue_items"),
        "structure.dense_items": cnt("structure.dense_items"),
        "solver.bounded_sums_s": med("solver.bounded_sums"),
        "solver.combine_s": med("solver.combine"),
        "solver.self_s": med("solver.self"),
        "solver.fallback_dp_calls": cnt("solver.fallback_dp_calls"),
        "solver.candidate_values": sum(s[3] for s in traced[0]["sigs"] if s[0] == "ok"),
        "colorcoding.phase1_s": med("colorcoding.phase1"),
        "colorcoding.phase2_s": med("colorcoding.phase2"),
        "colorcoding.phase2_self_s": med("colorcoding.phase2.self"),
        "colorcoding.groups": cnt("colorcoding.groups"),
        "colorcoding.multi_groups": cnt("colorcoding.multi_groups"),
        "colorcoding.group_sumset_values": cnt("colorcoding.group_sumset_values"),
        "colorcoding.trips": cnt("colorcoding.trips"),
        "merge.s": med("merge"),
        "merge.self_s": med("merge.self"),
        "merge.root_values": cnt("merge.root_values"),
        "merge.evidence": cnt("merge.evidence"),
        "merge.root_useful_frac": cnt("merge.root_useful") / max(cnt("merge.root_values"), 1),
        "sumset.s": tree_s + med("sumset.combine"),
        "sumset.phase2_calls": cnt("sumset.phase2.calls"),
        "sumset.phase2_out_values": cnt("sumset.phase2.out_values"),
        "sumset.phase3_calls": cnt("sumset.phase3.calls"),
        "sumset.phase3_out_values": cnt("sumset.phase3.out_values"),
        "sumset.phase3_max_hull": cnt("sumset.phase3.max_hull"),
        "sumset.values_per_s": out_values / tree_s if tree_s > 0 else 0.0,
        "sumset.errors": sum(cnt(k + ".errors") for k in KERNELS.values()),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.bookkeeping_s": med("trace.bookkeeping"),
        "trace.unattributed_s": wall - self_sum - med("trace.bookkeeping"),
    }
    for name, keys in SOURCES.items():
        if any(k in absent_keys for k in keys):
            m[name] = None
    return m


def environment() -> str:
    try:
        import gmpy2  # noqa: F401

        gmp = "present"
    except ImportError:
        gmp = "absent"
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"python={platform.python_version()} numpy={numpy.__version__} gmpy2={gmp} "
            f"nproc={os.cpu_count()} cpu={cpu!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "subsetsum" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'subsetsum'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    _import_package()
    instances, configs = generate(workload, args.seed)
    tracer = Tracer() if args.trace else None
    passes = run_passes(workload, args.seed, instances, configs, args.seconds, tracer)
    counts, errors, oracle = check(passes, workload.expected_branch)
    setup = [x for p in passes for x in p["setup"]]

    untraced = [p for p in passes if not p["traced"]]
    solve_per = per_instance([p["times"] for p in untraced])
    dp_per = per_instance([p["dp_times"] for p in passes])
    wall = sum(solve_per)
    tail_s, tail_p = tail([x for p in untraced for x in p["times"]])
    scale, rungs = scaling(workload, instances, oracle, dp_per, solve_per)

    print(f"# workload {workload.name} seed {args.seed} trace {args.trace} "
          f"expected_branch {workload.expected_branch}")
    print(f"# env {environment()}")
    print(f"# instances {len(instances)}, passes {len(passes)} ({len(untraced)} untraced), "
          f"setup probes {len(setup)}")
    print("# pass walls " + " ".join(f"{sum(p['times']):.3f}{'*' if p['traced'] else ''}" for p in passes)
          + " s (* traced); dp " + " ".join(f"{sum(p['dp_times']):.3f}" for p in passes) + " s"
          + ("; setup " + " ".join(f"{x:.3f}" for x in setup) + " s" if setup else ""))
    print("# checks " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for e in errors:
        print(f"# raised {e}")
    for t, cls, solve, dp in rungs:
        print(f"# class {cls} t={t:g} solve_med={solve:.4f} s dp_med={dp:.4f} s ratio={solve / dp:.2f}")

    metrics = {
        "wall_s": wall,
        "solve_tail_s": tail_s,
        "dp_wall_s": sum(dp_per),
        "wall_dp_ratio": wall / sum(dp_per),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": counts["failed"] / counts["attempted"],
    }
    units = {"wall_s": "s", "solve_tail_s": "s", "dp_wall_s": "s", "wall_dp_ratio": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB", "failed_frac": "ratio"}
    for name, value in metrics.items():
        if value is None:
            print(f"{name} absent")
            continue
        note = f" (p{tail_p:.1f} of {len(untraced) * len(solve_per)} solves)" if name == "solve_tail_s" else ""
        print(f"{name} {value:.6g} {units[name]}{note}")

    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        absent_keys = {key for (mod, attr), key in {**SPANS, **KERNELS}.items()
                       if f"{mod}.{attr}" in tracer.absent} | set(tracer.broken)
        for b in tracer.absent:
            print(f"# absent boundary {b}")
        for key, err in tracer.broken.items():
            print(f"# broken counting hook {key}: {err}")
        metrics.update(traced_setup(workload, args.seed))
        metrics.update(layer_metrics(traced, wall, absent_keys))
        metrics.update(scale)
        m = metrics
        closes = abs(m["trace.unattributed_s"]) <= 0.01 * m["trace.wall_s"]
        print(f"# trace closure: traced wall {m['trace.wall_s']:.4f} s = layer self times "
              f"+ bookkeeping {m['trace.bookkeeping_s']:.4f} s + unattributed "
              f"{m['trace.unattributed_s']:.4f} s ({'ok' if closes else 'MISMATCH'}, within 1%); "
              f"tracing overhead {m['trace.overhead_s']:.4f} s")
        for spec in bench["per_layer"]:
            v = metrics[spec["name"]]
            shown = "absent" if v is None else v if isinstance(v, int) else f"{v:.6g}"
            print(f"{spec['name']} {shown} {spec['unit']}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": counts["failed"] == 0 and counts["nondeterministic"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
