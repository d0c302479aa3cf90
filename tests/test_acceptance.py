"""Acceptance suite: one test per release criterion.

Each test prints a PASS line (visible with `pytest -s` or `-rA`) after
its assertions.  The sweeps are sized for desk-scale runtimes; the
stated budgets are minutes, the suite typically finishes far faster.
"""

import gc
import json
import math
import time

import numpy as np

from subsetsum.cli import generate_instance, main
from subsetsum.core import Instance, SolverConfig, next_pow2, rng_stream
from subsetsum.solver import solve
from subsetsum.structure import alpha_for, partition_instance
from subsetsum.sumset import SumSet, _pair_level, dense_sumset

from oracles import bitset_dp_table, level_of, loglog_fit, pairwise_sumset, per_item_dp, residues_covered, split_into_parts


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_acceptance_1_soundness_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(20240601)
    count = 10_000
    sparse_false_pos = 0
    dense_fired = 0
    dense_disagree = 0
    mismatches = 0
    branches = {"sparse": 0, "dense": 0, "fallback-dp": 0, "trivial": 0}
    for i in range(count):
        n = int(rng.integers(1, 15))
        w = int(rng.integers(1, 41))
        items = tuple(int(v) for v in rng.integers(1, w + 1, size=n))
        t = int(rng.integers(0, sum(items) + 1))
        cfg = SolverConfig(seed=i, checked_mode=True)
        out = solve(Instance(items, t), cfg)
        truth = per_item_dp(items, t)
        branches[out.branch] += 1
        if out.decision and not truth and out.branch != "dense":
            sparse_false_pos += 1
        if out.branch == "dense" and out.report.checked_disagreement is not None:
            dense_fired += 1
            if out.report.checked_disagreement:
                dense_disagree += 1
        if out.decision != truth:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert sparse_false_pos == 0
    assert dense_disagree == 0
    assert mismatches == 0
    assert elapsed < 300
    _report(
        1,
        f"{count} instances, 0 certified-path false positives, "
        f"dense checked fired {dense_fired}x with 0 disagreements, "
        f"branches {branches}, {elapsed:.1f}s",
    )


def _planted_yes_instance(rng, w, t, sigma_target):
    """Items containing a subset that sums exactly to t, with total mass
    close to sigma_target."""
    witness = []
    remaining = t
    while remaining > w:
        v = int(rng.integers(1, w + 1))
        witness.append(v)
        remaining -= v
    if remaining:
        witness.append(remaining)
    filler = []
    total = sum(witness)
    while total < sigma_target:
        v = int(rng.integers(1, w + 1))
        filler.append(v)
        total += v
    return Instance(tuple(witness + filler), t)


def test_acceptance_2_completeness_pipeline_regime():
    start = time.monotonic()
    q = 0.01
    rng = np.random.default_rng(77)
    cells = [(2, 200)] * 1950 + [(3, 1200)] * 50
    yes = 0
    pipeline = 0
    for i, (w, t_min) in enumerate(cells):
        t = int(t_min * (1 + rng.random()))
        gate = 100 * w * max((w - 1).bit_length(), 1) ** 2
        t = max(t, gate)
        sigma_target = int(t * (2.6 + 0.8 * rng.random()))
        inst = _planted_yes_instance(rng, w, t, sigma_target)
        assert inst.sigma >= 2 * inst.target
        out = solve(inst, SolverConfig(seed=1_000_000 + i, error_q=q))
        if out.branch in ("sparse", "dense"):
            pipeline += 1
        if out.decision:
            yes += 1
    elapsed = time.monotonic() - start
    n_total = len(cells)
    rate = yes / n_total
    bound = 5 * q
    stderr = math.sqrt(bound * (1 - bound) / n_total)
    assert rate >= 1 - bound - 3 * stderr, f"yes-rate {rate}"
    assert elapsed < 600
    _report(
        2,
        f"{n_total} planted yes-instances, yes-rate {rate:.4f} "
        f">= {1 - bound - 3 * stderr:.4f}, pipeline branch on {pipeline}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_3_sumset_kernel_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        na, nb = int(rng.integers(1, 201)), int(rng.integers(1, 201))
        a = sorted(set(int(v) for v in rng.integers(0, 100_001, size=na)))
        b = sorted(set(int(v) for v in rng.integers(0, 100_001, size=nb)))
        expected = tuple(pairwise_sumset(a, b))
        sa, sb = SumSet(tuple(a)), SumSet(tuple(b))
        assert tuple(dense_sumset(sa, sb).values.tolist()) == expected
    _report(3, "1000 random pairs: dense_sumset == exhaustive oracle")


def test_acceptance_4_partition_assertions():
    rng = np.random.default_rng(4)
    done = 0
    while done < 500:
        w = int(rng.integers(2, 41))
        n = int(rng.integers(30, 200))
        items = tuple(int(v) for v in rng.integers(1, w + 1, size=n))
        lg = max(items).bit_length()
        alpha_cap = max(1, n // (4 * (lg + 1)))
        alpha_target = int(rng.integers(1, alpha_cap + 1))
        t = min(max(alpha_target * alpha_target * w, 1), sum(items) // 2)
        if t < 1:
            continue
        done += 1
        inst = Instance(items, t)
        part = partition_instance(inst)
        leftover, residue, dense = (p.tolist() for p in (part.leftover_part, part.residue_part, part.dense_part))
        merged = sorted(leftover + residue + dense)
        assert merged == sorted(items)
        d = part.divisor
        assert all(x % d == 0 for x in residue + dense)
        wv, tv = inst.w, inst.target
        lgw = math.log2(wv)
        sqwt = math.sqrt(wv * tv)
        slack_g = sqwt + wv * (lgw + 1)
        slack_r = 4 * wv * (lgw + 1)
        assert sum(leftover) <= sqwt * lgw + slack_g
        assert sum(residue) <= 4 * sqwt * lgw + slack_r
        reduced = [x // d for x in residue]
        for b in range(2, alpha_for(tv, wv) + 1):
            assert residues_covered(reduced, b) == set(range(b))
    _report(4, "500 partitions: divisibility, mass bounds (+slack), residue coverage")


def test_acceptance_5_split_isolation_probability():
    trials = 5000
    for k in (2, 4, 8):
        g = next_pow2(k * k)
        rng = rng_stream(55, f"split:{k}")
        ok = 0
        marked = list(range(k))
        for _ in range(trials):
            parts = split_into_parts(marked, g, rng)
            if all(len(v) == 1 for v in parts.values()):
                ok += 1
        rate = ok / trials
        stderr = math.sqrt(0.25 * 0.75 / trials)
        assert rate >= 0.25 - 3 * stderr, f"k={k}: rate {rate}"
    _report(5, "isolation rate >= 1/4 - 3*stderr for k in {2,4,8}, 5000 trials each")


def test_acceptance_6_sampling_concentration():
    # layered construction: group maxima in dyadic layers, per-layer
    # counts below the t/2^(j-1) caps, witness contributions below the
    # g-fold blowup of each group maximum
    w, t, n, q = 16, 10_000, 256, 0.25
    k = math.ceil(6 * math.log2(2 * n / q))
    g = next_pow2(k * k)
    rng = rng_stream(66, "concentration")
    values = []
    for j in range(0, w.bit_length()):
        cap_j = 2 * t if j == 0 else -(-t // (1 << (j - 1)))
        count = min(cap_j, 64)
        for _ in range(count):
            values.append(int(rng.integers(0, g * (1 << (j + 1)))))
    ell = next_pow2(len(values))
    values.extend(0 for _ in range(ell - len(values)))
    arr = np.array(values, dtype=np.int64)
    total = int(arr.sum())
    s = ell // 2
    threshold = 2304 * math.sqrt(w * t) * math.log2(w) ** 2 * math.log2(2 * n / q) ** 3
    trials = 2000
    exceed = 0
    for _ in range(trials):
        picked = rng.permutation(ell)[:s]
        dev = abs(int(arr[picked].sum()) - (s / ell) * total)
        if dev > threshold:
            exceed += 1
    bound = q / (2 * n)
    stderr = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
    assert exceed / trials <= bound + 3 * stderr
    _report(
        6,
        f"2000 sampling trials, {exceed} beyond the concentration bound "
        f"(allowed {bound + 3 * stderr:.5f})",
    )


def test_acceptance_7_budgeted_level_contract():
    rng = np.random.default_rng(7)
    signals = 0
    levels = 0
    for _ in range(400):
        ell = 2 * int(rng.integers(1, 33))
        sets = []
        for _ in range(ell):
            size = int(rng.integers(1, 8))
            sets.append(SumSet.of(int(v) for v in rng.integers(0, 600, size=size)))
        full = [
            tuple(pairwise_sumset(sets[2 * i].values, sets[2 * i + 1].values))
            for i in range(ell // 2)
        ]
        total = sum(len(f) for f in full)
        budget = int(rng.integers(1, 2 * total + 6))
        out, observed = _pair_level(level_of([s.values for s in sets]), budget)
        u = max(s.dm() for s in sets)
        if observed is not None:
            signals += 1
            # the stop is exact for every budget: the first pair whose
            # output brings the running total to the budget
            assert total >= budget
            stop = int(np.searchsorted(np.cumsum([len(f) for f in full]), budget)) + 1
            prefix = sum(len(f) for f in full[:stop])
            assert prefix == observed
            assert prefix >= budget
            assert [tuple(z.tolist()) for z in out] == full[:stop]
            # work bound: at most one extra set beyond the budget
            assert prefix <= budget + 2 * u + 1
        else:
            levels += 1
            assert [tuple(z.tolist()) for z in out] == full
            assert total < budget
    assert signals and levels
    _report(7, f"400 fuzzed level computations: {levels} full levels, {signals} signals, all confirmed")


def _best_times_ns(cells, reps, seed, warmup):
    """Best wall time over `reps` timed calls of `solve` ("paper") and of
    the full-table DP ("bitset-dp"), keyed by (algorithm, t).

    Each (n, w, t) cell generates one uniform instance that both share.
    Every (cell, algorithm) pair makes `warmup` untimed calls first; each
    call builds its SolverConfig before the clock starts and runs with
    the garbage collector collected and paused.
    """
    best = {}
    gc_was_enabled = gc.isenabled()
    try:
        for n, w, t in cells:
            inst = generate_instance("uniform", n, w, seed, t=t)
            for algorithm in ("paper", "bitset-dp"):
                for rep in range(-warmup, reps):
                    cfg = SolverConfig(seed=seed + max(rep, 0))
                    gc.collect()
                    gc.disable()
                    start = time.perf_counter_ns()
                    if algorithm == "paper":
                        solve(inst, cfg)
                    else:
                        bitset_dp_table(inst.items, inst.target)
                    elapsed = time.perf_counter_ns() - start
                    gc.enable()
                    if rep >= 0:
                        key = (algorithm, t)
                        best[key] = min(best.get(key, elapsed), elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def test_acceptance_8_scaling_benchmark():
    n, w = 64, 1 << 10
    ts = [1 << k for k in range(14, 21)]
    best = _best_times_ns([(n, w, t) for t in ts], reps=11, seed=1234, warmup=2)
    paper_times = [best[("paper", t)] for t in ts]
    dp_times = [best[("bitset-dp", t)] for t in ts]
    paper_slope, paper_r2 = loglog_fit(ts, paper_times)
    dp_slope, dp_r2 = loglog_fit(ts, dp_times)
    assert len(ts) >= 5
    assert paper_slope <= 0.7, f"paper exponent {paper_slope}"
    assert dp_slope >= 0.9, f"dp exponent {dp_slope}"
    assert dp_r2 >= 0.9, f"dp fit R^2 {dp_r2}"
    _report(
        8,
        f"t in 2^14..2^20: solver exponent {paper_slope:.2f} (R^2 {paper_r2:.2f}) "
        f"vs bitset-DP exponent {dp_slope:.2f} (R^2 {dp_r2:.2f})",
    )


def test_acceptance_9_deterministic_reports(tmp_path, capsys):
    gen_a = tmp_path / "a.txt"
    gen_b = tmp_path / "b.txt"
    gen_args = ["gen", "--profile", "uniform", "--n", "400", "--w", "2", "--seed", "42"]
    main(gen_args + ["--out", str(gen_a)])
    main(gen_args + ["--out", str(gen_b)])
    assert gen_a.read_bytes() == gen_b.read_bytes()

    inst_path = tmp_path / "pipe.txt"
    inst = _planted_yes_instance(np.random.default_rng(5), 2, 220, 640)
    inst_path.write_text(f"{inst.n} {inst.target}\n" + " ".join(map(str, inst.items)) + "\n")
    outputs = []
    for _ in range(2):
        main(["solve", str(inst_path), "--seed", "7", "--format", "json"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    for _ in range(2):
        main(["solve", str(inst_path), "--seed", "7"])
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]

    verify_args = [
        "verify", "--count", "50", "--n-min", "1", "--n-max", "10",
        "--w-min", "1", "--w-max", "20", "--seed", "11", "--format", "json",
    ]
    for _ in range(2):
        main(verify_args)
        outputs.append(capsys.readouterr().out)
    assert outputs[4] == outputs[5]

    _report(9, "gen/solve/verify byte-identical")
