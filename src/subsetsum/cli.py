"""Command-line front end: generate, solve, verify.

Instance files: first non-comment line is "n t", the following
non-comment lines hold n whitespace-separated positive integers.
Lines starting with '#' are comments.

Exit codes: 0 = yes, 1 = no, 2 = error (bad usage, unreadable or
malformed file, oracle budget), 3 = verification found a certified-path
false positive.

Reports are deterministic for a fixed --seed: timing information goes
to stderr in text mode and is only included in JSON when --timings is
passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import secrets
import sys
from typing import Optional, Sequence

from .core import Instance, InvalidInstanceError, OracleBudgetError, SolveOutcome, SolverConfig, rng_stream
from .solver import fallback_dp, solve

PROFILES = ("uniform", "dense", "sparse-window", "divisor-structured")


def parse_instance_text(text: str, source: str = "<input>") -> Instance:
    """Parse instance file content; errors carry the offending line."""
    header: Optional[tuple[int, int]] = None
    items: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            numbers = [int(tok) for tok in line.split()]
        except ValueError:
            raise InvalidInstanceError(f"{source}:{lineno}: non-integer token")
        if header is None:
            if len(numbers) != 2:
                raise InvalidInstanceError(f"{source}:{lineno}: expected 'n t' header")
            header = (numbers[0], numbers[1])
        else:
            items.extend(numbers)
    if header is None:
        raise InvalidInstanceError(f"{source}: empty instance file")
    n, t = header
    if len(items) != n:
        raise InvalidInstanceError(
            f"{source}: declared {n} items but found {len(items)}"
        )
    return Instance(items, t)


def format_instance_text(instance: Instance, comment: Optional[str] = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{instance.n} {instance.target}")
    lines.append(" ".join(str(x) for x in instance.items))
    return "\n".join(lines) + "\n"


def generate_instance(
    profile: str,
    n: int,
    w: int,
    seed: int,
    t: Optional[int] = None,
    divisor: int = 6,
    tail: int = 2,
) -> Instance:
    """Deterministic instance generation.

    uniform: items iid uniform on [1, w]; default target sigma/2.
    dense: many small items (the caller picks a small w and large n);
      default target sigma/4 so the bulk mass is comfortably above the
      merge stage's requirement.
    sparse-window: items from the top eighth of [1, w] and a planted
      achievable target, so feasible sums near t are sparse.
    divisor-structured: all but `tail` items share `divisor`.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile: {profile}")
    if n < 1 or w < 1:
        raise ValueError("n and w must be >= 1")
    rng = rng_stream(seed, f"gen:{profile}:{n}:{w}")
    if profile == "uniform":
        items = rng.integers(1, w + 1, size=n).tolist()
        default_t = sum(items) // 2
    elif profile == "dense":
        items = rng.integers(1, w + 1, size=n).tolist()
        default_t = sum(items) // 4
    elif profile == "sparse-window":
        lo = max(1, w - max(w // 8, 1))
        items = rng.integers(lo, w + 1, size=n).tolist()
        pick = rng.random(n) < 0.5
        default_t = int(sum(x for x, p in zip(items, pick) if p))
    else:  # divisor-structured
        if divisor < 2 or divisor > w:
            raise ValueError("divisor must be in [2, w]")
        tail = min(tail, n)
        # multiplied in place and rebound to the list, so that no second
        # item-sized array is made and none outlives the draw
        base = rng.integers(1, w // divisor + 1, size=n - tail)
        base *= divisor
        base = base.tolist()
        stray = []
        while len(stray) < tail:
            v = int(rng.integers(1, w + 1))
            if v % divisor:
                stray.append(v)
        items = base + stray
        default_t = sum(items) // 2
    return Instance(items, max(default_t if t is None else t, 0))


def outcome_to_dict(outcome: SolveOutcome, timings: bool = False) -> dict:
    d = {
        "decision": "yes" if outcome.decision else "no",
        "branch": outcome.branch,
        "candidate_set_size": outcome.candidate_set_size,
        "dense_evidence": None,
        "seed": outcome.seed,
    }
    if outcome.dense_evidence is not None:
        ev = outcome.dense_evidence
        d["dense_evidence"] = {
            "source": ev.source,
            "rho": ev.rho,
            "u_prime": ev.u_prime,
            "level": ev.level,
            "threshold": ev.threshold,
            "observed_total_size": ev.observed_total_size,
            "num_sets": ev.num_sets,
        }
    if outcome.report is not None:
        d["report"] = dataclasses.asdict(outcome.report)
    if timings:
        d["timings"] = dict(outcome.timings)
    return d


def _seed_from_args(args) -> int:
    """--seed, or a seed drawn from entropy and printed on stderr."""
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"# seed {seed}", file=sys.stderr)
    return seed


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        error_q=args.q,
        seed=_seed_from_args(args),
        checked_mode=args.checked,
        fallback_only=getattr(args, "fallback_only", False),
        eta_mult=args.eta_mult,
        budget_mult=args.budget_mult,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    seed = _seed_from_args(args)
    inst = generate_instance(
        args.profile, args.n, args.w, seed,
        t=args.t, divisor=args.d, tail=args.tail,
    )
    comment = f"profile={args.profile} n={args.n} w={args.w} seed={seed}"
    _emit(format_instance_text(inst, comment), args.out)
    return 0


def cmd_solve(args) -> int:
    with open(args.path) as fh:
        inst = parse_instance_text(fh.read(), source=args.path)
    config = _config_from_args(args)
    outcome = solve(inst, config)
    if args.format == "json":
        _emit(json.dumps(outcome_to_dict(outcome, timings=args.timings), indent=2) + "\n", args.out)
    else:
        lines = [
            f"decision: {'yes' if outcome.decision else 'no'}",
            f"branch: {outcome.branch}",
            f"seed: {outcome.seed}",
            f"candidate_set_size: {outcome.candidate_set_size}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
        total_ms = outcome.timings.get("total", 0) / 1e6
        print(f"# total {total_ms:.3f} ms", file=sys.stderr)
    return 0 if outcome.decision else 1


def verify_summary(
    count: int,
    n_range: tuple[int, int],
    w_range: tuple[int, int],
    seed: int,
    config_base: SolverConfig,
) -> dict:
    """Random instances solved twice: pipeline vs exact DP oracle."""
    rng = rng_stream(seed, "verify")
    tallies = {"sparse": 0, "dense": 0, "fallback-dp": 0, "trivial": 0}
    sparse_fp = 0
    dense_fp = 0
    false_neg = 0
    yes_total = 0
    disagreements = 0
    for i in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        w = int(rng.integers(w_range[0], w_range[1] + 1))
        items = rng.integers(1, w + 1, size=n).tolist()
        sigma = sum(items)
        t = int(rng.integers(0, sigma + 1))
        inst = Instance(items, t)
        cfg = dataclasses.replace(config_base, seed=(seed * 1_000_003 + i) & ((1 << 63) - 1))
        outcome = solve(inst, cfg)
        truth = fallback_dp(inst.multiset, t)
        tallies[outcome.branch] += 1
        if truth:
            yes_total += 1
            if not outcome.decision:
                false_neg += 1
        elif outcome.decision:
            if outcome.branch == "dense":
                dense_fp += 1
            else:
                sparse_fp += 1
        if outcome.decision != truth:
            disagreements += 1
    return {
        "count": count,
        "yes_instances": yes_total,
        "branch_tallies": tallies,
        "sparse_false_positives": sparse_fp,
        "dense_false_positives": dense_fp,
        "false_negatives": false_neg,
        "false_negative_rate": (false_neg / yes_total) if yes_total else 0.0,
        "disagreements": disagreements,
    }


def cmd_verify(args) -> int:
    """Solve random instances and compare each decision with the exact DP.

    At the default sizes (n <= 14, w <= 40) no solve reaches the
    pipeline: every one is trivial or below the small-target gate, where
    the exact DP itself decides (300 instances at seed 3: 278
    fallback-dp, 22 trivial), so the sparse false-positive check cannot
    fail there.  A sweep that reaches the pipeline (a pipeline regime
    with a minimum pipeline share) is not implemented yet.
    """
    config = _config_from_args(args)
    summary = verify_summary(
        args.count, (args.n_min, args.n_max), (args.w_min, args.w_max), config.seed, config
    )
    summary["seed"] = config.seed
    if args.format == "json":
        _emit(json.dumps(summary, indent=2) + "\n", args.out)
    else:
        lines = [f"{k}: {v}" for k, v in summary.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 3 if summary["sparse_false_positives"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subsetsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--q", type=float, default=None, help="error parameter in (0,1)")
        p.add_argument("--checked", action="store_true")
        p.add_argument("--eta-mult", dest="eta_mult", type=float, default=1.0)
        p.add_argument("--budget-mult", dest="budget_mult", type=float, default=1.0)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--profile", choices=PROFILES, default="uniform")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--w", type=int, required=True)
    g.add_argument("--t", type=int, default=None)
    g.add_argument("--d", type=int, default=6, help="planted divisor (divisor-structured)")
    g.add_argument("--tail", type=int, default=2, help="non-divisible items (divisor-structured)")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("path")
    add_solver_flags(s)
    s.add_argument("--fallback-only", dest="fallback_only", action="store_true")
    s.add_argument("--timings", action="store_true", help="include timings in JSON output")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="random sweep against the exact DP oracle", description=cmd_verify.__doc__)
    v.add_argument("--count", type=int, default=1000)
    v.add_argument("--n-min", dest="n_min", type=int, default=1)
    v.add_argument("--n-max", dest="n_max", type=int, default=14)
    v.add_argument("--w-min", dest="w_min", type=int, default=1)
    v.add_argument("--w-max", dest="w_max", type=int, default=40)
    add_solver_flags(v)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInstanceError, OracleBudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
