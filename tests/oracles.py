"""Independent reference oracles for the test suite.

These deliberately use different machinery from the package (plain set
DP and exhaustive enumeration, no bitsets, no FFT) so that agreement is
meaningful.
"""

from itertools import combinations


def subset_sums(items, cap=None):
    """All achievable subset sums (optionally capped), sorted."""
    sums = {0}
    for x in items:
        if cap is None:
            sums |= {s + x for s in sums}
        else:
            sums |= {s + x for s in sums if s + x <= cap}
    return sorted(sums)


def subset_sum_decision(items, t):
    if t < 0:
        return False
    sums = {0}
    for x in items:
        sums |= {s + x for s in sums if s + x <= t}
        if t in sums:
            return True
    return t in sums


def pairwise_sumset(a, b):
    """Brute-force sumset of two iterables, sorted and deduplicated."""
    return sorted({x + y for x in a for y in b})


def materialized_stage_two(groups, g, reps, tail, rng):
    """Colour coding's stage two with every part of every group a real set.

    Each repetition draws every element's part (one rng.integers call over
    all elements, in group order), adjoins 0 to every part and sums the
    parts pairwise, level by level and left to right over all groups.  A
    level stops at the first node where the running total size reaches
    its budget, the level's node count plus tail.

    Returns ("sets", per-group sorted tuples: the union of every
    repetition's roots) when no repetition trips.  Otherwise returns
    ("trip", fields, kind): fields holds the trip's level, running total,
    budget, node counts, 1-based stop index, repetition, and the size
    (computed, else 1), the summed part maxima and the element sum of
    every node whose subtree holds an element; kind is "node" when the
    stopping node holds an element, "gap" when it is {0} and a node after
    it holds one, and "trailing" otherwise.
    """
    ell = len(groups)
    acc = [{0} for _ in range(ell)]
    for rep in range(reps):
        draws = iter(rng.integers(0, g, size=sum(map(len, groups))).tolist())
        parts = [[] for _ in range(ell * g)]
        for i, grp in enumerate(groups):
            for x in grp:
                parts[i * g + next(draws)].append(x)
        sets = [sorted({0, *p}) for p in parts]
        f = [max(p, default=0) for p in parts]
        sigma = [sum(p) for p in parts]
        held = [bool(p) for p in parts]
        level = 0
        while len(sets) > ell:
            level += 1
            budget = len(sets) // 2 + tail
            f = [a + b for a, b in zip(f[0::2], f[1::2])]
            sigma = [a + b for a, b in zip(sigma[0::2], sigma[1::2])]
            held = [a or b for a, b in zip(held[0::2], held[1::2])]
            out, running = [], 0
            for a, b in zip(sets[0::2], sets[1::2]):
                out.append(pairwise_sumset(a, b))
                running += len(out[-1])
                if running < budget:
                    continue
                stop = len(out)
                kept = [i for i, h in enumerate(held) if h]
                fields = {
                    "level": level,
                    "observed_total_size": running,
                    "threshold": budget,
                    "num_nodes": len(held),
                    "trivial_nodes": len(held) - len(kept),
                    "trip_index": stop,
                    "repetition": rep,
                    "node_sizes": [len(out[i]) if i < stop else 1 for i in kept],
                    "node_f": [f[i] for i in kept],
                    "node_sigma": [sigma[i] for i in kept],
                }
                kind = "node" if held[stop - 1] else "gap" if any(held[stop:]) else "trailing"
                return "trip", fields, kind
            sets = out
        for i in range(ell):
            acc[i].update(sets[i])
    return "sets", [tuple(sorted(s)) for s in acc]


def residues_covered(items, b):
    """Residue classes mod b reachable by subset sums of items."""
    reach = {0}
    for x in items:
        reach |= {(r + x) % b for r in reach}
    return reach


def almost_divisors(items, alpha, w):
    """All d in [2, w] dividing all but at most alpha of items."""
    out = []
    for d in range(2, w + 1):
        if sum(1 for x in items if x % d) <= alpha:
            out.append(d)
    return out


def all_subsets(items):
    """Every subset of items (as tuples), including the empty one."""
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def loglog_fit(xs, ys):
    """Least-squares slope and R^2 of log(y) against log(x)."""
    import math

    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = sum((y - my) ** 2 for y in ly)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, r2
