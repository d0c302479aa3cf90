"""Independent reference oracles for the test suite.

These deliberately use different machinery from the package (plain set
DP and exhaustive enumeration, no bitsets, no FFT) so that agreement is
meaningful.  The per-item split, the list-based stage one and the
slot-padded budgeted stage two are the package's earlier
implementations, kept as references for its current versions.  The
textbook set DP (`subset_sum_decision`) and the exhaustive `brute_force`
were the package's exact oracles before it kept only the DPs a solve
runs.  The full-table bitset DP (`bitset_dp_table`) was the baseline of
the package's deleted `subsetsum bench`; acceptance 8 times it against
`solve`.  The per-item early-exit DP (`per_item_dp`) was the package's
`fallback_dp` before that became the window DP over the multiset, which
the combine and the collapsed merge share; the tests take it as the
truth.  `reference_instance` is the `Instance` constructor's
validation before the constructor read the items into an int64 array.
"""

import math
from collections import Counter
from itertools import combinations
from typing import Sequence

import numpy as np

from subsetsum.colorcoding import DenseTripSignal, GroupFamily, GroupSumsets
from subsetsum.core import OVERFLOW_LIMIT, InvalidInstanceError, OracleBudgetError, ceil_log2
from subsetsum.solver import FALLBACK_MAX_BITS
from subsetsum.sumset import Flat, Level, _offsets, _pair_level, _segment_index, common_step


def multiset(items):
    """The items as the package's entry points take them: the distinct
    values, ascending, and the count of each, as int64 arrays (the form of
    `Instance.multiset`)."""
    values, counts = np.unique(np.asarray(items, dtype=np.int64), return_counts=True)
    return values, counts.astype(np.int64, copy=False)


def subset_sums(items, cap=None):
    """All achievable subset sums (optionally capped), sorted."""
    sums = {0}
    for x in items:
        if cap is None:
            sums |= {s + x for s in sums}
        else:
            sums |= {s + x for s in sums if s + x <= cap}
    return sorted(sums)


def per_copy_subset_sums(items, cap=None):
    """All subset sums of the multiset items (optionally capped), sorted:
    a boolean row over [0, sigma] (or [0, cap]) with every copy added as
    its own 0/1 item, with no multiplicity split."""
    reach = np.zeros((sum(items) if cap is None else cap) + 1, dtype=bool)
    reach[0] = True
    for x in items:
        if 0 < x < len(reach):
            reach[x:] |= reach[:-x].copy()
    return np.flatnonzero(reach).tolist()


def subset_sum_decision(items, t):
    """Reachable-sum set DP over [0, t], the O(n*t) textbook formulation."""
    if t < 0:
        return False
    sums = {0}
    for x in items:
        sums |= {s + x for s in sums if s + x <= t}
        if t in sums:
            return True
    return t in sums


def per_item_dp(items: Sequence[int], t: int) -> bool:
    """Exact decision by bitset DP over [0, t], one shift per item, with
    an early exit once bit t is set; within `FALLBACK_MAX_BITS` bits.

    The package's `fallback_dp` before it became the multiplicity-splitting
    window DP; kept as the independent oracle the tests check it and the
    pipeline against."""
    if t < 0:
        return False
    if t + 1 > FALLBACK_MAX_BITS:
        raise OracleBudgetError(f"DP budget exceeded: t+1 = {t + 1} bits")
    limit = (1 << (t + 1)) - 1
    mask = 1
    # Python ints: shifting a Python int by an int64 raises OverflowError
    # once the result leaves int64
    for x in items.tolist() if isinstance(items, np.ndarray) else items:
        if x <= t:
            mask |= (mask << x) & limit
            if (mask >> t) & 1:
                return True
    return (mask >> t) & 1 == 1


def bitset_dp_table(items: Sequence[int], t: int, max_bits: int = 1 << 34) -> bool:
    """Bitset DP that always fills the full [0, t] table.

    A sentinel bit above t keeps the mask at full width so every shift
    costs Theta(t / wordsize) regardless of the items, matching the
    textbook cost model.  Used as the benchmark baseline; `per_item_dp`
    is the same DP with an early exit, and the package's `fallback_dp`
    is its multiplicity-splitting window DP (`sumset.window_subset_sums`).
    """
    if t < 0:
        return False
    if t + 2 > max_bits:
        raise OracleBudgetError(f"DP budget exceeded: t+2 = {t + 2} bits")
    sentinel = 1 << (t + 1)
    keep = (1 << (t + 1)) - 1
    mask = sentinel | 1
    for x in items:
        if x <= t:
            mask |= (mask << x) & keep
    return (mask >> t) & 1 == 1


def brute_force(instance):
    """Exhaustive decision for n <= 25 (meet-in-the-middle above 20)."""
    items, t = instance.items, instance.target
    n = len(items)
    if n > 25:
        raise OracleBudgetError("brute force capped at n = 25")
    if n <= 20:
        sums = {0}
        for x in items:
            sums |= {s + x for s in sums}
        return t in sums
    half = n // 2
    left = {0}
    for x in items[:half]:
        left |= {s + x for s in left}
    right = {0}
    for x in items[half:]:
        right |= {s + x for s in right}
    return any(t - s in right for s in left)


def reference_instance(items, target):
    """(items, target, n, w, sigma) as the per-item `Instance` constructor
    derived them, or the error it raised."""
    items = tuple(int(x) for x in items)
    target = int(target)
    if any(x < 1 for x in items):
        raise InvalidInstanceError("all items must be >= 1")
    if target < 0:
        raise InvalidInstanceError("target must be >= 0")
    w = max(items, default=0)
    n = len(items)
    # Overflow guard: all subset sums must stay below 2**63.
    if n * max(w, 1) >= OVERFLOW_LIMIT or target >= OVERFLOW_LIMIT:
        raise InvalidInstanceError("instance exceeds 64-bit sum guard (n*w < 2**63)")
    return items, target, n, w, sum(items)


def pairwise_sumset(a, b):
    """Brute-force sumset of two iterables, sorted and deduplicated."""
    return sorted({x + y for x in a for y in b})


def level_of(sets, step=None):
    """The `Level` of strictly increasing sets, in runs of step (which
    must divide every value; by default their `common_step`).  The
    package builds its levels from values already back to back, so only
    the tests start from a list of sets."""
    flat = Flat.of(sets)
    return Level.from_values(flat.vals, flat.offs, step)


def ascending_family(groups, raw_count):
    """The `GroupFamily` of the groups, each sorted first: a family refuses
    a group that does not ascend, and the tests write groups in any
    order."""
    return GroupFamily(Flat.of([sorted(g) for g in groups]), raw_count)


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


def slot_stage_two(family, params, rng):
    """Budgeted stage two with every occupied node summed: the package's
    earlier `colorcoding._budgeted_sumsets`, which pads a missing sibling
    with the run [0, 0] ({0}) and sums that pair through the level kernel
    `_pair_level`.

    Takes the same draws and returns the same GroupSumsets or
    DenseTripSignal as the package.  Unlike `materialized_stage_two` it
    holds only the occupied parts, so it reaches pipeline-sized g.  Level
    0 and the final sets are unions of values (`distinct_by_key`), which
    share no code with the package's union of runs.
    """
    g, ell = params.g, family.ell
    elems = family.groups.vals
    owner = np.repeat(np.arange(ell, dtype=np.int64), family.groups.sizes())
    step = common_step(elems)
    roots_key, roots_val = [np.arange(ell, dtype=np.int64)], [np.zeros(ell, dtype=np.int64)]
    complete = np.zeros(ell, dtype=bool)
    for rep in range(params.reps):
        keys = owner * g + rng.integers(0, g, size=elems.size)
        order = np.lexsort((elems, keys))
        part_key, part_val = keys[order], elems[order]
        shared = np.zeros(ell, dtype=bool)
        shared[part_key[1:][part_key[1:] == part_key[:-1]] // g] = True
        complete |= ~shared
        # level 0: each occupied part is {0} plus its distinct elements
        node_key, part_start = np.unique(part_key, return_index=True)
        cur = distinct_by_key(
            np.concatenate((part_key, node_key)),
            np.concatenate((part_val, np.zeros_like(node_key))),
            node_key,
            step,
        )
        for h in range(1, ceil_log2(g) + 1):
            num_nodes = ell * (g >> h)
            budget = num_nodes + params.tail
            # child i is operand slot[i] of the level; a missing sibling is
            # {0}, the run [0, 0]
            child_key, child_runs = node_key, np.diff(cur.offs)
            node_key, pair = np.unique(child_key >> 1, return_inverse=True)
            slot = 2 * pair + (child_key & 1)
            slot_runs = np.ones(2 * node_key.size, dtype=np.int64)
            slot_runs[slot] = child_runs
            offs = _offsets(slot_runs)
            at = _segment_index(offs[slot], child_runs)
            starts = np.zeros(int(offs[-1]), dtype=np.int64)
            ends = np.zeros_like(starts)
            starts[at], ends[at] = cur.starts, cur.ends
            gaps = np.diff(node_key, prepend=-1) - 1
            cur, signal = _pair_level(Level(starts, ends, offs, step), budget, gaps)
            sizes = cur.sizes()
            extra = int(sizes.sum()) - len(cur)  # sum of (size - 1) over computed nodes
            if signal is None and num_nodes + extra < budget:
                continue
            # the running total after the last computed node is its global
            # index + 1 + extra: the stop is on that node if this reaches the
            # budget, else in a gap (before the next node or trailing)
            after = int(node_key[len(cur) - 1]) + 1 if len(cur) else 0
            on_node = after + extra >= budget
            # the first part of each node, and each part's largest element
            node_start = np.flatnonzero(np.diff(part_key[part_start] >> h, prepend=-1))
            part_max = part_val[np.append(part_start[1:], part_key.size) - 1]
            return DenseTripSignal(
                level=h,
                observed_total_size=budget if signal is None else signal,
                threshold=budget,
                rho=params.rho,
                u_prime=params.u_prime,
                g=g,
                num_nodes=num_nodes,
                trivial_nodes=num_nodes - node_key.size,
                trip_index=after if on_node else budget - extra,
                repetition=rep,
                node_sizes=sizes.tolist() + [1] * (node_key.size - len(cur)),
                node_f=np.add.reduceat(part_max, node_start).tolist(),
                node_sigma=np.add.reduceat(part_val, part_start[node_start]).tolist(),
            )
        roots_key.append(np.repeat(node_key, cur.sizes()))
        roots_val.append(cur.values())
    sets = distinct_by_key(np.concatenate(roots_key), np.concatenate(roots_val), np.arange(ell), step)
    return GroupSumsets(sets, params, bool(complete.all()))


def distinct_by_key(keys, vals, nodes, step):
    """The `Level` (in runs of step) whose node i holds the distinct
    values paired with key nodes[i]; nodes ascends and holds every key.
    A plain union: `np.unique` over the (key, value) rows."""
    rows = np.unique(np.column_stack((keys, vals)), axis=0)
    offs = np.append(np.searchsorted(rows[:, 0], nodes), len(rows))
    return Level.from_values(np.ascontiguousarray(rows[:, 1]), offs, step)


def full_subset_sums(groups, sets):
    """Whether every set is its group's full subset sums: the exactness
    flag stage two must report for these groups and final sets."""
    return all(list(s) == subset_sums(g) for g, s in zip(groups, sets))


def merge_bounds(rho, g, t, w, n, q, eta_mult, budget_mult, window):
    """(eta, u_prime, budget tail) of the merge, by its formulas."""
    lgw = math.log2(max(w, 2))
    eta = math.ceil(eta_mult * 2304 * math.sqrt(w * t) * lgw**2 * math.log2(2 * n / q) ** 3) + window
    u_prime = max(4 * eta + 9, 2 * g * w + 1)
    tail = math.ceil(budget_mult * 4 * rho * u_prime * (u_prime - 1).bit_length())
    return eta, u_prime, tail


def reference_merge(
    group_sets, group_sums, rho, g, t, w, n, q, rng, eta_mult, budget_mult, window
):
    """The merge tree on lists of values: `merge_group_sumsets` with every
    pair summed by `pairwise_sumset`, every node capped one by one and the
    running total size counted pair by pair, left to right.

    group_sets are the groups' sorted sets, group_sums their element sums,
    rho and g colour coding's parameters.  Returns ("root", the uncapped
    root's values) or ("evidence", the fields of the phase-three
    DenseEvidence of the first level whose running total reaches its
    budget, the level's node count plus the tail).
    """
    order = rng.permutation(len(group_sets)).tolist()
    sets = [list(group_sets[i]) for i in order]
    f = [s[-1] for s in sets]
    sigma = [group_sums[i] for i in order]
    eta, u_prime, tail = merge_bounds(rho, g, t, w, n, q, eta_mult, budget_mult, window)
    level = 0
    while len(sets) > 1:
        level += 1
        nodes = len(sets) // 2
        budget = nodes + tail
        f = [a + b for a, b in zip(f[0::2], f[1::2])]
        sigma = [a + b for a, b in zip(sigma[0::2], sigma[1::2])]
        out, running = [], 0
        for a, b in zip(sets[0::2], sets[1::2]):
            out.append(pairwise_sumset(a, b) if a and b else [])
            running += len(out[-1])
            if running < budget:
                continue
            rest = sets[2 * len(out) :]
            rest_sizes = [int(bool(a and b)) for a, b in zip(rest[0::2], rest[1::2])]
            return "evidence", {
                "source": "phase-three",
                "t": t,
                "rho": rho,
                "u_prime": u_prime,
                "level": level,
                "threshold": budget,
                "observed_total_size": running,
                "trivial_sets": 0,
                # a node after the stop has size >= 1 unless an operand is empty
                "set_sizes": [len(z) for z in out] + rest_sizes,
                "f_values": f,
                "sigma_values": sigma,
                # the maxima of the nodes computed before the stop
                "max_values": [z[-1] if z else 0 for z in out],
            }
        lo, hi = t // nodes - eta - 1, -(-t // nodes) + eta + 1
        sets = [[v for v in z if lo <= v <= hi] for z in out]
    return "root", tuple(sets[0])


def split_into_parts(elems, g, rng):
    """Uniform random assignment of elements to g parts; only occupied
    parts are returned."""
    parts = {}
    if elems:
        draws = rng.integers(0, g, size=len(elems))
        for x, p in zip(elems, draws):
            parts.setdefault(int(p), []).append(x)
    return parts


def factorize(x):
    """The prime factorization {p: exponent} of an integer x >= 1, by
    trial division with 2 and the odd numbers up to the square root of
    what is left."""
    if x < 1:
        raise ValueError("x must be >= 1")
    factors, p = {}, 2
    while p * p <= x:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


def reference_almost_divisor(items, alpha):
    """The smallest prime dividing all but at most alpha items, counted
    from every item's factorization (2 when there are at most alpha)."""
    n = len(items)
    if n == 0:
        return None
    if n <= alpha:
        return 2
    counts = Counter(p for x in items for p in factorize(x))
    for p in sorted(counts):
        if n - counts[p] <= alpha:
            return p
    return None


def reference_partition(items, t, w):
    """(divisor, leftover, residue, dense, alpha) of `partition_instance`,
    item by item: peel almost divisors, take the residue seed and the
    adjoined non-multiples, and subtract them from the peeled multiset."""
    alpha = max(math.isqrt(t // w), 1)
    while alpha * alpha * w < t:
        alpha += 1
    current, d, leftovers = sorted(items), 1, []
    for _ in range(max(w, 1).bit_length() + 1):
        p = reference_almost_divisor(current, alpha) if current else None
        if p is None:
            break
        leftovers += [x * d for x in current if x % p]
        current = [x // p for x in current if x % p == 0]
        d *= p
    leftovers = tuple(sorted(leftovers))
    if not current:
        return d, leftovers, (), (), alpha
    chosen = set(range(min(2 * alpha, len(current))))
    if len(current) > 2 * alpha:
        seed = current[: 2 * alpha]
        for p in sorted({p for x in seed for p in factorize(x)}):
            if p <= alpha and sum(1 for x in seed if x % p) <= alpha:
                chosen.update([i for i, x in enumerate(current) if x % p][:alpha])
    residue = [current[i] for i in sorted(chosen)]
    rest = Counter(current)
    rest.subtract(Counter(residue))
    dense = sorted(x * d for x in rest.elements())
    return d, leftovers, tuple(x * d for x in residue), tuple(dense), alpha


def reference_partition_groups(d_part, t, rng):
    """(groups as tuples, raw_count, elements moved into empty buckets)
    of stage one, bucket by bucket with the same draws."""
    by_layer = {}
    for x in sorted(d_part):
        by_layer.setdefault(x.bit_length() - 1, []).append(x)
    groups, moved = [], 0
    for j in sorted(by_layer):
        layer_items = by_layer[j]
        size = len(layer_items)
        cap_j = 2 * t if j == 0 else -(-t // (1 << (j - 1)))
        alpha_j = min(cap_j, size)
        if alpha_j == size:
            buckets = [[x] for x in layer_items]
        else:
            assignment = rng.integers(0, alpha_j, size=size)
            buckets = [[] for _ in range(alpha_j)]
            for x, b in zip(layer_items, assignment):
                buckets[int(b)].append(x)
            # move one element from any crowded bucket into each empty one
            donors = [i for i, b in enumerate(buckets) if len(b) >= 2]
            for b in buckets:
                if b:
                    continue
                while donors and len(buckets[donors[-1]]) < 2:
                    donors.pop()
                if not donors:
                    break
                b.append(buckets[donors[-1]].pop())
                moved += 1
        groups += [tuple(b) for b in buckets]
    raw = len(groups)
    ell = 1 << max(raw - 1, 0).bit_length()
    return tuple(groups) + ((),) * (ell - raw), raw, moved


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
