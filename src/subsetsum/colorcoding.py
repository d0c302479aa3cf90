"""Randomized grouping stages that keep hidden witness mass spread thin.

Stage one (`partition_groups`) splits the bulk multiset into dyadic
value layers [2^j, 2^(j+1)) and randomly partitions each layer into at
most ceil(t / 2^(j-1)) non-empty groups (rebalancing moves elements
into any empty group).  The group list is padded with empty groups to a
power-of-two length.  Consequences: any subset with sum <= t meets each
group in few elements with high probability, and the group maxima carry
a constant fraction of t in total without exceeding ~t log w.

Stage two (`build_group_sumsets`) runs color coding over every group
simultaneously: each group is split uniformly into g random parts, 0 is
adjoined to each part, and parts are merged pairwise level by level.
All groups' levels share one running size budget, checked in global
node order exactly as if every part (including the all-{0} padding)
were materialized and summed left to right.  Reaching the budget stops
everything and yields a dense trip signal whose bookkeeping (per-node
sizes, subtree maxima, subtree sums) suffices to build checkable dense
evidence.  Otherwise the per-group roots, unioned over all repetitions,
form the group sumsets.

The budgeted path never materializes the ell * g virtual forest.  A node
whose subtree holds no element is exactly {0}, a sumset identity of size
one, so it counts one toward the running total and is never computed.
Each repetition's parts become sorted keys group * g + part, and key >> h
is a node's global index at level h.  A level holds only the occupied
nodes, as one flat `Level`; a missing sibling is filled with {0}, and the
level kernel `_pair_level` sums the pairs in units of the elements'
common step under the level's budget, counting the virtual nodes before
each pair as that pair's gap.  The stop is therefore the one the
materialized computation makes, and colour coding checks the gap after
the last occupied node itself.  Phases 2 and 3 share that kernel and its
budget stop, so a tripping level computes at most LEVEL_CHUNK_VALUES
values plus one pair past its stop.

The budget can never trip when its tail exceeds the sum over groups of
min(sigma(G), 2^|G| - 1), a bound on any level's size excess over its
node count (see `_max_level_excess`); only then is the budgeted path
skipped.  Without a budget, a group is complete once one repetition
puts each of its elements into a part of its own.  A repetition's root
picks at most one element per part, so it is always a subset of the
group's subset sums, and it equals them when no part holds two elements;
later repetitions cannot add to a complete group.  Singletons and empty
groups are complete without any draw.  Repetitions are drawn only until
every group is complete, complete groups get their subset sums computed
once, and only groups that never complete are merged part by part from
their recorded draws.  The union over repetitions does not depend on
order, so the sets are bit-identical to merging every repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .core import SumSet, ceil_div, ceil_log2, next_pow2, target_window
from .sumset import Level, _offsets, _pair_level, _segment_index, _sum_values, common_step


@dataclass(frozen=True)
class GroupFamily:
    """Groups from stage one, padded to a power-of-two count.

    layers[i] is the dyadic layer index j of group i (2^j <= max < 2^(j+1)),
    or None for the empty padding groups.  raw_count is the group count
    before padding.
    """

    groups: tuple[tuple[int, ...], ...]
    layers: tuple[Optional[int], ...]
    raw_count: int

    @property
    def ell(self) -> int:
        return len(self.groups)

    def group_sizes(self) -> np.ndarray:
        return np.fromiter(map(len, self.groups), dtype=np.int64, count=self.ell)

    def group_sums(self) -> np.ndarray:
        """sigma of every group, in group order."""
        sizes = self.group_sizes()
        prefix = np.zeros(int(sizes.sum()) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(chain.from_iterable(self.groups), dtype=np.int64), out=prefix[1:])
        ends = np.cumsum(sizes)
        return prefix[ends] - prefix[ends - sizes]


def partition_groups(d_part: Sequence[int], t: int, rng: np.random.Generator) -> GroupFamily:
    """Stage one: layered random partition of the bulk multiset.

    Requires sigma(d_part) >= 3t/2 (the solver gates on this); the group
    maxima bounds rely on it.
    """
    items = sorted(d_part)
    if t < 1:
        raise ValueError("t must be >= 1")
    if 2 * sum(items) < 3 * t:
        raise ValueError("caller must ensure mass: sigma < 3t/2")
    by_layer: dict[int, list[int]] = {}
    for x in items:
        by_layer.setdefault(x.bit_length() - 1, []).append(x)

    groups: list[tuple[int, ...]] = []
    layers: list[Optional[int]] = []
    for j in sorted(by_layer):
        layer_items = by_layer[j]
        size = len(layer_items)
        cap_j = 2 * t if j == 0 else ceil_div(t, 1 << (j - 1))
        alpha_j = min(cap_j, size)
        if alpha_j == size:
            buckets = [[x] for x in layer_items]
        else:
            assignment = rng.integers(0, alpha_j, size=size)
            buckets = [[] for _ in range(alpha_j)]
            for x, b in zip(layer_items, assignment):
                buckets[int(b)].append(x)
            # rebalance: move one element from any crowded bucket into each empty one
            donors = [i for i, b in enumerate(buckets) if len(b) >= 2]
            for i, b in enumerate(buckets):
                if b:
                    continue
                while donors and len(buckets[donors[-1]]) < 2:
                    donors.pop()
                if not donors:
                    break
                b.append(buckets[donors[-1]].pop())
        for b in buckets:
            groups.append(tuple(b))
            layers.append(j)

    raw = len(groups)
    ell = next_pow2(raw)
    groups.extend(() for _ in range(ell - raw))
    layers.extend(None for _ in range(ell - raw))
    return GroupFamily(tuple(groups), tuple(layers), raw)


def verify_group_family(family: GroupFamily, d_part: Sequence[int], t: int, w: int) -> None:
    """Invariant checks for stage one (tests and checked mode)."""
    ell = family.ell
    assert ell == next_pow2(ell), "group count must be a power of two"
    merged = sorted(x for g in family.groups for x in g)
    assert merged == sorted(d_part), "groups must partition the input"
    lgw = ceil_log2(max(w, 2))
    for j in range(lgw + 1):
        cap_j = 2 * t if j == 0 else ceil_div(t, 1 << (j - 1))
        cnt = sum(1 for g in family.groups if g and (1 << j) <= max(g) < (1 << (j + 1)))
        assert cnt <= cap_j, f"layer {j} exceeds its group cap"
    for g in family.groups[: family.raw_count]:
        assert g, "pre-padding groups must be non-empty"
    total_max = sum(max(g) for g in family.groups if g)
    sigma = sum(merged)
    if 2 * sigma >= 3 * t:
        assert 2 * total_max >= 3 * t, "group maxima must carry >= 3t/2"
        # ceiling-slack form of the ~5 t log w bound
        assert total_max <= 4 * t * (lgw + 1) + 4 * max(w, 2), "group maxima too heavy"


@dataclass(frozen=True)
class ColorCodingParams:
    """Derived color-coding parameters.

    k bounds the witness elements per group (w.h.p.), g = k^2 rounded to
    a power of two is the parts-per-group count, reps the number of
    independent repetitions, and tail the budget term added to the node
    count at every level (scaled by budget_mult when diagnosing).
    """

    k: int
    g: int
    reps: int
    u_prime: int
    rho: int
    tail: int


def color_params(
    n: int, t: int, w: int, q: float, c_ap: int, budget_mult: float = 1.0
) -> ColorCodingParams:
    if not (0.0 < q < 1.0):
        raise ValueError("q must be in (0, 1)")
    k = math.ceil(6 * math.log2(2 * n / q))
    g = next_pow2(k * k)
    u_prime = max(g * w + 1, target_window(w, t))
    rho = 10 * g * ceil_log2(max(w, 1))
    reps = math.ceil(math.log(4 * n / q) / math.log(4 / 3))
    tail = math.ceil(budget_mult * 4 * c_ap * rho * u_prime * ceil_log2(u_prime))
    return ColorCodingParams(k, g, reps, u_prime, rho, tail)


@dataclass(frozen=True)
class GroupSumsets:
    """Per-group achievable-sum sets S_i (each a subset of the true
    subset sums of its group, always containing 0)."""

    sets: tuple[SumSet, ...]
    params: ColorCodingParams


@dataclass
class DenseTripSignal:
    """Budget trip during stage two.

    Nodes whose subtree holds no element are exactly {0} (size 1, zero
    weight and zero subtree sum); they are carried as trivial_nodes
    instead of being listed.  For the remaining nodes, node_sizes holds
    the exact size when the node was computed before the stop and a
    lower bound of 1 otherwise; node_f holds the exact subtree maxima
    sums (equal to each node's true maximum) and node_sigma the exact
    subtree element sums.  threshold is the tripped budget (node count
    plus the budget tail).
    """

    level: int
    observed_total_size: int
    threshold: int
    rho: int
    u_prime: int
    g: int
    num_nodes: int
    trivial_nodes: int
    trip_index: int
    repetition: int
    node_sizes: list[int]
    node_f: list[int]
    node_sigma: list[int]


def split_into_parts(
    elems: Sequence[int], g: int, rng: np.random.Generator
) -> dict[int, list[int]]:
    """Uniform random assignment of elements to g parts; only occupied
    parts are returned."""
    parts: dict[int, list[int]] = {}
    if elems:
        draws = rng.integers(0, g, size=len(elems))
        for x, p in zip(elems, draws):
            parts.setdefault(int(p), []).append(x)
    return parts


def build_group_sumsets(
    family: GroupFamily,
    t: int,
    w: int,
    n: int,
    q: float,
    c_ap: int,
    rng: np.random.Generator,
    budget_mult: float = 1.0,
) -> Union[GroupSumsets, DenseTripSignal]:
    """Stage two: color-coded per-group sumsets under a shared budget.

    Returns GroupSumsets on the sparse path.  Whenever a level's running
    total size reaches the budget, returns a DenseTripSignal instead.
    """
    params = color_params(n, t, w, q, c_ap, budget_mult)
    if params.tail > _max_level_excess(family):
        return GroupSumsets(_unbudgeted_sumsets(family, params, rng), params)
    return _budgeted_sumsets(family, params, rng)


def _max_level_excess(family: GroupFamily) -> int:
    """Upper bound on a level's total set size minus its node count.

    A node's set lies in [0, sigma(node)] and holds at most 2^k sums of
    its k elements, so its size minus one is at most
    min(sigma(node), 2^k - 1).  Both terms are subadditive over the nodes
    a group splits into at any level, so summing min(sigma(G), 2^|G| - 1)
    over the groups bounds every level of every repetition.  While the
    budget tail exceeds this bound no level can trip.
    """
    sums, sizes = family.group_sums(), family.group_sizes()
    # for |G| >= 63, 2^|G| - 1 > sigma(G) (all sums are below 2^63)
    small = sizes < 63
    sums[small] = np.minimum(sums[small], (1 << sizes[small]) - 1)
    return int(sums.sum())


def _budgeted_sumsets(
    family: GroupFamily, params: ColorCodingParams, rng: np.random.Generator
) -> Union[GroupSumsets, DenseTripSignal]:
    """Every repetition as flat levels of the occupied nodes through
    `_pair_level`, until one trips (see the module docstring)."""
    g, ell = params.g, family.ell
    sizes = family.group_sizes()
    elems = np.fromiter(chain.from_iterable(family.groups), dtype=np.int64, count=int(sizes.sum()))
    owner = np.repeat(np.arange(ell, dtype=np.int64), sizes)
    step = common_step(elems)
    roots_key, roots_val = [np.arange(ell, dtype=np.int64)], [np.zeros(ell, dtype=np.int64)]
    for rep in range(params.reps):
        keys = owner * g + rng.integers(0, g, size=elems.size)
        order = np.lexsort((elems, keys))
        part_key, part_val = keys[order], elems[order]
        # level 0: each occupied part is {0} plus its distinct elements
        node_key, part_start = np.unique(part_key, return_index=True)
        k, v = _distinct_pairs(
            np.concatenate((part_key, node_key)), np.concatenate((part_val, np.zeros_like(node_key)))
        )
        cur = Level(v, np.append(np.searchsorted(k, node_key), v.size))
        for h in range(1, ceil_log2(g) + 1):
            num_nodes = ell * (g >> h)
            budget = num_nodes + params.tail
            # child i is operand slot[i] of the level; a missing sibling is {0}
            child_key, child_sizes = node_key, cur.sizes()
            node_key, pair = np.unique(child_key >> 1, return_inverse=True)
            slot = 2 * pair + (child_key & 1)
            slot_sizes = np.ones(2 * node_key.size, dtype=np.int64)
            slot_sizes[slot] = child_sizes
            offs = _offsets(slot_sizes)
            vals = np.zeros(int(offs[-1]), dtype=np.int64)
            vals[_segment_index(offs[slot], child_sizes)] = cur.vals
            gaps = np.diff(node_key, prepend=-1) - 1
            cur, signal = _pair_level(Level(vals, offs), budget, step, gaps)
            extra = cur.vals.size - len(cur)  # sum of (size - 1) over computed nodes
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
                observed_total_size=budget if signal is None else signal.observed_total_size,
                threshold=budget,
                rho=params.rho,
                u_prime=params.u_prime,
                g=g,
                num_nodes=num_nodes,
                trivial_nodes=num_nodes - node_key.size,
                trip_index=after if on_node else budget - extra,
                repetition=rep,
                node_sizes=cur.sizes().tolist() + [1] * (node_key.size - len(cur)),
                node_f=np.add.reduceat(part_max, node_start).tolist(),
                node_sigma=np.add.reduceat(part_val, part_start[node_start]).tolist(),
            )
        roots_key.append(np.repeat(node_key, cur.sizes()))
        roots_val.append(cur.vals)
    k, v = _distinct_pairs(np.concatenate(roots_key), np.concatenate(roots_val))
    offs = np.searchsorted(k, np.arange(ell + 1)).tolist()
    flat = v.tolist()
    return GroupSumsets(tuple(SumSet(tuple(flat[offs[i] : offs[i + 1]])) for i in range(ell)), params)


def _distinct_pairs(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (key, value) pairs, sorted by key and then value."""
    order = np.lexsort((vals, keys))
    keys, vals = keys[order], vals[order]
    new = np.ones(keys.size, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (vals[1:] != vals[:-1])
    return keys[new], vals[new]


def _unbudgeted_sumsets(
    family: GroupFamily, params: ColorCodingParams, rng: np.random.Generator
) -> tuple[SumSet, ...]:
    """Per-group union of every repetition's root, without a budget.

    Draws repetitions only while some group is incomplete (see the module
    docstring).  Each repetition consumes the same draws as a budgeted one,
    so groups that never complete get the same parts and the same sets.
    """
    g = params.g
    sizes = np.array([len(grp) for grp in family.groups], dtype=np.int64)
    owner = np.repeat(np.arange(family.ell, dtype=np.int64), sizes)
    # flat element positions of the groups not yet complete, with the parts
    # they were drawn into in each repetition so far
    open_pos = np.flatnonzero(sizes[owner] >= 2)
    records: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(params.reps):
        if open_pos.size == 0:
            break
        draws = rng.integers(0, g, size=owner.size)[open_pos]
        keys = np.sort(owner[open_pos] * g + draws)
        shared = np.zeros(family.ell, dtype=bool)
        shared[keys[1:][keys[1:] == keys[:-1]] // g] = True
        still_open = shared[owner[open_pos]]
        open_pos = open_pos[still_open]
        records.append((open_pos, draws[still_open]))

    acc: dict[int, set[int]] = {}
    flat = [x for grp in family.groups for x in grp] if open_pos.size else []
    for pos, drawn in records:
        keep = np.isin(pos, open_pos)
        split: dict[int, dict[int, list[int]]] = {}
        for e, p in zip(pos[keep].tolist(), drawn[keep].tolist()):
            split.setdefault(int(owner[e]), {}).setdefault(p, []).append(flat[e])
        for i, parts in split.items():
            vals: tuple = (0,)
            for plist in parts.values():
                vals = _sum_values(vals, tuple(sorted({0, *plist})))
            acc.setdefault(i, {0}).update(vals)

    # complete groups with equal contents share one (immutable) subset-sum set
    full: dict[tuple[int, ...], SumSet] = {}
    sets = []
    for i, grp in enumerate(family.groups):
        if i in acc:
            sets.append(SumSet(tuple(sorted(acc[i]))))
            continue
        if grp not in full:
            sums = {0}
            for x in grp:
                sums |= {v + x for v in sums}
            full[grp] = SumSet(tuple(sorted(sums)))
        sets.append(full[grp])
    return tuple(sets)
