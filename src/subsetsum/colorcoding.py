"""Randomized grouping stages that keep hidden witness mass spread thin.

Stage one (`partition_groups`) splits the bulk multiset into dyadic
value layers [2^j, 2^(j+1)) and randomly partitions each layer into at
most ceil(t / 2^(j-1)) non-empty groups (rebalancing moves elements
into any empty group).  The group list is padded with empty groups to a
power-of-two length.  A layer with no more items than its cap is not
drawn: each item is a group of its own.  A drawn layer's bucket ids are
drawn at once, and the empty buckets are filled at once, in ascending
order, with the last elements of the buckets that hold two or more
(from the highest-index bucket down, each keeping one).  Whether a group
completes in stage two depends only on which elements share it, not on
their values, so stage one computes only the group sizes, from the
buckets' counts (a filled bucket holds one element, a donor what it
kept), and builds no item-sized array but the drawn bucket ids.  The
family places the elements (`_place`: one `Flat` over the sorted items,
each drawn layer in bucket order by one stable sort) only when a stage
reads its groups; an unchecked solve whose groups all complete and
whose merge collapses never does, unless stage two's gate needs the
level-excess scan (below), which reads every group's sum.  Stage one
reads the bulk as a multiset (distinct values and counts; the solver
passes the dense part so).

Consequences: any subset with sum <= t meets each group in few elements
with high probability, and the group maxima carry a constant fraction of
t in total without exceeding ~t log w.

Stage two (`build_group_sumsets`) runs color coding over every group
simultaneously: each group is split uniformly into g random parts, 0 is
adjoined to each part, and parts are merged pairwise level by level.
All groups' levels share one running size budget, checked in global
node order exactly as if every part (including the all-{0} padding)
were materialized and summed left to right.  Reaching the budget stops
everything and yields a dense trip signal whose bookkeeping (per-node
sizes, subtree maxima, subtree sums) suffices to build checkable dense
evidence.  Otherwise the per-group roots, unioned over all repetitions,
form the group sumsets: one `Flat` whose node i holds group i's values,
which the merge permutes with one gather.

The budgeted path never materializes the ell * g virtual forest.  A node
whose subtree holds no element is exactly {0}, a sumset identity of size
one, so it counts one toward the running total and is never computed.
Each repetition's parts become sorted keys group * g + part, and key >> h
is a node's global index at level h.  One stable sort of the keys puts
the elements in part order, each part ascending because each group is
(stage one builds them so; a family that is not is sorted within its
groups once).  A level holds only the occupied nodes, as one `Level` of
runs in units of the elements' common step.  Level 0 ({0} plus each
part's distinct elements) starts as node sizes counted from the sorted
parts; it is split into runs only at the first level that sums a pair,
or to read the roots of a repetition that does not trip, since a level
with no pairs leaves every node as it is.  Only each repetition's roots
are expanded to values.  A node whose sibling is
empty is {0} + X = X, so a node with one occupied child is that child's
runs, unchanged and never summed; only the nodes with two occupied
children go to the level kernel `_pair_level`, and a level that has none
calls no kernel.  Nearly all of the g parts are empty, so at pipeline
size the tripping level usually has none, and such a trip builds no runs
at all.  The kernel sums the pairs under the
level's budget, counting as each pair's gap the known size before it:
one for each virtual node, a child's size for each one-child node.  The
stop is found on the one left-to-right running total of the level's
sizes, so it is the one the materialized computation makes, and a
tripping level computes at most LEVEL_CHUNK_VALUES values plus one
pair past its stop.

The budget can never trip when its tail exceeds the sum over groups of
min(sigma(G), 2^|G| - 1), a bound on any level's size excess over its
node count (see `_max_level_excess`); only then is the budgeted path
skipped.  That sum is at most sigma(D), so a tail above sigma(D) (from
the family's multiset) skips it without the scan: at the paper's constants
the tail exceeds sigma(D) more than 6e8 times over on every
`sparse-ladder` and `grouped` solve (workload seeds 1 and 2).  Each
non-empty group adds at least one to the bound, so a tail at most their
count takes the budgeted path without computing it; any other tail is
decided by the scan.  Without a budget, a group is complete once one
repetition puts each of its elements into a part of its own.  A
repetition's root picks at most one element per part, so it is always a
subset of the group's subset sums, and it equals them when no part holds
two elements; later repetitions cannot add to a complete group.
Singletons and empty groups are complete without any draw, so a family
whose largest group (recorded by stage one) has one element returns at
once, before any item-sized array is built.  Repetitions are drawn only
until every group is complete.  If every group completes, the sets are
every group's full subset sums and stage two builds none of them: it
returns `GroupSumsets.complete`, whose sets are built on their first read
(checked mode, a merge that does not collapse, tests and tracing read
them; a collapsing merge needs only the family's multiset), each
distinct group content's once.
Otherwise the groups that never complete form a sub-family that goes through the
same level loop on each repetition's recorded draws of its elements;
the sub-family's excess is at most the family's, so no level can trip.
A group's roots depend only on its own elements' parts, so the sets are
bit-identical to merging every repetition of the whole family.  Every
other group's full subset sums are {0} for an empty group, {0, x} for a
singleton, and for a larger group the roots of one more pass of that
loop, with the group's k-th element in part k.

`GroupSumsets.exact` says whether every group completed, so that every
set is its group's full subset sums (a group that never completes lacks
at least its own sum).  The unbudgeted path knows this from its draws;
the budgeted path marks a group complete in any repetition that puts its
elements into parts of their own.  The merge collapses to one DP over
the family's multiset only when the flag is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import InternalConsistencyError, array_fields_eq, ceil_div, ceil_log2, next_pow2, target_window
from .sumset import Flat, Level, _offsets, _pair_level, _segment_index
# imported only as the phase-2 kernel boundary that perfbench's tracer wraps
from .sumset import _sum_values  # noqa: F401


class _Layer(NamedTuple):
    """A drawn layer of stage one: its groups start at group first and
    its elements at element lo of the sorted items; bucket holds each
    element's drawn bucket and counts the elements each bucket drew,
    before any was moved."""

    first: int
    lo: int
    bucket: np.ndarray
    counts: np.ndarray


class GroupFamily:
    """Groups from stage one, padded to a power-of-two count.

    Node i of groups holds group i's elements (a multiset, so values may
    repeat), in ascending order as `partition_groups` builds them.  Stage
    two's results do not depend on that order, but its speed does: it
    finds each repetition's parts with one stable sort when every group is
    ascending, and sorts within groups first when one is not.  The padding
    groups after the first raw_count are empty.

    largest is the size of the largest group.  `partition_groups` records
    it from its per-layer counts; left out, it is computed from the
    groups' sizes.  Stage two reads it to skip its draws, and every
    item-sized array, when no group holds two elements.

    multiset is every element of the family, as sorted distinct values
    and their int64 counts: `partition_groups` passes the one it was
    given, and otherwise it is counted from the groups on first read.
    The merge's collapse and stage two's sigma(D) read it instead of the
    groups.

    Stage one passes no groups: it passes the multiset, the groups'
    offsets offs and its drawn layers, and the elements are placed into
    their groups (`_place`) only when groups is first read (the budgeted
    path, groups that never complete, checked mode, a merge that does
    not collapse, tests and tracing read them).  offs None stands for
    one element per group in ascending order, as when no layer is drawn,
    and is built on its first read.  sizes(), element_count, ell, largest,
    multiset and sigma never place the elements; group_sums does.  Families compare equal
    when their groups, raw_count and largest are.
    """

    def __init__(
        self,
        groups: Optional[Flat],
        raw_count: int,
        largest: Optional[int] = None,
        multiset: Optional[tuple[np.ndarray, np.ndarray]] = None,
        offs: Optional[np.ndarray] = None,
        layers: Sequence[_Layer] = (),
    ) -> None:
        self._groups = groups
        self._multiset = multiset
        self._offs = offs if groups is None else groups.offs
        self._layers = layers
        self.raw_count = raw_count
        if largest is None:
            sizes = self.sizes()
            largest = int(sizes.max()) if sizes.size else 0
        self.largest = largest

    @property
    def groups(self) -> Flat:
        if self._groups is None:
            self._groups = _place(self._multiset, self.offs, self._layers)
            self._layers = ()
        return self._groups

    @property
    def offs(self) -> np.ndarray:
        """The groups' offsets: group i holds elements offs[i] to offs[i + 1] - 1."""
        if self._offs is None:
            n = self.element_count
            self._offs = np.full(next_pow2(n) + 1, n, dtype=np.int64)
            self._offs[:n] = np.arange(n)
        return self._offs

    def sizes(self) -> np.ndarray:
        return np.diff(self.offs)

    @property
    def element_count(self) -> int:
        return int(self._multiset[1].sum()) if self._groups is None else self._groups.vals.size

    @property
    def multiset(self) -> tuple[np.ndarray, np.ndarray]:
        if self._multiset is None:
            values, counts = np.unique(self.groups.vals, return_counts=True)
            self._multiset = values, counts.astype(np.int64, copy=False)
        return self._multiset

    @property
    def ell(self) -> int:
        return next_pow2(self.raw_count) if self._offs is None else len(self._offs) - 1

    @cached_property
    def sigma(self) -> int:
        """sigma(D), the sum of every element."""
        values, counts = self.multiset
        return int(values @ counts)

    @cached_property
    def group_sums(self) -> np.ndarray:
        """sigma of every group, in group order (computed once, read-only)."""
        sums = np.diff(np.append(0, np.cumsum(self.groups.vals))[self.groups.offs])
        sums.flags.writeable = False
        return sums

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupFamily):
            return NotImplemented
        same = (self.raw_count, self.largest) == (other.raw_count, other.largest)
        return same and self.groups == other.groups


def partition_groups(
    multiset: tuple[Sequence[int], Sequence[int]], t: int, rng: np.random.Generator
) -> GroupFamily:
    """Stage one: layered random partition of the bulk multiset.

    The multiset is (values, counts): strictly increasing values and their
    counts, each at least 1, in the form of `Instance.multiset` (the
    solver passes the dense part's `InstancePartition.dense_multiset`);
    any other pair of arrays raises ValueError.  The family carries it.
    Requires a sum of at least 3t/2 (the solver gates on this); the group
    maxima bounds rely on it.  The layers' sizes and sigma come from the
    counts.  A drawn layer's group sizes come from its buckets' counts
    alone, so stage one builds no item-sized array but the drawn bucket
    ids; the family places the items when its groups are first read
    (`_place`), in arrays that never share memory with the caller's.
    """
    multiset = values, counts = tuple(np.asarray(a, dtype=np.int64) for a in multiset)
    if t < 1:
        raise ValueError("t must be >= 1")
    if values.shape != counts.shape or (values[1:] <= values[:-1]).any() or (counts < 1).any():
        raise ValueError("a multiset needs strictly increasing values, each with a count of at least 1")
    if 2 * int(values @ counts) < 3 * t:
        raise ValueError("caller must ensure mass: sigma < 3t/2")
    top = int(values[-1]).bit_length()
    # layer j holds the items in [2^j, 2^(j+1)): items[bounds[j]:bounds[j + 1]]
    at = np.searchsorted(values, [1 << j for j in range(1, top)])
    bounds = _offsets(counts)[[0, *at.tolist(), values.size]].tolist()
    # a layer's groups: its cap, or one per item when it holds fewer
    caps = [min(2 * t if j == 0 else ceil_div(t, 1 << (j - 1)), bounds[j + 1] - bounds[j]) for j in range(top)]
    raw = sum(caps)
    if raw == bounds[-1]:
        # no layer is drawn: every item is a group of its own
        return GroupFamily(None, raw, 1, multiset)
    sizes = np.ones(raw, dtype=np.int64)
    layers, largest, first = [], 1, 0
    for j in range(top):
        lo, size, alpha_j = bounds[j], bounds[j + 1] - bounds[j], caps[j]
        if alpha_j < size:
            bucket = rng.integers(0, alpha_j, size=size)
            drawn = np.bincount(bucket, minlength=alpha_j)
            layer_sizes = sizes[first : first + alpha_j]
            layer_sizes[:] = drawn
            empty, donors, give = _moves(drawn)
            layer_sizes[donors] -= give
            layer_sizes[empty] = 1
            largest = max(largest, int(layer_sizes.max()))
            layers.append(_Layer(first, lo, bucket, drawn))
        first += alpha_j
    # group k holds elements offs[k] to offs[k + 1] - 1; the padding groups are empty
    offs = np.full(next_pow2(raw) + 1, bounds[-1], dtype=np.int64)
    offs[0] = 0
    np.cumsum(sizes, out=offs[1 : raw + 1])
    return GroupFamily(None, raw, largest, multiset, offs, layers)


def _moves(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebalancing of a drawn layer whose buckets drew counts elements:
    the empty buckets, ascending, each take one element from the buckets
    that hold at least two, from the highest-index bucket down, each of
    them keeping one.  Returns the empty buckets, those donors and how
    many elements each gives (the last donor may give fewer than it
    could).  A drawn layer holds more elements than buckets, so the
    donors always fill every empty bucket."""
    empty = np.flatnonzero(counts == 0)
    if not empty.size:
        return empty, empty, empty
    donors = np.flatnonzero(counts >= 2)[::-1]
    spare = np.cumsum(counts[donors] - 1)
    k = int(np.searchsorted(spare, empty.size)) + 1
    give = counts[donors[:k]] - 1
    give[-1] -= spare[k - 1] - empty.size
    return empty, donors[:k], give


def _place(multiset: tuple[np.ndarray, np.ndarray], offs: np.ndarray, layers: Sequence[_Layer]) -> Flat:
    """The groups of a `partition_groups` family: the sorted items, each
    drawn layer's items in bucket order.

    A layer's elements go into their drawn buckets by one argsort of the
    distinct keys bucket * size + index, the stable order of the buckets,
    so each bucket is ascending.  Rebalancing (`_moves`) takes the last elements of
    the donors, each into an empty bucket, where it is alone: every other
    element keeps its rank in its bucket, so the kept elements fill the
    layer's non-empty groups in sort order, and each moved one goes to
    its empty group's offset."""
    vals = np.repeat(*multiset)
    for first, lo, bucket, counts in layers:
        size = bucket.size
        order = np.argsort(bucket * size + np.arange(size))
        empty, donors, give = _moves(counts)
        if empty.size:
            # the donors' last elements in sort order, the highest bucket's
            # first, go to the empty buckets in ascending order
            moved = -_segment_index(1 - _offsets(counts)[donors + 1], give)
            slots = offs[first + empty] - lo
            kept = np.ones(size, dtype=bool)
            kept[moved] = False
            free = np.ones(size, dtype=bool)
            free[slots] = False
            placed = np.empty_like(order)
            placed[free] = order[kept]
            placed[slots] = order[moved]
            order = placed
        vals[lo : lo + size] = vals[lo : lo + size][order]
    vals.flags.writeable = False
    return Flat(vals, offs)


def verify_group_family(family: GroupFamily, d_part: Sequence[int], t: int, w: int) -> None:
    """Invariant checks for stage one (tests and checked mode)."""
    ell = family.ell
    assert ell == next_pow2(ell), "group count must be a power of two"
    merged = sorted(family.groups.vals.tolist())
    assert merged == sorted(d_part), "groups must partition the input"
    sizes = family.groups.sizes()
    maxima = family.groups.vals[family.groups.offs[1:][sizes > 0] - 1].tolist()
    lgw = ceil_log2(max(w, 2))
    for j in range(lgw + 1):
        cap_j = 2 * t if j == 0 else ceil_div(t, 1 << (j - 1))
        cnt = sum(1 for m in maxima if (1 << j) <= m < (1 << (j + 1)))
        assert cnt <= cap_j, f"layer {j} exceeds its group cap"
    assert np.all(sizes[: family.raw_count] > 0), "pre-padding groups must be non-empty"
    total_max = sum(maxima)
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
    count at every level (`_budget_tail`: the paper's constant c_ap is 1,
    and budget_mult is the one scale).
    """

    k: int
    g: int
    reps: int
    u_prime: int
    rho: int
    tail: int


def color_params(n: int, t: int, w: int, q: float, budget_mult: float = 1.0) -> ColorCodingParams:
    if not (0.0 < q < 1.0):
        raise ValueError("q must be in (0, 1)")
    try:
        k = math.ceil(6 * math.log2(2 * n / q))
        reps = math.ceil(math.log(4 * n / q) / math.log(4 / 3))
    except OverflowError:
        raise ValueError(f"q = {q} is too small: k or reps overflows a float") from None
    g = next_pow2(k * k)
    u_prime = max(g * w + 1, target_window(w, t))
    rho = 10 * g * ceil_log2(max(w, 1))
    return ColorCodingParams(k, g, reps, u_prime, rho, _budget_tail(rho, u_prime, budget_mult))


def _budget_tail(rho: int, u_prime: int, budget_mult: float) -> int:
    """The budget tail ceil(budget_mult * 4 * c_ap * rho * u' * ceil(log2 u'))
    of stage two and the merge, with the paper's non-constructive
    arithmetic-progression constant c_ap taken as 1: budget_mult is the
    one scale of the dense-trip threshold."""
    try:
        return math.ceil(budget_mult * 4 * rho * u_prime * ceil_log2(u_prime))
    except OverflowError:
        raise ValueError(
            f"the budget tail overflows a float at budget_mult = {budget_mult} and"
            f" u' < 2**{u_prime.bit_length()}: lower budget_mult or eta_mult"
        ) from None


class GroupSumsets:
    """Per-group achievable-sum sets: node i of sets holds S_i, a subset
    of the true subset sums of group i that always contains 0.

    exact is True only when every S_i equals group i's full subset sums
    (the merge may then compute its root from the items); False is always
    safe.

    `complete(family, params)` stands for every group's full subset sums
    without computing them: sets is built from the family on its first
    read (`_group_sets`) and kept.  GroupSumsets compare equal when their
    sets, params and exact are.
    """

    __slots__ = ("_sets", "_family", "params", "exact")

    def __init__(self, sets: Flat, params: ColorCodingParams, exact: bool = False) -> None:
        self._sets: Optional[Flat] = sets
        self._family: Optional[GroupFamily] = None
        self.params = params
        self.exact = exact

    @classmethod
    def complete(cls, family: GroupFamily, params: ColorCodingParams) -> "GroupSumsets":
        out = cls(None, params, True)
        out._family = family
        return out

    @property
    def sets(self) -> Flat:
        if self._sets is None:
            # every group completed: no group is open
            none = np.zeros(0, dtype=np.int64)
            self._sets = _group_sets(self._family, self.params, none, Flat.of(()))
            self._family = None
        return self._sets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupSumsets):
            return NotImplemented
        return (self.params, self.exact) == (other.params, other.exact) and self.sets == other.sets


@dataclass(eq=False)
class DenseTripSignal:
    """Budget trip during stage two.

    Nodes whose subtree holds no element are exactly {0} (size 1, zero
    weight and zero subtree sum); they are carried as trivial_nodes
    instead of being listed.  For the remaining nodes, node_sizes holds
    the exact size when the node was computed before the stop and a
    lower bound of 1 otherwise; node_f holds the exact subtree maxima
    sums (equal to each node's true maximum) and node_sigma the exact
    subtree element sums, each an int64 array in node order.  threshold
    is the tripped budget (node count plus the budget tail).  Signals
    compare equal field by field, the arrays by their values.
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
    node_sizes: np.ndarray
    node_f: np.ndarray
    node_sigma: np.ndarray

    __eq__ = array_fields_eq


def build_group_sumsets(
    family: GroupFamily,
    t: int,
    w: int,
    n: int,
    q: float,
    rng: np.random.Generator,
    budget_mult: float = 1.0,
) -> Union[GroupSumsets, DenseTripSignal]:
    """Stage two: color-coded per-group sumsets under a shared budget.

    Returns GroupSumsets on the sparse path.  Whenever a level's running
    total size reaches the budget, returns a DenseTripSignal instead.
    """
    params = color_params(n, t, w, q, budget_mult)
    # sigma(D) bounds the excess, so a tail above it needs no scan; each
    # non-empty group adds at least one to the excess, so a tail up to
    # their count needs none either: the budgeted path is certain
    if params.tail > family.sigma or (
        params.tail > np.count_nonzero(family.sizes()) and params.tail > _max_level_excess(family)
    ):
        return _unbudgeted_sumsets(family, params, rng)
    draws = (rng.integers(0, params.g, size=family.element_count) for _ in range(params.reps))
    return _budgeted_sumsets(family.groups, params, draws)


def _max_level_excess(family: GroupFamily) -> int:
    """Upper bound on a level's total set size minus its node count.

    A node's set lies in [0, sigma(node)] and holds at most 2^k sums of
    its k elements, so its size minus one is at most
    min(sigma(node), 2^k - 1).  Both terms are subadditive over the nodes
    a group splits into at any level, so summing min(sigma(G), 2^|G| - 1)
    over the groups bounds every level of every repetition.  While the
    budget tail exceeds this bound no level can trip.  It is attained by
    the full subset sums of singletons and empty groups.
    """
    sums, sizes = family.group_sums, family.sizes()
    # for |G| >= 63, 2^|G| - 1 > sigma(G) (all sums are below 2^63)
    return int(np.where(sizes < 63, np.minimum(sums, (1 << np.minimum(sizes, 62)) - 1), sums).sum())


def _budgeted_sumsets(
    groups: Flat, params: ColorCodingParams, draws: Iterable[np.ndarray]
) -> Union[GroupSumsets, DenseTripSignal]:
    """Every repetition as flat levels of the occupied nodes, summing only
    nodes with two occupied children, until one trips (see the module
    docstring).  draws holds each repetition's parts of the elements of
    groups, in element order.

    One stable sort by part keeps each part ascending when every group
    is, as `partition_groups` builds them; a family with a group that is
    not has its elements, and every repetition's draws, sorted within
    their groups once, so the parts are the same either way."""
    g, ell = params.g, len(groups)
    elems = groups.vals
    owner = np.repeat(np.arange(ell, dtype=np.int64), groups.sizes())
    within = None
    if np.any((elems[1:] < elems[:-1]) & (owner[1:] == owner[:-1])):
        within = np.lexsort((elems, owner))
        elems = elems[within]
    roots_key, roots_val = [np.arange(ell, dtype=np.int64)], [np.zeros(ell, dtype=np.int64)]
    complete = np.zeros(ell, dtype=bool)
    for rep, drawn in enumerate(draws):
        keys = owner * g + (drawn if within is None else drawn[within])
        order = np.argsort(keys, kind="stable")
        part_key, part_val = keys[order], elems[order]
        shared = np.zeros(ell, dtype=bool)
        shared[part_key[1:][part_key[1:] == part_key[:-1]] // g] = True
        complete |= ~shared
        part_first = np.diff(part_key, prepend=-1) != 0
        part_start = np.flatnonzero(part_first)
        node_key = part_key[part_start]
        sizes, distinct = _part_sizes(part_val, part_first, part_start)
        # level 0's runs, built only when a level first sums a pair or the
        # roots are read: until then every node is its part
        cur = None
        for h in range(1, ceil_log2(g) + 1):
            num_nodes = ell * (g >> h)
            budget = num_nodes + params.tail
            # left[k] and left[k] + 1 are the children of a two-child node;
            # every other node is its one child, unchanged
            left = np.flatnonzero((node_key[1:] >> 1) == (node_key[:-1] >> 1))
            if left.size:
                if cur is None:
                    cur = _part_level(part_val[distinct], part_first[distinct])
                kept = np.ones(node_key.size, dtype=bool)
                kept[left + 1] = False
                node_key = node_key[kept] >> 1
                sizes = sizes[kept]
                paired = left - np.arange(left.size)  # the two-child nodes
                # known size before each pair: virtual {0} nodes count one
                # each, one-child nodes their child's size
                known = np.diff(node_key, prepend=-1) - 1 + sizes
                known[paired] -= sizes[paired]
                gaps = np.diff(np.cumsum(known)[paired], prepend=0)
                out, _ = _pair_level(cur.take((left[:, None] + np.arange(2)).ravel()), budget, gaps)
                # pairs after a stop are not computed, and their sizes are
                # never read
                sizes[paired[: len(out)]] = out.sizes()
            else:
                node_key = node_key >> 1
            if num_nodes + int(sizes.sum()) - sizes.size < budget:
                if left.size:
                    # node i is its one child or, if it has two, their sum
                    source = np.flatnonzero(kept)
                    source[paired] = len(cur) + np.arange(left.size)
                    cur = cur.concat(out).take(source)
                continue
            # the running total after node i is its global index + 1 +
            # extra[i]; the stop is on the first node where that reaches the
            # budget, unless it was reached in the {0} gap before it (or in
            # the trailing gap after the last node)
            extra = np.cumsum(sizes - 1)
            after = node_key + 1 + extra
            i = int(np.searchsorted(after, budget))
            if i < len(after) and after[i] - sizes[i] < budget:
                observed, trip_index, computed = int(after[i]), int(node_key[i]) + 1, i + 1
            else:
                observed, trip_index, computed = budget, budget - (int(extra[i - 1]) if i else 0), i
            # the first part of each node, and each part's largest element
            node_start = np.flatnonzero(np.diff(part_key[part_start] >> h, prepend=-1))
            part_max = part_val[np.append(part_start[1:], part_key.size) - 1]
            return DenseTripSignal(
                level=h,
                observed_total_size=observed,
                threshold=budget,
                rho=params.rho,
                u_prime=params.u_prime,
                g=g,
                num_nodes=num_nodes,
                trivial_nodes=num_nodes - node_key.size,
                trip_index=trip_index,
                repetition=rep,
                node_sizes=np.append(sizes[:computed], np.ones(sizes.size - computed, dtype=np.int64)),
                node_f=np.add.reduceat(part_max, node_start),
                node_sigma=np.add.reduceat(part_val, part_start[node_start]),
            )
        if cur is None:
            cur = _part_level(part_val[distinct], part_first[distinct])
        roots_key.append(np.repeat(node_key, sizes))
        roots_val.append(cur.values())
    sets = _distinct_level(np.concatenate(roots_key), np.concatenate(roots_val), np.arange(ell))
    return GroupSumsets(sets, params, bool(complete.all()))


def _part_sizes(
    part_val: np.ndarray, part_first: np.ndarray, part_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Level 0's node sizes, from counts: node k is {0} plus the distinct
    elements of the k-th occupied part, so its size is one more than their
    count.  part_val holds the parts' elements back to back, each part
    ascending; part_first marks, and part_start indexes, each part's first
    element.  Also returns the mask of each part's distinct elements."""
    distinct = part_first.copy()
    distinct[1:] |= part_val[1:] != part_val[:-1]
    # counted as int64: a bool result would OR the marks
    return np.add.reduceat(distinct, part_start, dtype=np.int64) + 1, distinct


def _part_level(vals: np.ndarray, first: np.ndarray) -> Level:
    """Level 0 of a repetition as runs of the elements' common step: node k
    is {0} plus the k-th occupied part's distinct elements.  vals holds
    them back to back, each part ascending, and first marks each part's
    first element."""
    starts = np.flatnonzero(first)
    # a part's 0 goes before its values, so part k's values move k + 1 places
    out = np.zeros(vals.size + starts.size, dtype=np.int64)
    out[np.arange(vals.size) + np.cumsum(first)] = vals
    return Level.from_values(out, np.append(starts + np.arange(starts.size), out.size))


def _distinct_level(keys: np.ndarray, vals: np.ndarray, nodes: np.ndarray) -> Flat:
    """The Flat whose node i holds the distinct values paired with key
    nodes[i], in ascending order; nodes is sorted and holds every key."""
    order = np.lexsort((vals, keys))
    keys, vals = keys[order], vals[order]
    new = np.ones(keys.size, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (vals[1:] != vals[:-1])
    return Flat(vals[new], np.append(np.searchsorted(keys[new], nodes), np.count_nonzero(new)))


def _unbudgeted_sumsets(
    family: GroupFamily, params: ColorCodingParams, rng: np.random.Generator
) -> GroupSumsets:
    """Per-group union of every repetition's root, under a budget that no
    level can reach.

    Draws repetitions only while some group is incomplete (see the module
    docstring).  Each repetition consumes the same draws as a budgeted one,
    so groups that never complete get the same parts and the same sets:
    their sub-family runs `_budgeted_sumsets` on their recorded draws.
    When every group completes, every set is its group's full subset sums,
    and none is built here (`GroupSumsets.complete`).
    """
    if family.largest < 2:
        # singletons and empty groups are complete without any draw
        return GroupSumsets.complete(family, params)
    g, ell = params.g, family.ell
    sizes = family.sizes()
    owner = np.repeat(np.arange(ell, dtype=np.int64), sizes)
    # flat element positions of the groups not yet complete, with the parts
    # they were drawn into in each repetition so far
    open_pos = np.flatnonzero(sizes[owner] >= 2)
    records: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(params.reps):
        if open_pos.size == 0:
            break
        draws = rng.integers(0, g, size=owner.size)[open_pos]
        keys = np.sort(owner[open_pos] * g + draws)
        shared = np.zeros(ell, dtype=bool)
        shared[keys[1:][keys[1:] == keys[:-1]] // g] = True
        still_open = shared[owner[open_pos]]
        open_pos = open_pos[still_open]
        records.append((open_pos, draws[still_open]))
    if open_pos.size == 0:
        return GroupSumsets.complete(family, params)
    open_groups = np.unique(owner[open_pos])
    draws = (drawn[np.isin(pos, open_pos)] for pos, drawn in records)
    open_sets = _untripped_sets(family.groups.take(open_groups), params, draws)
    return GroupSumsets(_group_sets(family, params, open_groups, open_sets), params)


def _untripped_sets(groups: Flat, params: ColorCodingParams, draws: Iterable[np.ndarray]) -> Flat:
    """The sets of `_budgeted_sumsets` for groups whose `_max_level_excess`
    is below params.tail, where no level can trip."""
    out = _budgeted_sumsets(groups, params, draws)
    if isinstance(out, DenseTripSignal):
        raise InternalConsistencyError("stage two tripped a budget above every level's excess")
    return out.sets


def _group_sets(
    family: GroupFamily, params: ColorCodingParams, open_groups: np.ndarray, open_sets: Flat
) -> Flat:
    """The Flat whose node open_groups[k] holds open_sets' node k, for the
    groups that never complete (ascending), and every other group's full
    subset sums: {0} for an empty group, {0, x} for a singleton, and for a
    larger group the roots of one repetition that puts its k-th element
    into part k (a complete group holds at most g), computed once for each
    distinct content (`_distinct_contents`)."""
    groups = family.groups
    sizes = groups.sizes()
    multi = np.setdiff1d(np.flatnonzero(sizes >= 2), open_groups)
    which, distinct = _distinct_contents(groups, multi)
    firsts = groups.take(distinct)
    rank = np.arange(firsts.vals.size) - np.repeat(firsts.offs[:-1], firsts.sizes())
    full = _untripped_sets(firsts, params, [rank]).take(which)
    # a smaller group's set is 0, then its element if it has one
    set_sizes = sizes + 1
    set_sizes[multi], set_sizes[open_groups] = full.sizes(), open_sets.sizes()
    offs = _offsets(set_sizes)
    vals = np.zeros(offs[-1], dtype=np.int64)
    single = np.flatnonzero(sizes == 1)
    vals[offs[single] + 1] = groups.vals[groups.offs[single]]
    for nodes, sets in ((multi, full), (open_groups, open_sets)):
        vals[_segment_index(offs[nodes], sets.sizes())] = sets.vals
    return Flat(vals, offs)


def _distinct_contents(groups: Flat, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of the given nodes of groups, the index of its content (a
    sequence of values) among the distinct contents, and the first of the
    nodes to hold each distinct content.  Nodes of one size are compared
    as the rows of one matrix."""
    sizes = np.diff(groups.offs)[nodes]
    which = np.empty(nodes.size, dtype=np.int64)
    distinct = [nodes[:0]]
    found = 0
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        rows = groups.vals[groups.offs[nodes[at], None] + np.arange(size)]
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        which[at] = found + inverse
        distinct.append(nodes[at[first]])
        found += first.size
    return which, np.concatenate(distinct)
