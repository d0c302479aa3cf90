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
form the group sumsets: one `Level` whose node i holds group i's set as
runs of the family's common step, which the merge permutes with one
`take` and sums as its leaf level.

The budgeted path never materializes the ell * g virtual forest.  A node
whose subtree holds no element is exactly {0}, a sumset identity of size
one, so it counts one toward the running total and is never computed.
Each repetition's parts become sorted keys group * g + part, and key >> h
is a node's global index at level h.  One stable sort of the keys puts
the elements in part order, each part ascending because each group is
(stage one builds them so, and a family refuses groups that are not).
A level holds only the occupied nodes, as one `Level` of runs in units
of a step that divides every element, taken once per call (for the
family, `GroupFamily.step`, the common step of its distinct values).
Level 0 ({0} plus each part's distinct elements) starts as node sizes
counted from the sorted parts (a part's length plus one, less its rare
repeated values); it is split into runs only at the first level that
sums a pair, or to read the roots of a repetition that does not trip,
since a level with no pairs leaves every node as it is.  Each finished
repetition's roots stay runs; after the last repetition one union of
runs (`sumset._node_union`, which the run kernel also uses) joins them
with each group's {0} into the sets, so no root is expanded to values.
A node whose sibling is empty is {0} + X = X, so a node with one occupied
child is that child's runs, unchanged and never summed; only the nodes
with two occupied children go to the level kernel `_pair_level`, and a
level that has none calls no kernel.  Nearly all of the g parts are
empty, so at pipeline size the tripping level usually has none, and such
a trip builds no runs at all.  The kernel sums the pairs under the
level's budget, counting as each pair's gap the known size before it:
one for each virtual node, a child's size for each one-child node, so a
tripping level computes at most LEVEL_CHUNK_VALUES values plus one pair
past its stop.

The stop is the one the materialized computation makes: the first point
where the left-to-right running total of the level's sizes reaches the
budget.  The level's total is already summed for the budget check, and
the running total after the last occupied node is that node's global
index + 1 plus the level's excess; when this is still below the budget,
the stop lies in the trailing {0} gap, every node is computed, and
nothing is searched.  Only otherwise is the running total built and
searched for the node the stop lies on, or the {0} gap before it.  A
node's weight (its parts' maxima) and subtree sum are its element when
it holds one, as at a level-1 trip nearly always, and otherwise are read
from running sums at each node's last part.  A repetition that trips
builds no roots and no completeness marks; only the repetitions that
finish do.

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
them; a collapsing merge needs only the family's multiset).
Otherwise the groups that never complete form a sub-family that goes
through the same level loop on each repetition's recorded draws of its
elements.  A group's roots depend only on its own elements' parts, so
the sets are bit-identical to merging every repetition of the whole
family.  Every other group's full subset sums are the roots of one rank
pass of that loop, which puts a group's k-th element into part k, over
the distinct contents of those groups (`_distinct_contents`, one key per
group): empty, one-element and larger groups alike, since the pass
gives an element-less group the {0} of its final run union, a singleton
{0, x} and a larger group every subset sum.  Each such sub-family's
excess is at most the family's, so no level can trip, and it runs in
its own elements' common step, a multiple of the family's (groups of
one layer often share one: on dense w=2 the open groups hold only 2s,
whose sets are intervals of step 2 and would be single values at step
1).  Its sets are then held in the family's step (`Level.with_step`:
past a factor of one each value is a run of its own, the form those
values take in the family's step); the open groups' sets join the rank
pass's by one `concat` and `take`.

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
from .sumset import Flat, Level, _node_union, _offsets, _pair_level, _segment_index, common_step
# imported only as the phase-2 kernel boundary that perfbench's tracer wraps
from .sumset import _sum_values  # noqa: F401


class _Layer(NamedTuple):
    """A drawn layer of stage one: its groups start at group first and
    its elements at element lo of the sorted items; bucket holds each
    element's drawn bucket and counts the elements each bucket drew,
    before any was moved.  empty, donors and give are its rebalancing
    (`_moves`)."""

    first: int
    lo: int
    bucket: np.ndarray
    counts: np.ndarray
    empty: np.ndarray
    donors: np.ndarray
    give: np.ndarray


class GroupFamily:
    """Groups from stage one, padded to a power-of-two count.

    Node i of groups holds group i's elements (a multiset, so values may
    repeat), in ascending order: stage two finds each repetition's parts
    with one stable sort, which keeps each part ascending only because
    every group is.  The padding groups after the first raw_count are
    empty.

    largest is the size of the largest group.  `partition_groups` records
    it from its per-layer counts; left out, it is computed from the
    groups' sizes.  Stage two reads it to skip its draws, and every
    item-sized array, when no group holds two elements.

    multiset is every element of the family, as sorted distinct values
    and their int64 counts.  The merge's collapse and stage two's sigma(D)
    read it instead of the groups, and so does step, the gcd of the
    elements: the one unit of stage two's levels and sets and of the
    merge, computed once per family.

    A family is built in one of two forms.  Given explicit groups (as the
    tests build families), it raises ValueError unless every group
    ascends, and counts its multiset from the groups at once.  Stage one
    passes no groups: it passes the multiset it was given, the
    groups' offsets offs and its drawn layers, and the elements are
    placed into their groups (`_place`) only when groups is first read
    (the budgeted path, groups that never complete, checked mode, a merge
    that does not collapse, tests and tracing read them).  offs None
    stands for one element per group in ascending order, as when no layer
    is drawn, and is built on its first read.  sizes(), element_count,
    ell, largest, multiset, sigma and step never place the elements;
    group_sums does.  Families compare equal when their groups,
    raw_count and largest are.
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
        if groups is not None:
            # a descent is allowed only where a group starts
            if not np.isin(np.flatnonzero(groups.vals[1:] < groups.vals[:-1]) + 1, groups.offs).all():
                raise ValueError("every group must be ascending")
            values, counts = np.unique(groups.vals, return_counts=True)
            multiset, offs = (values, counts.astype(np.int64, copy=False)), groups.offs
        self._groups = groups
        self.multiset = multiset
        self._offs = offs
        self._layers = layers
        self.raw_count = raw_count
        if largest is None:
            sizes = self.sizes()
            largest = int(sizes.max()) if sizes.size else 0
        self.largest = largest

    @property
    def groups(self) -> Flat:
        if self._groups is None:
            self._groups = _place(self.multiset, self.offs, self._layers)
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
        """Each group's element count (computed once, read-only)."""
        return self._sizes

    @cached_property
    def _sizes(self) -> np.ndarray:
        sizes = np.diff(self.offs)
        sizes.flags.writeable = False
        return sizes

    @property
    def element_count(self) -> int:
        return int(self.multiset[1].sum())

    @property
    def ell(self) -> int:
        return next_pow2(self.raw_count) if self._offs is None else len(self._offs) - 1

    @cached_property
    def sigma(self) -> int:
        """sigma(D), the sum of every element."""
        values, counts = self.multiset
        return int(values @ counts)

    @cached_property
    def step(self) -> int:
        """The gcd of every element, from the distinct values."""
        return common_step(self.multiset[0])

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
            layers.append(_Layer(first, lo, bucket, drawn, empty, donors, give))
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

    A layer's elements go into their drawn buckets by one stable argsort
    of the bucket ids, cast to the narrowest unsigned dtype that holds
    them (numpy sorts 8- and 16-bit keys by radix), so each bucket is
    ascending.  Rebalancing (`_moves`, computed by stage one) takes the
    last elements of the donors, each into an empty bucket, where it is
    alone: every other element keeps its rank in its bucket, so the kept
    elements fill the layer's non-empty groups in sort order, and each
    moved one goes to its empty group's offset."""
    vals = np.repeat(*multiset)
    for first, lo, bucket, counts, empty, donors, give in layers:
        size = bucket.size
        order = np.argsort(bucket.astype(np.min_scalar_type(counts.size - 1)), kind="stable")
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
    """Per-group achievable-sum sets: node i of sets, a `Level` of runs
    of the family's common step, holds S_i, a subset of the true subset
    sums of group i that always contains 0.

    exact is True only when every S_i equals group i's full subset sums
    (the merge may then compute its root from the items); False is always
    safe.

    The constructor takes the sets as such a `Level`.
    `complete(family, params)` stands for every group's full subset sums
    without computing them: sets is built from the family on its first
    read and kept, by one rank pass of the level loop over the distinct
    group contents (`_group_sets`).  GroupSumsets compare equal when their
    sets (as values), params and exact are.
    """

    __slots__ = ("_sets", "_family", "params", "exact")

    def __init__(self, sets: Level, params: ColorCodingParams, exact: bool = False) -> None:
        self._sets: Optional[Level] = sets
        self._family: Optional[GroupFamily] = None
        self.params = params
        self.exact = exact

    @classmethod
    def complete(cls, family: GroupFamily, params: ColorCodingParams) -> "GroupSumsets":
        out = cls(None, params, True)
        out._family = family
        return out

    @property
    def sets(self) -> Level:
        if self._sets is None:
            # every group completed: no group is open
            self._sets = _group_sets(self._family, self.params, np.zeros(0, dtype=np.int64), None)
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
    return _budgeted_sumsets(family.groups.vals, family.sizes(), params, family.step, draws)


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
    elems: np.ndarray, group_sizes: np.ndarray, params: ColorCodingParams, step: int, draws: Iterable[np.ndarray]
) -> Union[GroupSumsets, DenseTripSignal]:
    """Every repetition as flat levels of the occupied nodes, summing only
    nodes with two occupied children, until one trips (see the module
    docstring).  elems holds the groups' elements back to back, each
    group ascending, and group_sizes each group's count; step divides
    every element, and the levels and sets are in its units.  draws holds
    at least one repetition's parts of the elements, in element order; one
    stable sort by part keeps each part ascending because every group is
    (see `GroupFamily`).

    A tripping level reads its stop from its total when that lies in the
    trailing {0} gap and searches for it only otherwise.  When every node
    holds one element, that element is the node's weight and sum;
    otherwise both come from running sums at the nodes' last parts.  It
    builds no roots or completeness marks: only a repetition that does not
    trip builds those.  A finished repetition's roots are kept as runs,
    node k holding the k-th non-empty group's, and the sets join them all
    with each group's {0} in one run union (`_node_union`)."""
    g, ell = params.g, group_sizes.size
    group_key = np.repeat(np.arange(0, ell * g, g, dtype=np.int64), group_sizes)
    roots, complete = [], None
    for rep, drawn in enumerate(draws):
        keys = group_key + drawn
        order = np.argsort(keys, kind="stable")
        part_key, part_val = keys[order], elems[order]
        part_first = np.empty(part_key.size, dtype=bool)
        part_first[:1] = True
        np.not_equal(part_key[1:], part_key[:-1], out=part_first[1:])
        part_start = np.flatnonzero(part_first)
        node_key = part_node = part_key[part_start]
        sizes, repeats = _part_sizes(part_val, part_first, part_start)
        # level 0's runs, built only when a level first sums a pair or the
        # roots are read: until then every node is its part
        cur = None
        for h in range(1, ceil_log2(g) + 1):
            num_nodes = ell * (g >> h)
            budget = num_nodes + params.tail
            parent = node_key >> 1
            # left[k] and left[k] + 1 are the children of a two-child node;
            # every other node is its one child, unchanged
            left = np.flatnonzero(parent[1:] == parent[:-1])
            if left.size:
                if cur is None:
                    cur = _part_level(np.delete(part_val, repeats), np.delete(part_first, repeats), step)
                kept = np.ones(node_key.size, dtype=bool)
                kept[left + 1] = False
                node_key = parent[kept]
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
                node_key = parent
            excess = int(sizes.sum()) - sizes.size
            if num_nodes + excess < budget:
                if left.size:
                    # node i is its one child or, if it has two, their sum
                    source = np.flatnonzero(kept)
                    source[paired] = len(cur) + np.arange(left.size)
                    cur = cur.concat(out).take(source)
                continue
            # the running total after node i is its global index + 1 + the
            # excess of nodes 0..i: below the budget after the last node,
            # the stop is in the trailing {0} gap; otherwise it is on the
            # first node where the total reaches it, or in the gap before
            if int(node_key[-1]) + 1 + excess < budget:
                observed, trip_index, node_sizes = budget, budget - excess, sizes
            else:
                extra = np.cumsum(sizes - 1)
                after = node_key + 1 + extra
                i = int(np.searchsorted(after, budget))
                if after[i] - sizes[i] < budget:
                    observed, trip_index, computed = int(after[i]), int(node_key[i]) + 1, i + 1
                else:
                    observed, trip_index, computed = budget, budget - (int(extra[i - 1]) if i else 0), i
                node_sizes = np.append(sizes[:computed], np.ones(sizes.size - computed, dtype=np.int64))
            if node_key.size == part_val.size:
                # every node holds one element: its weight and its sum
                node_f = node_sigma = part_val
            else:
                # a node starts at the first part whose level-0 key lies in
                # it; it weighs its parts' maxima and sums their elements,
                # read from running sums at its last part
                part_last = np.append(part_start[1:], part_key.size) - 1
                node_last = np.append(np.searchsorted(part_node, node_key << h)[1:], part_start.size) - 1
                node_f = np.diff(np.cumsum(part_val[part_last])[node_last], prepend=0)
                node_sigma = np.diff(np.cumsum(part_val)[part_last[node_last]], prepend=0)
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
                node_sizes=node_sizes,
                node_f=node_f,
                node_sigma=node_sigma,
            )
        if cur is None:
            cur = _part_level(np.delete(part_val, repeats), np.delete(part_first, repeats), step)
        roots.append(cur)
        # a group is complete once a repetition puts its elements into parts
        # of their own
        shared = np.zeros(ell, dtype=bool)
        shared[part_key[~part_first] // g] = True
        complete = ~shared if complete is None else complete | ~shared
    # node i joins group i's {0} and its roots (a repetition's root k is the
    # k-th non-empty group's); every node is given the largest span
    zero = np.zeros(ell, dtype=np.int64)
    node = np.concatenate([np.arange(ell), *(np.repeat(np.flatnonzero(group_sizes), np.diff(cur.offs)) for cur in roots)])
    starts = np.concatenate([zero, *(cur.starts for cur in roots)])
    ends = np.concatenate([zero, *(cur.ends for cur in roots)])
    _, nruns, starts, ends = _node_union(starts, ends, node, zero, np.full(ell, ends.max(initial=0)))
    return GroupSumsets(Level(starts, ends, _offsets(nruns), step), params, bool(complete.all()))


def _part_sizes(
    part_val: np.ndarray, part_first: np.ndarray, part_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Level 0's node sizes, from counts: node k is {0} plus the distinct
    elements of the k-th occupied part, so its size is its part's length
    plus one, less the part's repeats.  A repeat is an element equal to
    the one before it in the same part (each part ascends); repeats are
    rare, so each is subtracted from its part one by one.  part_val holds
    the parts' elements back to back; part_first marks, and part_start
    indexes, each part's first element.  Also returns the repeats'
    positions: without them, the parts hold their distinct elements."""
    same = part_val[1:] == part_val[:-1]
    same[part_first[1:]] = False  # a part's first element repeats nothing
    repeats = np.flatnonzero(same) + 1
    sizes = np.diff(part_start, append=part_val.size)
    sizes += 1
    np.subtract.at(sizes, np.searchsorted(part_start, repeats, side="right") - 1, 1)
    return sizes, repeats


def _part_level(vals: np.ndarray, first: np.ndarray, step: int) -> Level:
    """Level 0 of a repetition as runs of step, which divides every
    element: node k is {0} plus the k-th occupied part's distinct
    elements.  vals holds them back to back, each part ascending, and
    first marks each part's first element."""
    starts = np.flatnonzero(first)
    # a part's 0 goes before its values, so part k's values move k + 1 places
    out = np.zeros(vals.size + starts.size, dtype=np.int64)
    out[np.arange(vals.size) + np.cumsum(first)] = vals
    return Level.from_values(out, np.append(starts + np.arange(starts.size), out.size), step)


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
    multi = np.flatnonzero(sizes >= 2)
    # flat element positions of the groups not yet complete and their
    # groups, group-major, with the parts they were drawn into in each
    # repetition so far; singletons are never looked at
    open_pos = _segment_index(family.offs[multi], sizes[multi])
    open_owner = np.repeat(multi, sizes[multi])
    records: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(params.reps):
        if open_pos.size == 0:
            break
        draws = rng.integers(0, g, size=family.element_count)[open_pos]
        # the default sort, not a stable one: on the first repetition's
        # 14,791 keys of dense n=35,294, w=16, t=30,000 (seed 1) it took
        # 75 us and timsort 97-100 us (x86 VM with AVX-512, numpy 2.4)
        keys = np.sort(open_owner * g + draws)
        shared = np.zeros(ell, dtype=bool)
        shared[keys[1:][keys[1:] == keys[:-1]] // g] = True
        still_open = shared[open_owner]
        open_pos, open_owner = open_pos[still_open], open_owner[still_open]
        records.append((open_pos, draws[still_open]))
    if open_pos.size == 0:
        return GroupSumsets.complete(family, params)
    open_groups = np.unique(open_owner)
    draws = (drawn[np.isin(pos, open_pos)] for pos, drawn in records)
    open_sets = _untripped_sets(family.groups.take(open_groups), params, draws)
    return GroupSumsets(_group_sets(family, params, open_groups, open_sets), params)


def _untripped_sets(groups: Flat, params: ColorCodingParams, draws: Iterable[np.ndarray]) -> Level:
    """The sets of `_budgeted_sumsets` for groups whose `_max_level_excess`
    is below params.tail, where no level can trip, in runs of the groups'
    own common step."""
    # groups of one layer often share a step that the family's other
    # values do not: on dense n=300,000, w=2, t=201 (seed 1) the open
    # groups hold only 2s, and in units of the family's step 1 their
    # levels went to the FFT for want of runs: the solve took 10.6 s, and
    # 4.4 s in units of 2 (best of 2 each; 2-core x86 VM, numpy 2.4)
    out = _budgeted_sumsets(groups.vals, groups.sizes(), params, common_step(groups.vals), draws)
    if isinstance(out, DenseTripSignal):
        raise InternalConsistencyError("stage two tripped a budget above every level's excess")
    return out.sets


def _group_sets(
    family: GroupFamily, params: ColorCodingParams, open_groups: np.ndarray, open_sets: Optional[Level]
) -> Level:
    """Every group's full subset sums, except that node open_groups[k],
    for the groups that never complete (ascending), is open_sets' node k;
    open_sets is None when no group is open (open_groups is then empty).

    The complete groups' sets are the roots of one rank pass of the level
    loop, which puts a group's k-th element into part k (a complete group
    holds at most g), over their distinct contents (`_distinct_contents`):
    an empty group's root is {0}, which the final run union gives a group
    with no element, a singleton's is {0, x}, and a larger group's its
    full subset sums.  Every node is in runs of the family's step;
    open_sets may be in runs of any multiple of it."""
    complete = np.ones(family.ell, dtype=bool)
    complete[open_groups] = False
    done = np.flatnonzero(complete)
    which, distinct = _distinct_contents(family.groups, done)
    firsts = family.groups.take(distinct)
    rank = np.arange(firsts.vals.size) - np.repeat(firsts.offs[:-1], firsts.sizes())
    full = _untripped_sets(firsts, params, [rank]).with_step(family.step).take(which)
    if open_sets is None:
        return full
    # the joined nodes are the groups done and open_groups in turn: two
    # ascending runs, which one stable sort merges into group order
    source = np.argsort(np.concatenate((done, open_groups)), kind="stable")
    return full.concat(open_sets.with_step(family.step)).take(source)


def _distinct_contents(groups: Flat, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of the given nodes of groups, the index of its content (a
    sequence of values) among the distinct contents, and the first of the
    nodes to hold each distinct content.

    Each node gets one int64 key: a node of at most one element its
    element (elements are non-negative), or -1 when empty; a larger node
    -2 - j, where j numbers the bytes of its values in one dict in order
    of first sight.  One `np.unique` of the keys gives both results."""
    offs, ends = groups.offs[nodes], groups.offs[nodes + 1]
    one, many = ends - offs == 1, np.flatnonzero(ends - offs > 1)
    keys = np.full(nodes.size, -1, dtype=np.int64)
    keys[one] = groups.vals[offs[one]]
    seen: dict[bytes, int] = {}
    bounds = zip(offs[many].tolist(), ends[many].tolist())
    keys[many] = [-2 - seen.setdefault(groups.vals[lo:hi].tobytes(), len(seen)) for lo, hi in bounds]
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return which, nodes[first]
