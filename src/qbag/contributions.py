"""Contribution functions: how much one argument moves another's strength.

Four quantifications are implemented, all mapping (contributor x, topic a)
to a real number given a graph and a semantics:

    removal             sigma_G(a) - sigma_{G without x}(a)
    intrinsic removal   sigma_{G with x's incoming edges removed}(a)
                        - sigma_{G without x}(a)
    shapley             coalition-game attribution: the weighted average,
                        over all subsets X of the other arguments, of the
                        marginal effect of additionally removing x after X
                        has been removed, with weight
                        |X|! (n - |X| - 1)! / n! for n = |Args \\ {a}|
    gradient            d sigma(a) / d tau(x), the exact partial derivative

The removal family never defines an argument's contribution to itself; those
cells are the explicit :data:`UNDEFINED` marker, which is distinct from 0.
The gradient is total and gives the self-contribution a meaning.

Exact Shapley fills a topic's whole column at once.  The topic's strength
depends only on which of its m ancestors are kept, so one walk over the
subsets of the ancestors in Gray-code order, each step re-folding one
ancestor's cone, tabulates it in 2^m floats; every cell then sums the
marginals over the submasks of the other arguments in increasing order,
read from that table.  An argument with no directed path to the topic is a
null player: every marginal of it is exactly 0.0, so its Shapley value is
0.0 without enumeration.  Under a semantics where some coalition may be
undefined (a linear influence whose domain an aggregate can leave), a cell
instead enumerates full kept-set passes, which fail exactly where such a
pass does.  Enumeration beyond ``ShapleyExact.cap`` arguments (default 20)
raises :class:`TooLarge`, on every call whether or not the cell is
memoized; use the seeded permutation sampler instead for big graphs.

An :class:`EvaluationCache` shared across calls on one (graph, semantics)
pair memoizes strength vectors per kept-set mask (the full graph and the
sampled Shapley coalitions), the strengths that removing or severing each argument
changes, grid sweeps per (argument, grid size) as one column per topic
the argument reaches, faithfulness probes per (argument, eps schedule) as
one column per topic, one lazily filled cell column per (built-in method,
topic), each topic's ancestors and strictly-closer pairs, and the plan of
the last principle check.  The principle checkers read probe columns;
single perturbations (:meth:`EvaluationCache.strengths_perturbed`) serve the
corpus expectations and other callers and are not memoized.  A gradient
column is filled whole by one reverse pass over the memoized full-graph
vector, and an exact Shapley column by one coalition table.  Removing,
severing, perturbing or sweeping one argument re-folds only that argument's
descendants, starting from the full-graph vector (a removal with the
argument dropped from the kept set), which gives bit-identical results; a
sweep folds each node of the cone once for all its points, so it never
holds a full-length vector per point.  Cells of callable methods are never
memoized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Union

from .errors import DomainError, TooLarge, UnknownArgument
from .graph import QBAG, ancestor_mask, descendant_cone, strictly_closer_pairs
from .rng import SplitMix64
from .semantics import GradualSemantics, _always_defined, _Compiled

if TYPE_CHECKING:
    from array import array

DEFAULT_EXACT_CAP = 20
DEFAULT_PERMUTATIONS = 100_000
# Most points of one sweep (``qbag sweep --steps``, ``CheckConfig.grid_points``):
# a stored sweep holds points floats per reached topic.  100x the default 101.
MAX_SWEEP_POINTS = 10_001


class Undefined:
    """Marker for contribution cells that have no value (never a number)."""

    _instance: "Undefined | None" = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undef"

    def __bool__(self) -> bool:
        return False


UNDEFINED = Undefined()

ContributionValue = Union[float, Undefined]


@dataclass(frozen=True)
class Removal:
    pass


@dataclass(frozen=True)
class IntrinsicRemoval:
    pass


def _integer(owner, field: str) -> int:
    """Store ``owner.field`` as the int :func:`operator.index` makes of it,
    and return it; a value it does not accept raises ValueError."""
    value = getattr(owner, field)
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {value!r}") from None
    object.__setattr__(owner, field, number)
    return number


@dataclass(frozen=True)
class ShapleyExact:
    """Exact enumeration, on graphs of at most ``cap`` arguments."""

    cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        if _integer(self, "cap") < 1:
            raise ValueError("cap must be at least 1")


@dataclass(frozen=True)
class ShapleySampled:
    permutations: int
    seed: int

    def __post_init__(self):
        if _integer(self, "permutations") < 1:
            raise ValueError("permutation count must be at least 1")
        _integer(self, "seed")


@dataclass(frozen=True)
class Gradient:
    pass


ContributionMethod = Union[Removal, IntrinsicRemoval, ShapleyExact, ShapleySampled, Gradient]

_METHOD_NAMES = {
    Removal: "removal",
    IntrinsicRemoval: "intrinsic-removal",
    ShapleyExact: "shapley",
    ShapleySampled: "shapley-sampled",
    Gradient: "gradient",
}


def method_name(method: ContributionMethod | Callable[..., ContributionValue]) -> str:
    """A built-in method's CLI name, or a callable method's ``__name__``."""
    try:
        return _METHOD_NAMES[type(method)]
    except KeyError:
        return getattr(method, "__name__", repr(method))


def method_by_name(name: str, *, permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0) -> ContributionMethod:
    """Resolve a CLI method name; extra arguments apply to the sampler only."""
    key = name.strip().lower()
    if key == "removal":
        return Removal()
    if key in ("intrinsic-removal", "intrinsic_removal"):
        return IntrinsicRemoval()
    if key in ("shapley", "shapley-exact", "shapley_exact"):
        return ShapleyExact()
    if key in ("shapley-sampled", "shapley_sampled"):
        return ShapleySampled(permutations, seed)
    if key == "gradient":
        return Gradient()
    raise ValueError(f"unknown contribution method {name!r}")


# A column entry whose cell has not been computed yet.
_UNSET = object()


class EvaluationCache:
    """Memoized evaluations for one (graph, semantics) pair.

    Each store is indexed as follows (n arguments), so what a cache holds is
    bounded by the graph and by the distinct configurations its callers use:

    - ``_by_mask``: final-strength vectors by kept-set bitmask: the full
      graph, the coalitions the Shapley sampler visits (at most two per
      permutation of each sampled cell), and, only under a semantics where
      a coalition may be undefined, those exact Shapley visits: at most 2^n.
    - ``_removed``, ``_severed``: per argument, the strengths of its
      descendants with it removed, or with its incoming edges severed, by
      descendant: at most n entries of at most n - 1 floats each.
    - ``_sweeps``: one grid sweep per (argument, points), as one column of
      points floats per topic the argument reaches.
    - ``_probes``: per eps schedule, one row of n probe columns (two points
      per radius) per argument.
    - ``_columns``: n cell columns of n cells per built-in method (per
      instance for the seeded sampler).
    - ``_descendants``, ``_ancestors``, ``_closer_pairs``: one entry per
      argument or topic.
    - ``derived``: the principle checkers' results: two visit orders per
      topic, n x n strong-faithfulness entries per (grid_points, eq_tol),
      and n x n signed probe rows per eps schedule.
    - ``plan``: one slot, the last principle check's resolved plan; a check
      with another (principle, method, configuration) replaces it.

    An exact Shapley column is computed from a coalition table of 2^m
    floats for the topic's m ancestors (4 MB at m = 19, the most the default
    cap admits) and lookup tables of at most 2^10 entries; the table is
    dropped once the column is filled, so at most one is alive.  Removing,
    severing, perturbing or sweeping one argument re-folds only its
    descendants, starting from the full-graph vector, and keeps only the
    strengths it changes; single perturbations are not memoized.
    Everything is confined to the cache instance; the evaluator itself
    stays stateless.
    """

    def __init__(self, graph: QBAG, semantics: GradualSemantics):
        self.graph = graph
        self.semantics = semantics
        self._comp = _Compiled(graph, semantics)
        self.full_mask = (1 << len(graph)) - 1
        self._by_mask: dict[int, tuple[float, ...]] = {}
        self._removed: list[dict[int, float] | None] = [None] * len(graph)
        self._severed: list[dict[int, float] | None] = [None] * len(graph)
        self._sweeps: dict[tuple[int, int], dict[int, tuple[float, ...]]] = {}
        self._probes: dict[tuple[float, ...], list[list[tuple] | None]] = {}
        self._descendants: dict[int, tuple[int, ...]] = {}
        self._ancestors: dict[int, int] = {}
        self._closer_pairs: dict[int, list[tuple[int, int]]] = {}
        # method key -> per-topic cell columns; the key is the method's type,
        # or the method itself for the seeded sampler
        self._columns: dict[object, list[list | None]] = {}
        self.derived: dict[tuple, object] = {}
        self.plan = None

    def strengths(self, mask: int | None = None) -> tuple[float, ...]:
        key = self.full_mask if mask is None else mask
        hit = self._by_mask.get(key)
        if hit is None:
            hit = self._by_mask[key] = tuple(self._comp.strengths(key))
        return hit

    def _descendants_of(self, index: int) -> tuple[int, ...]:
        """Argument ``index``'s strict descendants in topological order."""
        descendants = self._descendants.get(index)
        if descendants is None:
            descendants = self._descendants[index] = descendant_cone(self.graph, index)[1:]
        return descendants

    def _refold_cone(self, index: int, entry: float, mask: int = -1) -> list[float]:
        """The full-graph vector with argument ``index``'s final strength set
        to ``entry`` and its descendants re-folded over the parents kept in
        ``mask``."""
        out = list(self.strengths())
        out[index] = entry
        return self._comp.refold(out, self._descendants_of(index), mask)

    def _changed(self, store: list, index: int, entry: float, mask: int = -1) -> dict[int, float]:
        """Argument ``index``'s entry of ``store``: its descendants'
        strengths from :meth:`_refold_cone`, by descendant."""
        hit = store[index]
        if hit is None:
            out = self._refold_cone(index, entry, mask)
            hit = store[index] = {d: out[d] for d in self._descendants_of(index)}
        return hit

    def _signal(self, index: int) -> float | None:
        """Argument ``index``'s aggregate in the full graph, None when it has
        no parent: its final strength is then its initial one."""
        comp = self._comp
        return comp.fold(self.strengths(), comp.attackers[index], comp.supporters[index], -1)

    def _sweep_columns(self, index: int, values: list[float]) -> dict[int, tuple[float, ...]]:
        """The final strength of argument ``index`` and of each of its
        descendants at every initial strength of ``index`` in ``values``, as
        one column per reached topic.  Each node is folded once per column,
        by the column forms of the aggregation and the influence: one pass
        per parent in the scalar fold's order, a parent outside the cone
        repeating its full-graph strength.  Every point thus runs the
        scalar fold's operations in the same order, so the values are
        identical to a point-by-point re-fold, and memory stays within
        points x cone."""
        comp = self._comp
        fold_column, value_column, taus = comp.fold_column, comp.value_column, comp.tau
        s = self._signal(index)
        columns = {index: tuple(values) if s is None else value_column(values, [s] * len(values))}
        out = self.strengths()
        for d in self._descendants_of(index):
            signals = fold_column(out, columns, comp.attackers[d], comp.supporters[d], len(values))
            columns[d] = value_column(repeat(taus[d]), signals)
        return columns

    def strengths_perturbed(self, index: int, value: float) -> tuple[float, ...]:
        """Strengths with one initial strength changed; not memoized."""
        s = self._signal(index)
        return tuple(self._refold_cone(index, value if s is None else self._comp.value(value, s)))

    def sweep_column(self, index: int, topic: int, points: int) -> tuple[float, ...]:
        """The topic's final strength as argument ``index``'s initial strength
        takes the values j / (points - 1), j = 0 .. points - 1.  The sweep is
        computed once per (argument, points), and only the columns of the
        topics it reaches are kept; any other topic keeps its unmodified
        strength.  An undefined point raises the error of the first
        undefined point, as a point-by-point sweep would."""
        if topic != index and not (self.ancestors(topic) >> index) & 1:
            return (self.strengths()[topic],) * points
        key = (index, points)
        columns = self._sweeps.get(key)
        if columns is None:
            last = points - 1
            values = [j / last for j in range(points)]
            try:
                columns = self._sweeps[key] = self._sweep_columns(index, values)
            except DomainError:
                for v in values:
                    self.strengths_perturbed(index, v)
                raise
        return columns[topic]

    def probe_table(self, schedule: tuple[float, ...]) -> list[list[tuple] | None]:
        """The probe columns of one eps schedule, indexed [argument][topic];
        an argument's entry is None until :meth:`probe_column` fills it."""
        table = self._probes.get(schedule)
        if table is None:
            table = self._probes[schedule] = [None] * self._comp.n
        return table

    def probe_column(self, index: int, topic: int, schedule: tuple[float, ...]) -> tuple:
        """The topic's final strength at every faithfulness probe point of
        argument ``index``'s initial strength tau: position 2k holds the
        point tau + schedule[k] and position 2k + 1 holds tau - schedule[k].
        A point outside [0, 1] is None and is not evaluated.  All points of
        one (argument, schedule) are computed by one sweep for every topic.
        If that sweep raises :class:`DomainError`, each point is evaluated on
        its own and a failing point holds its exception, for the reader to
        raise: a probe that is never read must not fail the check."""
        table = self.probe_table(schedule)
        columns = table[index]
        if columns is None:
            columns = table[index] = self._probe_columns(index, schedule)
        return columns[topic]

    def _probe_columns(self, index: int, schedule: tuple[float, ...]) -> list[tuple]:
        n = self._comp.n
        tau = self._comp.tau[index]
        points = [p for d in schedule for p in (tau + d, tau - d)]
        at = [k for k, p in enumerate(points) if 0.0 <= p <= 1.0]
        inside = [points[k] for k in at]
        try:
            reached = self._sweep_columns(index, inside)
        except DomainError:
            rows = []
            for p in inside:
                try:
                    rows.append(self.strengths_perturbed(index, p))
                except DomainError as exc:
                    rows.append((exc.with_traceback(None),) * n)
            columns = [tuple([row[t] for row in rows]) for t in range(n)]
        else:
            base = self.strengths()
            columns = [reached[t] if t in reached else (base[t],) * len(inside) for t in range(n)]
        if len(at) == len(points):
            return columns
        padded = []
        for column in columns:
            row = [None] * len(points)
            for k, strength in zip(at, column):
                row[k] = strength
            padded.append(tuple(row))
        return padded

    def ancestors(self, topic: int) -> int:
        """Bitmask of the arguments with a directed path to the topic."""
        hit = self._ancestors.get(topic)
        if hit is None:
            hit = self._ancestors[topic] = ancestor_mask(self.graph, topic)
        return hit

    def closer_pairs(self, topic: int) -> list[tuple[int, int]]:
        """The topic's strictly-closer (nearer, farther) index pairs."""
        hit = self._closer_pairs.get(topic)
        if hit is None:
            hit = self._closer_pairs[topic] = strictly_closer_pairs(self.graph, topic)
        return hit

    def column(self, method: ContributionMethod | Callable[..., ContributionValue], topic: int) -> list:
        """The topic's memoized cell column under a built-in method, indexed
        by contributor: a float, :data:`UNDEFINED`, or ``_UNSET`` until
        :meth:`cell` computes it.  A callable method, or exact Shapley
        on a graph of more than its cap arguments, gets a fresh unset
        column, so every request goes through :meth:`cell`."""
        columns = self.columns(method)
        if columns is None:
            return [_UNSET] * self._comp.n
        column = columns[topic]
        if column is None:
            column = columns[topic] = [_UNSET] * self._comp.n
        return column

    def columns(self, method: ContributionMethod | Callable[..., ContributionValue]) -> list[list | None] | None:
        """A built-in method's memoized cell columns, indexed by topic (None
        until :meth:`column` creates one); None for a callable method and for
        exact Shapley on a graph of more than its cap arguments, whose cells
        are never memoized.  Exact Shapley's columns are shared by every cap
        that admits the graph: a cell does not depend on the cap."""
        kind = type(method)
        if kind not in _METHOD_NAMES or (kind is ShapleyExact and self._comp.n > method.cap):
            return None
        key = method if kind is ShapleySampled else kind
        columns = self._columns.get(key)
        if columns is None:
            columns = self._columns[key] = [None] * self._comp.n
        return columns

    def cell(
        self, method: ContributionMethod | Callable[..., ContributionValue], topic: int, contributor: int
    ) -> ContributionValue:
        """Compute one cell and store it in its column; a gradient cell fills
        the whole column from one reverse pass, and an exact Shapley cell
        from one coalition table, unless the semantics may leave its domain
        on some coalition.  A callable ``(graph,
        semantics, topic, contributor) -> value`` gets argument names and is
        called every time.  Every exact Shapley request on a graph of more
        than its cap arguments raises :class:`TooLarge`.  Shapley cells of
        arguments that do not reach the topic are an exact 0.0 (null
        players: every marginal is exactly 0.0).  A removal or intrinsic
        removal cell reads the contributor's removal and severing stores; an
        intrinsic cell evaluates the severed graph first."""
        kind = type(method)
        if kind not in _METHOD_NAMES:
            if callable(method):
                names = self.graph.arguments
                value = method(self.graph, self.semantics, names[topic], names[contributor])
                return value if value is UNDEFINED else float(value)
            raise TypeError(f"unknown contribution method {method!r}")
        if kind is ShapleyExact and len(self.graph) > method.cap:
            raise TooLarge(f"exact enumeration is capped at {method.cap} arguments, graph has {len(self.graph)}")
        column = self.column(method, topic)
        if kind is Gradient:
            column[:] = self._comp.gradient(topic, self.strengths())
            return column[contributor]
        if topic == contributor:
            value = UNDEFINED
        elif kind is Removal or kind is IntrinsicRemoval:
            base = with_x = self.strengths()[topic]
            if kind is IntrinsicRemoval:
                with_x = self._changed(self._severed, contributor, self._comp.tau[contributor]).get(topic, base)
            # the contributor is dropped from the kept set, so its
            # descendants never read it as a 0.0-strength parent
            without = self._changed(self._removed, contributor, 0.0, self.full_mask & ~(1 << contributor))
            value = with_x - without.get(topic, base)
        elif not (self.ancestors(topic) >> contributor) & 1:
            value = 0.0
        elif kind is not ShapleyExact:
            value = _shapley_sampled(self, topic, contributor, method.permutations, method.seed)
        elif _always_defined(self.graph, self.semantics):
            column[:] = _shapley_column(self, topic)
            return column[contributor]
        else:
            value = _shapley_exact(self, topic, contributor)
        column[contributor] = value
        return value

    def contribution(
        self, method: ContributionMethod | Callable[..., ContributionValue], topic: int, contributor: int
    ) -> ContributionValue:
        """One contribution cell by argument index, read from its column and
        computed by :meth:`cell` when missing."""
        value = self.column(method, topic)[contributor]
        return self.cell(method, topic, contributor) if value is _UNSET else value


def contrib_removal(
    graph: QBAG,
    semantics: GradualSemantics,
    topic: str,
    contributor: str,
    *,
    cache: EvaluationCache | None = None,
) -> ContributionValue:
    """Effect of deleting the contributor outright (undefined on itself)."""
    return contribution(graph, semantics, Removal(), topic, contributor, cache=cache)


def contrib_intrinsic_removal(
    graph: QBAG,
    semantics: GradualSemantics,
    topic: str,
    contributor: str,
    *,
    cache: EvaluationCache | None = None,
) -> ContributionValue:
    """Like removal, but measured from the graph in which the contributor's
    own incoming edges were already severed, so only its intrinsic strength
    counts (undefined on itself)."""
    return contribution(graph, semantics, IntrinsicRemoval(), topic, contributor, cache=cache)


def _shapley_weights(num_players: int) -> list[float]:
    """Weight per coalition size: 1 / (n * C(n-1, k)), built with a running
    binomial so no factorial is ever materialised."""
    weights = []
    binom = 1.0
    for k in range(num_players):
        weights.append(1.0 / (num_players * binom))
        binom = binom * (num_players - 1 - k) / (k + 1)
    return weights


def contrib_shapley_exact(
    graph: QBAG,
    semantics: GradualSemantics,
    topic: str,
    contributor: str,
    *,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cache: EvaluationCache | None = None,
) -> ContributionValue:
    """Exact coalition-game attribution (undefined on itself).

    Sums, over every subset X of the arguments other than topic and
    contributor, the weighted marginal effect of removing the contributor
    from the graph already restricted by removing X.  Subsets are visited in
    increasing bitmask rank so the summation order is reproducible.  The
    cap, ``ShapleyExact(exact_cap)``, applies to every call, memoized or
    not.
    """
    return contribution(graph, semantics, ShapleyExact(exact_cap), topic, contributor, cache=cache)


def _coalition_table(cache: EvaluationCache, t: int, ancestors: list[int]) -> array:
    """The topic's final strength with each subset of its ancestors removed,
    at the subset's rank (bit j for ``ancestors[j]``): 2^m floats for m
    ancestors, filled by one walk in Gray-code order.  Each step toggles one
    ancestor and re-folds its descendants among the ancestors and the topic,
    and the ancestor itself when it is put back; every other argument is
    irrelevant to the topic's strength.  Each node folds the same kept
    parents in the same order as a masked full pass, so every entry equals
    that pass' value bit for bit."""
    # imported here: a CLI process that fills no exact Shapley column would
    # map the array extension for nothing
    from array import array

    comp = cache._comp
    inside = cache.ancestors(t) | 1 << t
    cones = [tuple([d for d in cache._descendants_of(a) if (inside >> d) & 1]) for a in ancestors]
    back = [(a, *cone) for a, cone in zip(ancestors, cones)]
    out = list(cache.strengths())
    table = array("d", [out[t]]) * (1 << len(ancestors))
    removed = 0
    for step in range(1, len(table)):
        j = (step & -step).bit_length() - 1
        a = ancestors[j]
        removed ^= 1 << a
        comp.refold(out, cones[j] if (removed >> a) & 1 else back[j], ~removed)
        table[step ^ (step >> 1)] = out[t]
    return table


# The low bits of a submask's rank, read through one lookup table of
# 2^_LOW_BITS entries; the high bits go through another.
_LOW_BITS = 10


def _unions(bits: list[int]) -> list[int]:
    """The union of ``bits[j]`` over the set bits j of every rank i, at i."""
    unions = [0]
    for bit in bits:
        unions += [u | bit for u in unions]
    return unions


def _shapley_column(cache: EvaluationCache, t: int) -> list:
    """The topic's exact Shapley column: undefined on the topic, 0.0 for
    every argument that does not reach it, and for every ancestor x the sum
    :func:`_shapley_exact` computes, term by term in the same order: over
    the submasks of the other arguments in increasing order, the weight of
    the submask's size times the marginal of x.  The marginals are read from
    :func:`_coalition_table` through two lookup tables that map the low
    (at most ``_LOW_BITS``) and the high bits of a submask's rank to the
    ancestors it removes."""
    n = cache._comp.n
    reach = cache.ancestors(t)
    ancestors = [a for a in range(n) if (reach >> a) & 1]
    table = _coalition_table(cache, t, ancestors)
    weights = _shapley_weights(n - 1)
    half = min(n - 2, _LOW_BITS)
    low_sizes = [i.bit_count() for i in range(1 << half)]
    # the weights of the low terms by the number of high bits
    rows = [[weights[high + low] for low in low_sizes] for high in range(n - 1 - half)]
    # each player's bit in a table rank, in index order: 0 for a null player
    players = [i for i in range(n) if i != t]
    rank_bits = [1 << ancestors.index(i) if (reach >> i) & 1 else 0 for i in players]
    column = [0.0] * n
    column[t] = UNDEFINED
    for j, x in enumerate(players):
        x_bit = rank_bits[j]
        if not x_bit:
            continue
        others = rank_bits[:j] + rank_bits[j + 1:]
        low = _unions(others[:half])
        low_without = [r | x_bit for r in low]
        total = 0.0
        for high, r in enumerate(_unions(others[half:])):
            for weight, with_x, without_x in zip(rows[high.bit_count()], low, low_without):
                total += weight * (table[r | with_x] - table[r | without_x])
        column[x] = total
    return column


def _shapley_exact(cache: EvaluationCache, t: int, x: int) -> float:
    """One exact Shapley cell from full kept-set passes, for a semantics
    under which a coalition may be undefined: each coalition raises the
    error its masked pass raises, in submask order."""
    full = cache.full_mask
    weights = _shapley_weights(len(cache.graph) - 1)
    x_bit = 1 << x
    others = full & ~(1 << t) & ~x_bit
    total = 0.0
    removed = 0
    while True:
        # removed runs over the submasks of others in increasing order
        kept = full & ~removed
        marginal = cache.strengths(kept)[t] - cache.strengths(kept & ~x_bit)[t]
        total += weights[removed.bit_count()] * marginal
        if removed == others:
            return total
        removed = (removed - others) & others


def contrib_shapley_sampled(
    graph: QBAG,
    semantics: GradualSemantics,
    topic: str,
    contributor: str,
    permutations: int,
    seed: int,
    *,
    cache: EvaluationCache | None = None,
) -> ContributionValue:
    """Unbiased permutation-sampling estimate of the exact Shapley value.

    Each sample draws a uniform ordering of the arguments other than the
    topic and takes the marginal effect of removing the contributor after
    the prefix preceding it has been removed.  Deterministic given the seed.
    """
    return contribution(
        graph, semantics, ShapleySampled(permutations, seed), topic, contributor, cache=cache
    )


def _shapley_sampled(cache: EvaluationCache, t: int, x: int, permutations: int, seed: int) -> float:
    rng = SplitMix64(seed)
    players = [i for i in range(len(cache.graph)) if i != t]
    full = cache.full_mask
    x_bit = 1 << x
    total = 0.0
    for _ in range(permutations):
        rng.shuffle(players)
        removed = 0
        for i in players:
            if i == x:
                break
            removed |= 1 << i
        kept = full & ~removed
        total += cache.strengths(kept)[t] - cache.strengths(kept & ~x_bit)[t]
    return total / permutations


def contrib_gradient(
    graph: QBAG,
    semantics: GradualSemantics,
    topic: str,
    contributor: str,
    *,
    cache: EvaluationCache | None = None,
) -> ContributionValue:
    """Partial derivative of the topic's strength w.r.t. the contributor's
    initial strength; total, including the self-contribution."""
    return contribution(graph, semantics, Gradient(), topic, contributor, cache=cache)


def contribution(
    graph: QBAG,
    semantics: GradualSemantics,
    method: ContributionMethod | Callable[..., ContributionValue],
    topic: str,
    contributor: str,
    *,
    cache: EvaluationCache | None = None,
) -> ContributionValue:
    """The contribution of ``contributor`` to ``topic`` under ``method``.  A
    callable ``(graph, semantics, topic, contributor) -> value`` is accepted
    in place of a method, which lets tests probe the principle checkers with
    synthetic contribution functions; its values are never memoized."""
    cache = cache or EvaluationCache(graph, semantics)
    return cache.contribution(method, graph.index_of(topic), graph.index_of(contributor))


@dataclass(frozen=True)
class ContributionTable:
    """Contributor-by-topic matrix of contribution values.

    Rows are contributors and columns are topics, both in argument-list
    order.  Cells on the diagonal are :data:`UNDEFINED` for the removal
    family and real numbers for the gradient.
    """

    arguments: tuple[str, ...]
    method: str
    semantics: str
    cells: tuple[tuple[ContributionValue, ...], ...]

    def value(self, contributor: str, topic: str) -> ContributionValue:
        try:
            r = self.arguments.index(contributor)
            c = self.arguments.index(topic)
        except ValueError:
            raise UnknownArgument(f"unknown argument in ({contributor!r}, {topic!r})") from None
        return self.cells[r][c]


def contribution_table(
    graph: QBAG,
    semantics: GradualSemantics,
    method: ContributionMethod,
    *,
    cache: EvaluationCache | None = None,
) -> ContributionTable:
    """Full contribution matrix under one method; deterministic in argument
    list order, sharing a single evaluation cache across all cells."""
    cache = cache or EvaluationCache(graph, semantics)
    n = len(graph)
    cells = tuple(tuple(cache.contribution(method, t, x) for t in range(n)) for x in range(n))
    return ContributionTable(graph.arguments, method_name(method), semantics.label(), cells)
