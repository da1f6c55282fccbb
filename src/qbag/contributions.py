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

Exact Shapley enumeration memoizes subgraph evaluations by kept-set bitmask,
so the two terms of each marginal share one cache and the whole table costs
at most 2^(n-1) distinct evaluations; the removed sets are visited as the
submasks of the other arguments in increasing order.  An argument with no
directed path to the topic is a null player: every marginal of it is
exactly 0.0, so its Shapley value is 0.0 without enumeration.  Enumeration
beyond ``exact_cap`` arguments (default 20) raises :class:`TooLarge`, on
every call whether or not the cell is memoized; use the seeded permutation
sampler instead for big graphs.

An :class:`EvaluationCache` shared across calls on one (graph, semantics)
pair memoizes strength vectors (per kept-set mask and per severed
argument), grid sweeps per (argument, grid size) as one column per topic
the argument reaches, faithfulness probes per (argument, eps schedule) as
one column per topic, one lazily filled cell column per (built-in method,
topic), each topic's ancestors and strictly-closer pairs, and the plan of
the last principle check.  The principle checkers read probe columns;
single perturbations (:meth:`EvaluationCache.strengths_perturbed`) serve the
corpus expectations and other callers and are not memoized.  A gradient
column is filled whole by one reverse pass over the memoized full-graph
vector.  Removing, severing, perturbing or sweeping one argument re-folds
only that argument's descendants, starting from the full-graph vector
(a removal with the argument dropped from the kept set), which gives
bit-identical results; a sweep is built node by node over the cone, so it
never holds a full-length vector per point.  Cells of callable methods are
never memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .errors import DomainError, TooLarge, UnknownArgument
from .graph import QBAG, ancestor_mask, descendant_cone, strictly_closer_pairs
from .rng import SplitMix64
from .semantics import GradualSemantics, _Compiled

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


@dataclass(frozen=True)
class ShapleyExact:
    pass


@dataclass(frozen=True)
class ShapleySampled:
    permutations: int
    seed: int

    def __post_init__(self):
        if self.permutations < 1:
            raise ValueError("permutation count must be at least 1")


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

    - ``_by_mask``: final-strength vectors by kept-set bitmask (the full
      graph, each removal, the coalitions Shapley visits): at most 2^n.
    - ``_by_isolated``: one vector per severed argument (incoming edges
      removed): at most n.
    - ``_sweeps``: one grid sweep per (argument, points), as one column of
      points floats per topic the argument reaches.
    - ``_probes``: per eps schedule, one row of n probe columns (two points
      per radius) per argument.
    - ``_columns``: n cell columns of n cells per built-in method (per
      instance for the seeded sampler).
    - ``_descendants``, ``_ancestors``, ``_closer_pairs``: one entry per
      argument or topic.
    - ``derived``: the principle checkers' results: two visit orders per
      topic, and n x n strong-faithfulness entries per (grid_points, eq_tol).
    - ``plan``: one slot, the last principle check's resolved plan; a check
      with another (principle, method, configuration) replaces it.

    Removing, severing, perturbing or sweeping one argument re-folds only
    its descendants, starting from the full-graph vector; a removal vector
    is stored under its kept-set mask, where exact and sampled Shapley read
    it too.  Single perturbations are not memoized.  Everything is confined
    to the cache instance; the evaluator itself stays stateless.
    """

    def __init__(self, graph: QBAG, semantics: GradualSemantics):
        self.graph = graph
        self.semantics = semantics
        self._comp = _Compiled(graph, semantics)
        self.full_mask = (1 << len(graph)) - 1
        self._by_mask: dict[int, tuple[float, ...]] = {}
        self._by_isolated: dict[int, tuple[float, ...]] = {}
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
            removed = self.full_mask & ~key
            if removed and not removed & (removed - 1) and self.full_mask in self._by_mask:
                # one argument removed: its descendants are re-folded with it
                # dropped from the mask, never read as a 0.0-strength parent
                hit = self._refold_cone(removed.bit_length() - 1, (0.0,), key)[0]
            else:
                hit = tuple(self._comp.strengths(key))
            self._by_mask[key] = hit
        return hit

    def _descendants_of(self, index: int) -> tuple[int, ...]:
        """Argument ``index``'s strict descendants in topological order."""
        descendants = self._descendants.get(index)
        if descendants is None:
            descendants = self._descendants[index] = descendant_cone(self.graph, index)[1:]
        return descendants

    def _refold_cone(self, index: int, entries, mask: int = -1) -> list[tuple[float, ...]]:
        """One full-graph vector per entry: argument ``index``'s final
        strength set to the entry and its descendants re-folded over the
        parents kept in ``mask``, all in one work vector."""
        descendants = self._descendants_of(index)
        out = list(self.strengths())
        vectors = []
        for entry in entries:
            out[index] = entry
            vectors.append(tuple(self._comp.refold(out, descendants, mask)))
        return vectors

    def _entries(self, index: int, values) -> list[float]:
        """Argument ``index``'s final strength at each initial strength in
        ``values``; its unchanged parents are folded once."""
        comp = self._comp
        s = comp.fold(self.strengths(), comp.attackers[index], comp.supporters[index], -1)
        return [v if s is None else comp.value(v, s) for v in values]

    def _sweep_columns(self, index: int, values) -> dict[int, tuple[float, ...]]:
        """The final strength of argument ``index`` and of each of its
        descendants at every initial strength of ``index`` in ``values``, as
        one column per reached topic.  The columns are built node by node
        over the cone: for each point, only the node's parents inside the
        cone are set in one work vector, so no full-length vector is built
        per point and memory stays within points x cone.  Every node folds
        the same parents in the same order as a point-by-point re-fold, so
        the values are identical."""
        comp = self._comp
        fold, value, taus = comp.fold, comp.value, comp.tau
        entries = tuple(self._entries(index, values))
        columns = {index: entries}
        out = list(self.strengths())
        for d in self._descendants_of(index):
            attackers, supporters = comp.attackers[d], comp.supporters[d]
            varying = [(p, columns[p]) for p in (*attackers, *supporters) if p in columns]
            tau = taus[d]
            column = []
            for j in range(len(entries)):
                for p, parent in varying:
                    out[p] = parent[j]
                s = fold(out, attackers, supporters, -1)
                column.append(tau if s is None else value(tau, s))
            columns[d] = tuple(column)
        return columns

    def strengths_isolated(self, index: int) -> tuple[float, ...]:
        hit = self._by_isolated.get(index)
        if hit is None:
            hit = self._by_isolated[index] = self._refold_cone(index, (self._comp.tau[index],))[0]
        return hit

    def strengths_perturbed(self, index: int, value: float) -> tuple[float, ...]:
        """Strengths with one initial strength changed; not memoized."""
        return self._refold_cone(index, self._entries(index, (value,)))[0]

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

    def column(
        self,
        method: ContributionMethod | Callable[..., ContributionValue],
        topic: int,
        exact_cap: int = DEFAULT_EXACT_CAP,
    ) -> list:
        """The topic's memoized cell column under a built-in method, indexed
        by contributor: a float, :data:`UNDEFINED`, or ``_UNSET`` until
        :meth:`cell` computes it.  A callable method, or exact Shapley
        on a graph of more than ``exact_cap`` arguments, gets a fresh unset
        column, so every request goes through :meth:`cell`."""
        columns = self.columns(method, exact_cap)
        if columns is None:
            return [_UNSET] * self._comp.n
        column = columns[topic]
        if column is None:
            column = columns[topic] = [_UNSET] * self._comp.n
        return column

    def columns(
        self,
        method: ContributionMethod | Callable[..., ContributionValue],
        exact_cap: int = DEFAULT_EXACT_CAP,
    ) -> list[list | None] | None:
        """A built-in method's memoized cell columns, indexed by topic (None
        until :meth:`column` creates one); None for a callable method and for
        exact Shapley on a graph of more than ``exact_cap`` arguments, whose
        cells are never memoized."""
        kind = type(method)
        if kind not in _METHOD_NAMES or (kind is ShapleyExact and self._comp.n > exact_cap):
            return None
        key = method if kind is ShapleySampled else kind
        columns = self._columns.get(key)
        if columns is None:
            columns = self._columns[key] = [None] * self._comp.n
        return columns

    def cell(
        self,
        method: ContributionMethod | Callable[..., ContributionValue],
        topic: int,
        contributor: int,
        exact_cap: int = DEFAULT_EXACT_CAP,
    ) -> ContributionValue:
        """Compute one cell and store it in its column; a gradient cell fills
        the whole column from one reverse pass.  A callable ``(graph,
        semantics, topic, contributor) -> value`` gets argument names and is
        called every time.  Every exact Shapley request on a graph of more
        than ``exact_cap`` arguments raises :class:`TooLarge`.  Shapley cells of arguments that do not reach the
        topic are an exact 0.0 (null players: every marginal is exactly
        0.0)."""
        kind = type(method)
        if kind not in _METHOD_NAMES:
            if callable(method):
                names = self.graph.arguments
                value = method(self.graph, self.semantics, names[topic], names[contributor])
                return value if value is UNDEFINED else float(value)
            raise TypeError(f"unknown contribution method {method!r}")
        if kind is ShapleyExact and len(self.graph) > exact_cap:
            raise TooLarge(
                f"exact enumeration is capped at {exact_cap} arguments, graph has {len(self.graph)}"
            )
        column = self.column(method, topic, exact_cap)
        if kind is Gradient:
            column[:] = self._comp.gradient(topic, self.strengths())
            return column[contributor]
        if topic == contributor:
            value = UNDEFINED
        elif kind is Removal or kind is IntrinsicRemoval:
            with_x = self.strengths() if kind is Removal else self.strengths_isolated(contributor)
            value = with_x[topic] - self.strengths(self.full_mask & ~(1 << contributor))[topic]
        elif not (self.ancestors(topic) >> contributor) & 1:
            value = 0.0
        elif kind is ShapleyExact:
            value = _shapley_exact(self, topic, contributor)
        else:
            value = _shapley_sampled(self, topic, contributor, method.permutations, method.seed)
        column[contributor] = value
        return value

    def contribution(
        self,
        method: ContributionMethod | Callable[..., ContributionValue],
        topic: int,
        contributor: int,
        exact_cap: int = DEFAULT_EXACT_CAP,
    ) -> ContributionValue:
        """One contribution cell by argument index, read from its column and
        computed by :meth:`cell` when missing."""
        value = self.column(method, topic, exact_cap)[contributor]
        return self.cell(method, topic, contributor, exact_cap) if value is _UNSET else value


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
    increasing bitmask rank so the summation order is reproducible.  The cap
    applies to every call, memoized or not.
    """
    return contribution(
        graph, semantics, ShapleyExact(), topic, contributor, exact_cap=exact_cap, cache=cache
    )


def _shapley_exact(cache: EvaluationCache, t: int, x: int) -> float:
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
    exact_cap: int = DEFAULT_EXACT_CAP,
    cache: EvaluationCache | None = None,
) -> ContributionValue:
    """The contribution of ``contributor`` to ``topic`` under ``method``.  A
    callable ``(graph, semantics, topic, contributor) -> value`` is accepted
    in place of a method, which lets tests probe the principle checkers with
    synthetic contribution functions; its values are never memoized."""
    cache = cache or EvaluationCache(graph, semantics)
    return cache.contribution(method, graph.index_of(topic), graph.index_of(contributor), exact_cap)


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
    exact_cap: int = DEFAULT_EXACT_CAP,
    cache: EvaluationCache | None = None,
) -> ContributionTable:
    """Full contribution matrix under one method; deterministic in argument
    list order, sharing a single evaluation cache across all cells."""
    cache = cache or EvaluationCache(graph, semantics)
    n = len(graph)
    cells = tuple(
        tuple(cache.contribution(method, t, x, exact_cap) for t in range(n)) for x in range(n)
    )
    return ContributionTable(graph.arguments, method_name(method), semantics.label(), cells)
