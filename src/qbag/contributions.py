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
ancestor's cone, tabulates it in 2^m floats.  Any other argument is a null
player, whose Shapley value is 0.0, and each ancestor's value is its value
in the m-player game over the ancestors: an exactly rounded sum of 2^(m-1)
weighted marginals read from that table.  A sampled cell shuffles only the
topic's ancestors, and re-folds each coalition it visits on one vector,
within the ancestors and the topic.  A topic that with its ancestors counts
more than ``ShapleyExact.cap`` arguments (default 20) raises
:class:`TooLarge` for every exact cell, whatever the graph's size; use the
seeded permutation sampler instead for such topics.

Directionality holds exactly under every built-in method: the cell of an
argument that does not reach the topic is +0.0, set without evaluating
anything, since removing, severing or varying that argument cannot move the
topic, and it is a Shapley null player.  The principle checkers rely on
this to read only a topic's ancestors.

One rule decides where a result is undefined, under a semantics whose
influence has a bounded domain (a custom ``linear``): a quantity about topic
t raises :class:`DomainError` exactly when re-folding t's ancestors and t
fails in the modified graph it reads, since no other argument can move t.
Every quantity but a sampled cell or a cell of an argument that does not
reach the topic also needs the full graph defined.

An :class:`EvaluationCache` shared across calls on one (graph, semantics)
pair memoizes the full graph's strength vector, never a coalition's, the
strengths that removing or severing each argument changes, perturbation
sweeps per (argument, grid point count) or (argument, probe values), as one
column per topic the argument reaches, one lazily filled cell column per
(built-in method, topic), the error of each topic whose exact Shapley walk
fails, each topic's ancestors and strictly-closer pairs, and the plan of the
last principle check.  Single perturbations
(:meth:`EvaluationCache.strengths_perturbed`) serve the corpus
expectations, other callers and a sweep that fails, and are not memoized.  A
gradient column is filled whole by one reverse pass over the memoized
full-graph vector, and an exact Shapley column by one coalition table.
Removing, severing, perturbing or sweeping one argument re-folds only that
argument's descendants, starting from the full-graph vector (a removal
writes the argument's entry as +0.0), which gives bit-identical results; a
descendant that fails, and every descendant that reads it, holds its
error in place of a strength, which only a reader of that entry raises.  A
sweep folds each node of the cone once for all its points, so it never
holds a full-length vector per point.  Cells of callable methods are never
memoized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, repeat
from math import fsum
from typing import TYPE_CHECKING, Callable, Sequence, Union

from .errors import DomainError, TooLarge, UnknownArgument
from .graph import QBAG, ancestor_mask, descendant_cone, strictly_closer_pairs
from .rng import SplitMix64
from .semantics import GradualSemantics, _Compiled

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
    """Exact enumeration, for a topic that with its ancestors counts at most
    ``cap`` arguments; the cap bounds the topic and its ancestors on every
    call, memoized or not."""

    cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        if _integer(self, "cap") < 1:
            raise ValueError("cap must be at least 1")


@dataclass(frozen=True)
class ShapleySampled:
    """Unbiased permutation-sampling estimate of the exact Shapley value,
    deterministic given the seed."""

    permutations: int
    seed: int

    def __post_init__(self):
        if _integer(self, "permutations") < 1:
            raise ValueError("permutation count must be at least 1")
        if not 0 <= _integer(self, "seed") < 1 << 64:
            raise ValueError("seed must lie in [0, 2**64)")


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


class _PointByPoint(dict):
    """A stored sweep whose column sweep failed and whose points were then
    evaluated one by one: the only sweep whose columns can hold errors."""


class EvaluationCache:
    """Memoized evaluations for one (graph, semantics) pair.

    Each store is indexed by argument, topic or configuration, never by
    coalition (n arguments), so what a cache holds is bounded by the graph
    and by the distinct configurations its callers use:

    - ``_full``: the full graph's final-strength vector.
    - ``_removed``, ``_severed``: per argument, the strengths of its
      descendants with it removed, or with its incoming edges severed, by
      descendant: at most n entries of at most n - 1 floats (or errors) each.
    - ``_sweeps``: one sweep per (argument, point count) of a grid or per
      (argument, values) of the probe points of an eps schedule inside
      [0, 1], as one column per topic the argument reaches.  Only a sweep
      evaluated point by point, a :class:`_PointByPoint`, holds errors in
      place of strengths.
    - ``_columns``: n cell columns of n cells per built-in method (per
      instance for the two Shapley methods, so per cap and per seed).
    - ``_walk_errors``: per topic, the error of its exact Shapley table walk.
    - ``_descendants``, ``_ancestors``, ``_closer_pairs``: one entry per
      argument or topic.
    - ``derived``: the principle checkers' tables: three visit orders per
      topic (its ancestors, the other arguments, and those of them with no
      path to it), n x n strong-faithfulness entries per (grid_points, eq_tol),
      and n x n probe columns and signed probe rows per eps schedule.
    - ``plan``: one slot, the last principle check's resolved plan; a check
      with another (principle, method, configuration) replaces it.

    An exact Shapley column is computed from a coalition table of 2^m floats
    for the topic's m ancestors and an array of 2^m per-rank weights (8 MB
    at m = 19, the most the default cap admits), both dropped once the
    column is filled; a sampled cell re-folds its coalitions on one vector.
    Removing, severing, perturbing or sweeping one argument re-folds only
    its descendants, starting from the full-graph vector, and keeps only the
    strengths it changes; no single perturbation is memoized.  Everything
    is confined to the cache instance; the evaluator itself stays stateless.
    """

    def __init__(self, graph: QBAG, semantics: GradualSemantics):
        self.graph = graph
        self.semantics = semantics
        self._comp = _Compiled(graph, semantics)
        self._full: tuple[float, ...] | None = None
        self._removed: list[dict[int, float] | None] = [None] * len(graph)
        self._severed: list[dict[int, float] | None] = [None] * len(graph)
        self._sweeps: dict[tuple[int, int | tuple[float, ...]], dict[int, tuple]] = {}
        self._descendants: dict[int, tuple[int, ...]] = {}
        self._ancestors: dict[int, int] = {}
        self._closer_pairs: dict[int, list[tuple[int, int]]] = {}
        # method key -> per-topic cell columns; the key is the method's type,
        # or the method itself for the seeded sampler
        self._columns: dict[object, list[list | None]] = {}
        self._walk_errors: dict[int, DomainError] = {}
        self.derived: dict[tuple, object] = {}
        self.plan = None

    def strengths(self) -> tuple[float, ...]:
        """The full graph's final strengths, computed once."""
        full = self._full
        if full is None:
            full = self._full = tuple(self._comp.strengths())
        return full

    def _descendants_of(self, index: int) -> tuple[int, ...]:
        """Argument ``index``'s strict descendants in topological order."""
        descendants = self._descendants.get(index)
        if descendants is None:
            descendants = self._descendants[index] = descendant_cone(self.graph, index)[1:]
        return descendants

    def _refold_cone(self, index: int, entry: float, removed: int = 0) -> list:
        """The full-graph vector with argument ``index``'s final strength set
        to ``entry`` and its descendants re-folded by :meth:`_Compiled.refold`
        with ``removed``.  A descendant that leaves the domain holds its
        :class:`DomainError` in place of a strength, and so does every
        descendant that reads it: the error of the first failing node, in
        topological order, that it reads."""
        comp, cone = self._comp, self._descendants_of(index)
        out = list(self.strengths())
        out[index] = entry
        try:
            return comp.refold(out, cone, removed)
        except DomainError:
            failed = []
        for d in cone:
            parents = chain(comp.attackers[d], comp.supporters[d])
            errors = [out[p] for p in parents if out[p].__class__ is DomainError]
            if errors:
                out[d] = min(errors, key=failed.index)
                continue
            try:
                comp.refold(out, (d,), removed)
            except DomainError as exc:
                out[d] = exc.with_traceback(None)
                failed.append(out[d])
        return out

    def _changed(self, store: list, index: int, entry: float, removed: int = 0) -> dict[int, float]:
        """Argument ``index``'s entry of ``store``: its descendants'
        strengths from :meth:`_refold_cone`, by descendant."""
        hit = store[index]
        if hit is None:
            out = self._refold_cone(index, entry, removed)
            hit = store[index] = {d: out[d] for d in self._descendants_of(index)}
        return hit

    def _signal(self, index: int) -> float | None:
        """Argument ``index``'s aggregate in the full graph, None when it has
        no parent: its final strength is then its initial one."""
        atts, sups = self._comp.attackers[index], self._comp.supporters[index]
        return self._comp.fold(self.strengths(), atts, sups) if atts or sups else None

    def _sweep_columns(self, index: int, values: Sequence[float]) -> dict[int, tuple[float, ...]]:
        """The final strength of argument ``index`` and of each of its
        descendants at every initial strength of ``index`` in ``values``, as
        one column per reached topic.  Each node's aggregates are folded
        once per column, by the aggregation's column form: one pass per
        parent in the scalar fold's order, a parent outside the cone
        repeating its full-graph strength; the scalar influence then maps
        each point's aggregate.  Every point thus runs the scalar fold's
        operations in the same order, so the values are identical to a
        point-by-point re-fold, and memory stays within points x cone."""
        comp = self._comp
        fold_column, value, taus = comp.fold_column, comp.value, comp.tau
        s = self._signal(index)
        # each column goes through a list: tuple(map(...)) guesses a length of
        # 10 and shrinks, leaving a short column in a larger memory block
        columns = {index: tuple(values) if s is None else tuple(list(map(value, values, repeat(s))))}
        out = self.strengths()
        for d in self._descendants_of(index):
            signals = fold_column(out, columns, comp.attackers[d], comp.supporters[d], len(values))
            columns[d] = tuple(list(map(value, repeat(taus[d]), signals)))
        return columns

    def strengths_perturbed(self, index: int, value: float) -> tuple:
        """Strengths with one initial strength changed, an undefined one
        holding its error as :meth:`_refold_cone` says; not memoized."""
        s = self._signal(index)
        return tuple(self._refold_cone(index, value if s is None else self._comp.value(value, s)))

    def sweep(self, index: int, values: int | tuple[float, ...]) -> dict[int, tuple]:
        """The final strengths of argument ``index`` and of each of its
        descendants as its initial strength takes each of ``values``, or each
        grid point j / (values - 1), j = 0 .. values - 1, when ``values`` is a
        point count, as one column per reached topic from
        :meth:`_sweep_columns`, computed once per (index, values) and kept in
        ``_sweeps``.  If the column sweep raises :class:`DomainError`, each
        point is evaluated on its own by :meth:`strengths_perturbed`, an
        undefined strength holds its error, for the reader to raise, and the
        sweep is a :class:`_PointByPoint`."""
        key = (index, values)
        columns = self._sweeps.get(key)
        if columns is None:
            if isinstance(values, int):
                last = values - 1
                values = [j / last for j in range(values)]
            try:
                columns = self._sweep_columns(index, values)
            except DomainError:
                rows = [self.strengths_perturbed(index, v) for v in values]
                columns = _PointByPoint({t: tuple([r[t] for r in rows]) for t in (index, *self._descendants_of(index))})
            self._sweeps[key] = columns
        return columns

    def sweep_column(self, index: int, topic: int, points: int) -> tuple[float, ...]:
        """The topic's final strength as argument ``index``'s initial strength
        takes the values j / (points - 1), j = 0 .. points - 1, computed once
        per (argument, points).  A topic the argument does not reach keeps
        its unmodified strength, and nothing is evaluated for it.  An
        undefined point raises the error of the first undefined point, as a
        point-by-point sweep would."""
        if topic != index and not (self.ancestors(topic) >> index) & 1:
            return (self.strengths()[topic],) * points
        columns = self.sweep(index, points)
        column = columns[topic]
        if columns.__class__ is _PointByPoint:
            for strength in column:
                if strength.__class__ is DomainError:
                    raise strength.with_traceback(None)
        return column

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
        :meth:`cell` computes it.  A callable method gets a fresh unset
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
        until :meth:`column` creates one); None for a callable method, whose
        cells are never memoized.  Shapley columns are kept per method value."""
        kind = type(method)
        if kind not in _METHOD_NAMES:
            return None
        key = method if kind is ShapleySampled or kind is ShapleyExact else kind
        columns = self._columns.get(key)
        if columns is None:
            columns = self._columns[key] = [None] * self._comp.n
        return columns

    def cell(
        self, method: ContributionMethod | Callable[..., ContributionValue], topic: int, contributor: int
    ) -> ContributionValue:
        """Compute one cell and store it in its column; a gradient cell fills
        the whole column from one reverse pass, and an exact Shapley cell
        from one coalition table, whose walk raises the first undefined
        coalition's error, kept for every later cell of the topic.  A
        callable ``(graph, semantics, topic, contributor) -> value`` gets
        argument names and is called every time.  Every exact Shapley
        request on a topic that with its ancestors counts more than the cap
        raises :class:`TooLarge`.  Under every built-in method the cells of
        the arguments that do not reach the topic are an exact 0.0, all set
        by the first request for one of them, with nothing evaluated
        (directionality: removing, severing or varying such an argument
        cannot move the topic, and it is a Shapley null player).  A removal
        or intrinsic removal cell reads the topic's entry of the
        contributor's removal and severing stores, and raises the error an
        entry holds, the severed graph's first."""
        kind = type(method)
        if kind not in _METHOD_NAMES:
            if callable(method):
                names = self.graph.arguments
                value = method(self.graph, self.semantics, names[topic], names[contributor])
                return value if value is UNDEFINED else float(value)
            raise TypeError(f"unknown contribution method {method!r}")
        reach = self.ancestors(topic)
        if kind is ShapleyExact and (scope := reach.bit_count() + 1) > method.cap:
            name = self.graph.arguments[topic]
            raise TooLarge(f"exact enumeration is capped at {method.cap} arguments, topic {name} with its ancestors has {scope}")
        column = self.column(method, topic)
        skip = reach | 1 << topic
        if not (skip >> contributor) & 1:
            for x in range(self._comp.n):
                if not (skip >> x) & 1:
                    column[x] = 0.0
            return 0.0
        if kind is Gradient:
            column[:] = self._comp.gradient(topic, self.strengths())
            return column[contributor]
        if topic == contributor:
            value = UNDEFINED
        elif kind is Removal or kind is IntrinsicRemoval:
            # the contributor strictly reaches the topic: both stores hold it
            with_x = self.strengths()[topic]
            if kind is IntrinsicRemoval:
                with_x = self._changed(self._severed, contributor, self._comp.tau[contributor])[topic]
            without = self._changed(self._removed, contributor, 0.0, 1 << contributor)[topic]
            for strength in (with_x, without):
                if strength.__class__ is DomainError:
                    raise strength.with_traceback(None)
            value = with_x - without
        elif kind is not ShapleyExact:
            value = _shapley_sampled(self, topic, contributor, method.permutations, method.seed)
        else:
            error = self._walk_errors.get(topic)
            if error is None:
                try:
                    column[:] = _shapley_column(self, topic)
                    return column[contributor]
                except DomainError as exc:
                    error = self._walk_errors[topic] = exc.with_traceback(None)
            raise error.with_traceback(None)
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


def _coalition_table(cache: EvaluationCache, t: int, ancestors: list[int]) -> array:
    """The topic's final strength with each subset of its ancestors removed,
    at the subset's rank (bit j for ``ancestors[j]``): 2^m floats for m
    ancestors, filled by one walk in Gray-code order.  Each step toggles one
    ancestor, writes its entry as +0.0, and re-folds it (unless removed) and
    its descendants among the ancestors and the topic; every other argument
    is irrelevant to the topic's strength.  A removed parent's +0.0 leaves
    every aggregate unchanged bit for bit, so every entry equals a full pass
    of the restricted graph.  A step that fails raises its error: the walk's
    first undefined coalition of the ancestors and the topic."""
    # imported here: a CLI process that fills no exact Shapley column would
    # map the array extension for nothing
    from array import array

    comp = cache._comp
    inside = cache.ancestors(t) | 1 << t
    cones = [(a, *[d for d in cache._descendants_of(a) if (inside >> d) & 1]) for a in ancestors]
    out = list(cache.strengths())
    table = array("d", [out[t]]) * (1 << len(ancestors))
    removed = 0
    for step in range(1, len(table)):
        j = (step & -step).bit_length() - 1
        a = ancestors[j]
        removed ^= 1 << a
        out[a] = 0.0
        comp.refold(out, cones[j], removed)
        table[step ^ (step >> 1)] = out[t]
    return table


def _shapley_column(cache: EvaluationCache, t: int) -> list:
    """The topic's exact Shapley column: undefined on the topic, 0.0 for
    every argument that does not reach it (a null player), and for each of
    its m ancestors its value in the m-player game over the ancestors, which
    null players do not change (Shapley 1953).  Ancestor j's cell is the
    exactly rounded sum of w(|A|) * (table[A] - table[A | 2^j]) over the
    2^(m-1) ranks A of :func:`_coalition_table` without bit j, read through
    memoryview slices: one strided slice per offset below 2^j, or one run of
    2^j ranks per block, whichever are fewer."""
    from array import array

    n = cache._comp.n
    reach = cache.ancestors(t)
    ancestors = [a for a in range(n) if (reach >> a) & 1]
    table = memoryview(_coalition_table(cache, t, ancestors))
    size = len(table)
    # the weight of each rank's coalition size; no cell reads the last rank
    by_size = [*_shapley_weights(len(ancestors)), 0.0]
    weights = memoryview(array("d", map(by_size.__getitem__, map(int.bit_count, range(size)))))
    column = [0.0] * n
    column[t] = UNDEFINED
    for j, x in enumerate(ancestors):
        block = 1 << j
        if 2 * block * block <= size:
            kept = (slice(s, size, 2 * block) for s in range(block))
        else:
            kept = (slice(s, s + block) for s in range(0, size, 2 * block))
        removed = table[block:]  # the same ranks with bit j set
        terms = (map(operator.mul, weights[k], map(operator.sub, table[k], removed[k])) for k in kept)
        column[x] = fsum(chain.from_iterable(terms))
    return column


def _shapley_sampled(cache: EvaluationCache, t: int, x: int, permutations: int, seed: int) -> float:
    """Each permutation shuffles the topic's ancestors, in argument-list
    order, and re-folds its two coalitions on one vector, unmemoized, within
    the ancestors and the topic: all of them but the players before x, held
    at +0.0, then x's cone within them with x at +0.0 too.  Each raises the
    error of the first node that fails there, and no other argument is
    evaluated, so the full graph may be undefined.  x's cone within them
    comes from one forward pass over them: every path from x to one of them
    runs inside them."""
    comp = cache._comp
    scope = cache.ancestors(t) | 1 << t
    nodes = [i for i in comp.order if (scope >> i) & 1]
    reached = 1 << x
    cone = []
    for i in nodes:
        if any((reached >> p) & 1 for p in chain(comp.attackers[i], comp.supporters[i])):
            reached |= 1 << i
            cone.append(i)
    out = [0.0] * comp.n
    rng = SplitMix64(seed)
    players = [i for i in range(comp.n) if (scope >> i) & 1 and i != t]
    total = 0.0
    for _ in range(permutations):
        rng.shuffle(players)
        removed = 0
        for i in players[:players.index(x)]:
            removed |= 1 << i
            out[i] = 0.0
        with_x = comp.refold(out, nodes, removed)[t]
        out[x] = 0.0
        total += with_x - comp.refold(out, cone, removed | 1 << x)[t]
    return total / permutations


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
