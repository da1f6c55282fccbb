"""Modular gradual semantics: final strengths and exact partial derivatives.

A semantics is an (aggregation, influence) pair.  The aggregation folds the
final strengths of an argument's attackers and supporters into one signal;
the influence maps (initial strength, signal) to the final strength.  On an
acyclic graph a single pass in topological order fixes every value, and the
same pass structure yields exact partial derivatives of any argument's final
strength with respect to every initial strength by reverse accumulation.

Aggregations (attacker strengths ``A``, supporter strengths ``S``):

    sum       sum(S) - sum(A)
    product   prod(1 - a for a in A) - prod(1 - s for s in S)
    top       max({0} | S) - max({0} | A)

Each aggregation is written once, as a (fold, backprop, column fold) triple
in ``_AGGREGATIONS``: the fold computes the aggregate over an argument's
parents, the backprop spreads an adjoint over its parents, and the column
fold computes the aggregate at many points at once, by one pass per parent
in the fold's parent order, so each point's value is the fold's bit for bit.
The forward pass, the reverse pass, the sweeps and :func:`aggregate` all use
that one table, just as every use of an influence goes through the one
(value, d/d-aggregate, d/d-initial) triple of ``_influence_functions``; a
sweep maps the scalar value over each point's aggregate.

Influences (initial strength ``w``, aggregate ``s``):

    linear(k)      w - (w/k) * max(0, -s) + ((1-w)/k) * max(0, s),  |s| <= k
    euler-based    1 - (1 - w^2) / (1 + w * exp(s))
    p-max(p, k)    w - w * h(-s/k) + (1 - w) * h(s/k),  h(x) = max(0,x)^p / (1 + max(0,x)^p)

Where ``exp(s)`` or ``x**p`` leaves the float range, or ``s/k`` overflows to
inf, an influence returns its limit as the aggregate grows instead of
raising ``OverflowError`` or giving ``nan``.

Non-smooth points get a fixed one-sided convention so the derivative map is
total: at aggregate 0, linear and p-max use the positive branch (slope
``(1-w)/k`` for linear and for p = 1; slope 0 for p >= 2, where the function
is continuously differentiable anyway); for the top aggregation the
derivative of a side flows through its unique argmax parent, while an exact
tie between parents contributes no derivative at all.  The tie rule keeps
gradients of symmetric attackers/supporters at exactly zero; the unique
argmax carries the derivative even at strength 0, because strengths are
nonnegative and the 0 floor therefore never overtakes it in a feasible
direction.  ``kink_margin`` reports how far a graph's operating point is
from any of these non-smooth configurations so callers can tell when the
convention is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import add, mul, sub
from typing import Callable, Mapping, Sequence, Union

from .errors import DomainError, UnknownArgument
from .graph import QBAG, topological_order

_DOMAIN_SLACK = 1e-12


class Aggregation(Enum):
    SUM = "sum"
    PRODUCT = "product"
    TOP = "top"


@dataclass(frozen=True)
class Linear:
    """Piecewise-linear influence over aggregates in [-k, k]."""

    k: float = 1.0

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("linear influence needs k > 0")


@dataclass(frozen=True)
class EulerBased:
    """Smooth exponential influence with range [w^2, 1]."""


@dataclass(frozen=True)
class PMax:
    """Saturating polynomial influence; p = 2, k = 1 is the quadratic energy rule."""

    p: int
    k: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ValueError("p-max influence needs integer p >= 1")
        if not self.k > 0:
            raise ValueError("p-max influence needs k > 0")


Influence = Union[Linear, EulerBased, PMax]


@dataclass(frozen=True)
class GradualSemantics:
    aggregation: Aggregation
    influence: Influence
    name: str | None = None

    def label(self) -> str:
        if self.name:
            return self.name
        return f"{self.aggregation.value}+{type(self.influence).__name__.lower()}"


QE = GradualSemantics(Aggregation.SUM, PMax(2, 1.0), "QE")
DFQUAD = GradualSemantics(Aggregation.PRODUCT, Linear(1.0), "DFQuAD")
SD_DFQUAD = GradualSemantics(Aggregation.PRODUCT, PMax(1, 1.0), "SD-DFQuAD")
EB = GradualSemantics(Aggregation.SUM, EulerBased(), "EB")
EBT = GradualSemantics(Aggregation.TOP, EulerBased(), "EBT")

PRESETS: dict[str, GradualSemantics] = {
    "qe": QE,
    "dfquad": DFQUAD,
    "sd-dfquad": SD_DFQUAD,
    "eb": EB,
    "ebt": EBT,
}


def semantics_by_name(name: str) -> GradualSemantics:
    """Look up one of the five presets, case-insensitively."""
    try:
        return PRESETS[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown semantics {name!r}; expected one of {', '.join(sorted(PRESETS))}"
        ) from None


@dataclass(frozen=True)
class StrengthAssignment:
    """Final strengths plus the topological order they were computed in."""

    sigma: Mapping[str, float]
    order: tuple[str, ...]

    def __getitem__(self, name: str) -> float:
        try:
            return self.sigma[name]
        except KeyError:
            raise UnknownArgument(f"unknown argument {name!r}") from None


@dataclass(frozen=True)
class GradientVector:
    """Partial derivatives of one argument's final strength w.r.t. every
    initial strength, evaluated at the graph's initial strengths."""

    topic: str
    partials: Mapping[str, float]

    def __getitem__(self, name: str) -> float:
        try:
            return self.partials[name]
        except KeyError:
            raise UnknownArgument(f"unknown argument {name!r}") from None


# ----------------------------------------------------------- scalar functions


def aggregate(kind: Aggregation, att_strengths: Sequence[float], supp_strengths: Sequence[float]) -> float:
    """Fold attacker and supporter strengths into one adjustment signal."""
    values = [*att_strengths, *supp_strengths]
    split = len(att_strengths)
    return _AGGREGATIONS[kind][0](values, range(split), range(split, len(values)))


def influence(kind: Influence, initial: float, signal: float) -> float:
    """Map (initial strength, aggregate) to a final strength in [0, 1]."""
    return _influence_functions(kind)[0](initial, signal)


def _influence_functions(
    kind: Influence,
) -> tuple[Callable[[float, float], float], Callable[[float, float], float], Callable[[float, float], float]]:
    """(value, d/d-aggregate, d/d-initial) closures for one influence."""
    if isinstance(kind, Linear):
        k = kind.k

        def value(w: float, s: float) -> float:
            if abs(s) > k + _DOMAIN_SLACK:
                raise DomainError(f"linear influence domain is [-{k}, {k}], got aggregate {s!r}")
            r = w + (1.0 - w) * s / k if s >= 0.0 else w + w * s / k
            return 0.0 if r < 0.0 else 1.0 if r > 1.0 else r

        def d_signal(w: float, s: float) -> float:
            return (1.0 - w) / k if s >= 0.0 else w / k

        def d_initial(w: float, s: float) -> float:
            return 1.0 - s / k if s >= 0.0 else 1.0 + s / k

        return value, d_signal, d_initial

    if isinstance(kind, EulerBased):
        # Past s ~ 709.78 exp(s) overflows; there the limits as s -> inf take
        # over: the value tends to 1 (to 0, its constant, when w = 0), the
        # signal derivative to 0, and the initial-strength derivative to 0
        # (to exp(s), i.e. inf, when w = 0).  A squared denominator that
        # overflows likewise leaves a derivative of 0.

        def value(w: float, s: float) -> float:
            try:
                den = 1.0 + w * math.exp(s)
            except OverflowError:
                return 1.0 if w > 0.0 else 0.0
            r = 1.0 - (1.0 - w * w) / den
            return 0.0 if r < 0.0 else 1.0 if r > 1.0 else r

        def d_signal(w: float, s: float) -> float:
            try:
                e = math.exp(s)
            except OverflowError:
                return 0.0
            den = 1.0 + w * e
            den2 = den * den
            return 0.0 if den2 == math.inf else (1.0 - w * w) * w * e / den2

        def d_initial(w: float, s: float) -> float:
            try:
                e = math.exp(s)
            except OverflowError:
                return 0.0 if w > 0.0 else math.inf
            den = 1.0 + w * e
            den2 = den * den
            return 0.0 if den2 == math.inf else (2.0 * w * den + (1.0 - w * w) * e) / den2

        return value, d_signal, d_initial

    if isinstance(kind, PMax):
        p, k = kind.p, kind.k

        # Where x**p overflows or x is inf (s / k overflows for a tiny k), h
        # takes its limit 1 and h' its limit 0; a squared denominator that
        # overflows likewise leaves h' = 0.

        def h(x: float) -> float:
            try:
                xp = x**p
            except OverflowError:
                return 1.0
            return 1.0 if xp == math.inf else xp / (1.0 + xp)

        def h_prime(x: float) -> float:
            # one-sided derivative at 0+: 1 for p == 1, 0 for p >= 2
            if x == 0.0:
                return 1.0 if p == 1 else 0.0
            try:
                xp = x**p
            except OverflowError:
                return 0.0
            den = (1.0 + xp) * (1.0 + xp)
            return 0.0 if den == math.inf else p * x ** (p - 1) / den

        def value(w: float, s: float) -> float:
            x = s / k
            if x > 0.0:
                r = w + (1.0 - w) * h(x)
            elif x < 0.0:
                r = w - w * h(-x)
            else:
                r = w
            return 0.0 if r < 0.0 else 1.0 if r > 1.0 else r

        def d_signal(w: float, s: float) -> float:
            if s >= 0.0:
                return (1.0 - w) * h_prime(s / k) / k
            return w * h_prime(-s / k) / k

        def d_initial(w: float, s: float) -> float:
            if s >= 0.0:
                return 1.0 - h(s / k)
            return 1.0 - h(-s / k)

        return value, d_signal, d_initial

    raise TypeError(f"unknown influence {kind!r}")


# ---------------------------------------------------------------- aggregations
#
# fold(out, atts, sups): the aggregate over every parent.  A parent of
# strength +0.0 leaves it unchanged bit for bit (s + 0.0, s - 0.0,
# pa * (1 - 0.0), and a max that starts at 0.0), which is how a removed
# argument is read; only a node with no parent left needs its own rule.
# backprop(adjoint, out, atts, sups, scale): adds scale * d aggregate / d out[p]
# to every parent's adjoint.
# fold_column(out, columns, atts, sups, points): the aggregate over every
# parent of a node with at least one, as a list of one value per point: a
# parent with an entry in ``columns`` has one strength per point there, any
# other keeps ``out[p]``.  Each parent is one pass over the points, in the
# fold's order and with its operations, so each point's value is the fold's.


def _fold_sum(out, atts, sups):
    s = 0.0
    for p in sups:
        s += out[p]
    for p in atts:
        s -= out[p]
    return s


def _fold_sum_column(out, columns, atts, sups, points):
    s = [0.0] * points
    for p in sups:
        s = list(map(add, s, columns[p] if p in columns else repeat(out[p])))
    for p in atts:
        s = list(map(sub, s, columns[p] if p in columns else repeat(out[p])))
    return s


def _backprop_sum(adjoint, out, atts, sups, scale):
    for p in sups:
        adjoint[p] += scale
    for p in atts:
        adjoint[p] -= scale


def _fold_product(out, atts, sups):
    pa = 1.0
    ps = 1.0
    for p in atts:
        pa *= 1.0 - out[p]
    for p in sups:
        ps *= 1.0 - out[p]
    return pa - ps


def _fold_product_column(out, columns, atts, sups, points):
    pa = [1.0] * points
    ps = [1.0] * points
    for p in atts:
        pa = list(map(mul, pa, map(sub, repeat(1.0), columns[p]) if p in columns else repeat(1.0 - out[p])))
    for p in sups:
        ps = list(map(mul, ps, map(sub, repeat(1.0), columns[p]) if p in columns else repeat(1.0 - out[p])))
    return list(map(sub, pa, ps))


def _backprop_product(adjoint, out, atts, sups, scale):
    for parents, sign in ((atts, -1.0), (sups, 1.0)):
        for p in parents:
            rest = 1.0
            for q in parents:
                if q != p:
                    rest *= 1.0 - out[q]
            adjoint[p] += sign * scale * rest


def _fold_top(out, atts, sups):
    ms = 0.0
    ma = 0.0
    for p in sups:
        if out[p] > ms:
            ms = out[p]
    for p in atts:
        if out[p] > ma:
            ma = out[p]
    return ms - ma


def _fold_top_column(out, columns, atts, sups, points):
    # the scalar fold's update, m = v if v > m, at every point
    ms = [0.0] * points
    ma = [0.0] * points
    for p in sups:
        ms = [v if v > m else m for m, v in zip(ms, columns[p] if p in columns else repeat(out[p]))]
    for p in atts:
        ma = [v if v > m else m for m, v in zip(ma, columns[p] if p in columns else repeat(out[p]))]
    return list(map(sub, ms, ma))


def _backprop_top(adjoint, out, atts, sups, scale):
    for parents, sign in ((sups, 1.0), (atts, -1.0)):
        if not parents:
            continue
        best = max(out[p] for p in parents)
        winners = [p for p in parents if out[p] == best]
        if len(winners) == 1:
            # A unique argmax parent carries the derivative even at strength
            # 0: strengths are nonnegative, so the 0 floor never overtakes it
            # in a feasible direction.
            adjoint[winners[0]] += sign * scale
        # exact tie between parents: no derivative


_AGGREGATIONS = {
    Aggregation.SUM: (_fold_sum, _backprop_sum, _fold_sum_column),
    Aggregation.PRODUCT: (_fold_product, _backprop_product, _fold_product_column),
    Aggregation.TOP: (_fold_top, _backprop_top, _fold_top_column),
}


# ------------------------------------------------------------- the evaluator


class _Compiled:
    """Index-based evaluator bound to one (graph, semantics) pair.

    ``refold`` is the one forward loop: ``strengths`` runs it over every
    node, and removing, severing or perturbing one argument runs it over
    that argument's descendants only, on a copy of the full-graph vector.
    A removed argument holds +0.0, which no fold can tell from an absent
    parent, so removing any set of arguments is a write per argument.
    ``gradient`` reverse-accumulates over a finished full-graph vector.
    Together they cover every restriction/modification the contribution
    and principle machinery needs without rebuilding graphs.
    """

    __slots__ = (
        "graph", "n", "order", "attackers", "supporters", "tau", "fold", "backprop", "fold_column",
        "value", "d_signal", "d_initial",
    )

    def __init__(self, graph: QBAG, semantics: GradualSemantics):
        self.graph = graph
        self.n = len(graph)
        self.order = graph._topo
        self.attackers = graph._attackers
        self.supporters = graph._supporters
        self.tau = graph._tau
        self.fold, self.backprop, self.fold_column = _AGGREGATIONS[semantics.aggregation]
        self.value, self.d_signal, self.d_initial = _influence_functions(semantics.influence)

    def refold(self, out: list[float], nodes: Sequence[int], removed: int = 0) -> list[float]:
        """Re-fold ``nodes`` (in topological order) on ``out`` in place, and
        return ``out``.  A node in the bitmask ``removed`` is skipped and
        must already hold +0.0; a node none of whose parents is left keeps
        its initial strength.  Every other entry of ``out`` is read as
        final."""
        taus = self.tau
        fold = self.fold
        value = self.value
        attackers = self.attackers
        supporters = self.supporters
        for i in nodes:
            if (removed >> i) & 1:
                continue
            atts, sups = attackers[i], supporters[i]
            for p in atts + sups:
                if not (removed >> p) & 1:
                    out[i] = value(taus[i], fold(out, atts, sups))
                    break
            else:
                out[i] = taus[i]
        return out

    def strengths(self) -> list[float]:
        """The full graph's final strengths."""
        return self.refold([0.0] * self.n, self.order)

    def gradient(self, topic: int, out: Sequence[float]) -> list[float]:
        """Reverse accumulation of d sigma(topic) / d tau(x) for every x over
        the full-graph final strengths ``out``.  Each node's aggregate is
        re-folded from ``out``; its parents' values are final there, so it
        equals the forward pass' aggregate bit for bit."""
        adjoint = [0.0] * self.n
        adjoint[topic] = 1.0
        partials = [0.0] * self.n
        topo = self.order
        for pos in range(self.graph._topo_pos[topic], -1, -1):
            i = topo[pos]
            a_i = adjoint[i]
            if a_i == 0.0:
                continue
            atts, sups = self.attackers[i], self.supporters[i]
            if not (atts or sups):
                partials[i] = a_i
                continue
            signal = self.fold(out, atts, sups)
            partials[i] = a_i * self.d_initial(self.tau[i], signal)
            scale = a_i * self.d_signal(self.tau[i], signal)
            if scale != 0.0:
                self.backprop(adjoint, out, atts, sups, scale)
        return partials


def evaluate(graph: QBAG, semantics: GradualSemantics) -> StrengthAssignment:
    """Final strengths by one forward pass in topological order.  Arguments
    without attackers or supporters keep their initial strength."""
    values = _Compiled(graph, semantics).strengths()
    order = tuple(topological_order(graph))
    return StrengthAssignment({name: values[i] for i, name in enumerate(graph.arguments)}, order)


def gradient_of_topic(graph: QBAG, semantics: GradualSemantics, topic: str) -> GradientVector:
    """Exact partials of the topic's final strength, including the partial
    with respect to the topic's own initial strength.  Arguments with no
    directed path to the topic get an exact zero."""
    t = graph.index_of(topic)
    comp = _Compiled(graph, semantics)
    partials = comp.gradient(t, comp.strengths())
    return GradientVector(topic, {name: partials[i] for i, name in enumerate(graph.arguments)})


def kink_margin(graph: QBAG, semantics: GradualSemantics) -> float:
    """Distance from the graph's operating point to the nearest non-smooth
    configuration of the semantics; ``inf`` when the semantics is smooth at
    every node.  Checked configurations: aggregate 0 under a linear or 1-max
    influence, and near-ties (including with the 0 floor) between a side's
    candidates under the top aggregation."""
    comp = _Compiled(graph, semantics)
    out = comp.strengths()
    margin = math.inf
    infl = semantics.influence
    kinked_influence = isinstance(infl, Linear) or (isinstance(infl, PMax) and infl.p == 1)
    for i in range(comp.n):
        if not (comp.attackers[i] or comp.supporters[i]):
            continue
        signal = comp.fold(out, comp.attackers[i], comp.supporters[i])
        if kinked_influence:
            margin = min(margin, abs(signal))
        if semantics.aggregation is Aggregation.TOP:
            for parents in (comp.supporters[i], comp.attackers[i]):
                if not parents:
                    continue
                values = sorted((out[p] for p in parents), reverse=True)
                runner_up = values[1] if len(values) > 1 else 0.0
                gap = values[0] - runner_up if values[0] > 0.0 else 0.0
                margin = min(margin, gap)
    return margin
