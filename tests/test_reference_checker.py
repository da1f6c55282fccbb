"""An independent reference for the nine principle checkers.

Each principle is re-implemented here from its docstring in
``qbag.principles``, with the public graph API only: ``evaluate``,
``restrict``, ``with_initial_strength``, ``reaches`` and ``strictly_closer``.
Every probe, grid point and removal is a rebuilt graph evaluated from
scratch, and no ``EvaluationCache`` is used.  Under the presets,
contribution cells come from ``contribution()`` on fresh caches; they have
their own oracles.  The test compares the verdict and the first witness's
contributor with ``run_check``.

Under a linear influence a rebuilt graph may leave the domain.  A topic's
strength in it is then read from the graph restricted to the topic's
ancestors and the topic (``conftest.strength_within``), and raises only if
that fails; the reference also rebuilds every cell, reads cells and probes
in the order the checker does, and must raise wherever ``run_check`` does.
"""

from __future__ import annotations

import pytest

from qbag import (
    QBAG,
    Aggregation,
    CheckConfig,
    DomainError,
    Gradient,
    GradualSemantics,
    IntrinsicRemoval,
    Linear,
    PrincipleId,
    Removal,
    ShapleyExact,
    ShapleySampled,
    UNDEFINED,
    EvaluationCache,
    contribution,
    evaluate,
    gradient_of_topic,
    reaches,
    remove_incoming,
    restrict,
    run_check,
    strictly_closer,
    with_initial_strength,
)
from qbag.semantics import PRESETS

from conftest import random_graphs, shapley_bruteforce, shapley_sampled_reference, strength_within

CFG = CheckConfig()


def zeros(graph, semantics, topic, contributor):
    return 0.0


def ones(graph, semantics, topic, contributor):
    return 1.0


# the four deterministic methods, and two callables that violate the
# existence principles and directionality, which the four satisfy here
METHODS = (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient(), zeros, ones)
# a probe radius must clear eq_tol by an order of magnitude to be read
HEADROOM = 10.0
RATIO_FLOOR = 1e-3
RATIO_DECAY = 0.5


def sign(value: float, tol: float) -> int:
    return (value > tol) - (value < -tol)


class Instance:
    """One (graph, semantics) pair, with every evaluation the reference
    reads built on demand from a rebuilt graph and kept in plain dicts.  A
    rebuilt graph that fails as a whole is kept instead of its strengths,
    and each topic is read from it by ``strength_within``."""

    def __init__(self, graph, semantics):
        self.graph = graph
        self.semantics = semantics
        self.base = evaluate(graph, semantics)
        self._rebuilt = {}
        self.local_reads = 0  # topics read from a graph that fails as a whole

    def strength(self, key, rebuild, topic: str) -> float:
        """The topic's final strength in the graph ``rebuild()`` builds."""
        if key not in self._rebuilt:
            graph = rebuild()
            try:
                self._rebuilt[key] = evaluate(graph, self.semantics)
            except DomainError:
                self._rebuilt[key] = graph
        hit = self._rebuilt[key]
        if isinstance(hit, QBAG):
            self.local_reads += 1
            return strength_within(hit, self.semantics, hit.arguments, topic)
        return hit[topic]

    def at(self, x: str, value: float, topic: str) -> float:
        """The topic's final strength with x's initial strength set to ``value``."""
        return self.strength(("at", x, value), lambda: with_initial_strength(self.graph, x, value), topic)

    def without(self, x: str, topic: str) -> float:
        kept = [a for a in self.graph.arguments if a != x]
        return self.strength(("without", x), lambda: restrict(self.graph, kept), topic)

    def severed(self, x: str, topic: str) -> float:
        return self.strength(("severed", x), lambda: remove_incoming(self.graph, x), topic)

    def removal_delta(self, x: str, topic: str) -> float:
        return self.base[topic] - self.without(x, topic)


# ------------------------------------------------------ whole-instance rules


def contribution_existence(inst, topic, cells):
    """Violated when the topic moved from its initial strength yet every
    other argument's contribution is zero."""
    delta = inst.base[topic] - inst.graph.initial_strength(topic)
    if abs(delta) <= CFG.eq_tol:
        return False
    others = [cells[x] for x in inst.graph.arguments if x != topic]
    return not any(c is not UNDEFINED and abs(c) > CFG.zero_tol for c in others)


def quant_contribution_existence(inst, topic, cells):
    """Violated when the other arguments' contributions do not sum to the
    topic's strength delta."""
    delta = inst.base[topic] - inst.graph.initial_strength(topic)
    total = 0.0
    for x in inst.graph.arguments:
        if x != topic and cells[x] is not UNDEFINED:
            total += cells[x]
    return abs(total - delta) > CFG.eq_tol


def proximity(inst, topic, cells):
    """Violated when an argument on every path from a farther contributor to
    the topic contributes strictly less in magnitude."""
    others = [a for a in inst.graph.arguments if a != topic]
    for near in others:
        for far in others:
            if near == far or not strictly_closer(inst.graph, near, far, topic):
                continue
            if cells[near] is UNDEFINED or cells[far] is UNDEFINED:
                continue
            if abs(cells[near]) + CFG.eq_tol < abs(cells[far]):
                return True
    return False


# ---------------------------------------------------- per-contributor tests


def directionality(inst, topic, x, c):
    """Violated when an argument with no path to the topic contributes."""
    return not reaches(inst.graph, x, topic) and abs(c) > CFG.zero_tol


def counterfactuality(inst, topic, x, c):
    """Violated when the contribution's sign disagrees with the sign of the
    change that removing the contributor causes."""
    return sign(c, CFG.zero_tol) != sign(inst.removal_delta(x, topic), CFG.eq_tol)


def quant_counterfactuality(inst, topic, x, c):
    """Violated when the contribution differs from the removal change."""
    return abs(c - inst.removal_delta(x, topic)) > CFG.eq_tol


def local_faithfulness(inst, topic, x, c):
    """Violated when a nonzero contribution fails, at every probed radius, to
    move the topic in the direction its sign promises; probes outside
    [0, 1] and radii too small to resolve are skipped."""
    s = sign(c, CFG.zero_tol)
    if s == 0:
        return False
    tau = inst.graph.initial_strength(x)
    probed = False
    for radius in CFG.eps_schedule:
        if abs(c) * radius <= HEADROOM * CFG.eq_tol:
            continue
        ok, any_direction = True, False
        for direction in (1.0, -1.0):
            value = tau + direction * radius
            if not 0.0 <= value <= 1.0:
                continue
            any_direction = True
            response = inst.at(x, value, topic) - inst.base[topic]
            if (s > 0) == (direction > 0):
                ok = ok and response > CFG.eq_tol
            else:
                ok = ok and response < -CFG.eq_tol
        if any_direction:
            probed = True
            if ok:
                return False
    return probed


def quant_local_faithfulness(inst, topic, x, c):
    """Violated when, in one direction, the linearisation error ratio
    |e(eps) / eps| ends above 1e-3 and some refinement of the schedule
    fails to at least halve it."""
    tau = inst.graph.initial_strength(x)
    base = inst.base[topic]
    for direction in (1.0, -1.0):
        steps = [direction * r for r in CFG.eps_schedule if 0.0 <= tau + direction * r <= 1.0]
        if not steps:
            continue
        ratios = [abs((inst.at(x, tau + eps, topic) - (base + eps * c)) / eps) for eps in steps]
        if ratios[-1] <= RATIO_FLOOR:
            continue
        if any(not later <= RATIO_DECAY * earlier + 1e-15 for earlier, later in zip(ratios, ratios[1:])):
            return True
    return False


def strong_faithfulness(inst, topic, x, c):
    """Violated when a grid point of x's initial strength over [0, 1]
    contradicts the sign: a positive contribution promises a strictly lower
    topic strength below tau and a strictly higher one above, a negative one
    the reverse, and a zero one no change; a point within 1e-12 of tau is
    skipped, and a nan difference contradicts nothing.  The whole grid is
    read first: any undefined point fails the check."""
    s = sign(c, CFG.zero_tol)
    tau = inst.graph.initial_strength(x)
    last = CFG.grid_points - 1
    strengths = [inst.at(x, j / last, topic) for j in range(CFG.grid_points)]
    for j, strength in enumerate(strengths):
        value = j / last
        if abs(value - tau) <= 1e-12:
            continue
        diff = strength - inst.base[topic]
        rises = 1 if value > tau else -1  # the direction tau moves in
        if s == 0:
            if diff > CFG.eq_tol or diff < -CFG.eq_tol:
                return True
        elif s == rises:
            if diff <= CFG.eq_tol:
                return True
        elif diff >= -CFG.eq_tol:
            return True
    return False


RULES = {
    PrincipleId.CONTRIBUTION_EXISTENCE: contribution_existence,
    PrincipleId.QUANT_CONTRIBUTION_EXISTENCE: quant_contribution_existence,
    PrincipleId.PROXIMITY: proximity,
}
TESTS = {
    PrincipleId.DIRECTIONALITY: directionality,
    PrincipleId.STRONG_FAITHFULNESS: strong_faithfulness,
    PrincipleId.LOCAL_FAITHFULNESS: local_faithfulness,
    PrincipleId.QUANT_LOCAL_FAITHFULNESS: quant_local_faithfulness,
    PrincipleId.COUNTERFACTUALITY: counterfactuality,
    PrincipleId.QUANT_COUNTERFACTUALITY: quant_counterfactuality,
}


def reference(inst, principle, topic, cells):
    """(violated, the first witness's contributor or None).  Directionality
    visits, and reads the cells of, only the arguments that do not reach
    the topic."""
    if principle in RULES:
        return RULES[principle](inst, topic, cells), None
    for x in inst.graph.arguments:
        if x == topic or (principle is PrincipleId.DIRECTIONALITY and reaches(inst.graph, x, topic)):
            continue
        if cells[x] is not UNDEFINED and TESTS[principle](inst, topic, x, cells[x]):
            return True, x
    return False, None


def test_reference_checker_agrees_with_run_check():
    instances = 0
    violations = dict.fromkeys(PrincipleId, 0)
    disagreements = []
    for g in random_graphs(seed=7, count=12, max_args=6):
        for semantics in PRESETS.values():
            inst = Instance(g, semantics)
            cache = EvaluationCache(g, semantics)
            for method in METHODS:
                cells = {
                    t: {x: contribution(g, semantics, method, t, x) for x in g.arguments} for t in g.arguments
                }
                for principle in PrincipleId:
                    for topic in g.arguments:
                        report = run_check(g, semantics, method, principle, topic, cache=cache)
                        got = (not report.satisfied, report.witness.get("contributor"))
                        instances += 1
                        violations[principle] += got[0]
                        want = reference(inst, principle, topic, cells[topic])
                        if got != want:
                            disagreements.append((g, semantics.label(), report.method, principle, topic, got, want))
    assert instances == 12_960 and all(violations.values()), (instances, violations)
    assert not disagreements, disagreements[:3]


LINEAR = tuple(GradualSemantics(kind, Linear(k)) for kind in Aggregation for k in (0.5, 1.0, 1.5))
LINEAR_METHODS = (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient(), ShapleySampled(20, 1), zeros, ones)


def reference_cell(inst, method, topic, x):
    """One contribution cell from rebuilt graphs: Shapley cells by the
    coalition sums of ``conftest``, 0.0 for an argument that does not reach
    the topic (a null player); raises DomainError where it is undefined."""
    g, semantics = inst.graph, inst.semantics
    if callable(method):
        return method(g, semantics, topic, x)
    if isinstance(method, Gradient):
        return gradient_of_topic(g, semantics, topic)[x]
    if x == topic:
        return UNDEFINED
    if isinstance(method, Removal):
        return inst.removal_delta(x, topic)
    if isinstance(method, IntrinsicRemoval):
        return inst.severed(x, topic) - inst.without(x, topic)
    if not reaches(g, x, topic):
        return 0.0
    if isinstance(method, ShapleyExact):
        return shapley_bruteforce(g, semantics, topic, x)
    return shapley_sampled_reference(g, semantics, topic, x, method.permutations, method.seed)


class LazyCells(dict):
    """The reference cells of one (method, topic), each computed when first
    read; a cell that raises raises at every read."""

    def __init__(self, inst, method, topic):
        super().__init__()
        self.args = inst, method, topic

    def __missing__(self, x):
        try:
            self[x] = reference_cell(*self.args, x)
        except DomainError as exc:
            self[x] = exc
        return self[x]

    def __getitem__(self, x):
        value = super().__getitem__(x)
        if isinstance(value, DomainError):
            raise value
        return value


def outcome(call):
    """``call()``, or the DomainError class it raises."""
    try:
        return call()
    except DomainError:
        return DomainError


def test_reference_checker_agrees_under_the_definedness_rule():
    # sum, product and top with linear(0.5/1.0/1.5): every cell and every
    # check raises exactly where the reference does, and agrees with it
    # elsewhere; a graph undefined as a whole fails every check
    counts = dict.fromkeys(("graph undefined", "cells raised", "checks raised", "reports", "local reads"), 0)
    disagreements = []
    for g in random_graphs(seed=2, count=10, max_args=5, edge_prob=0.7):
        for semantics in LINEAR:
            cache = EvaluationCache(g, semantics)
            try:
                inst = Instance(g, semantics)
            except DomainError:
                with pytest.raises(DomainError):
                    run_check(g, semantics, Gradient(), PrincipleId.DIRECTIONALITY, g.arguments[0], cache=cache)
                counts["graph undefined"] += 1
                continue
            for method in LINEAR_METHODS:
                for topic in g.arguments:
                    cells = LazyCells(inst, method, topic)
                    for x in g.arguments:
                        got = outcome(lambda: contribution(g, semantics, method, topic, x))
                        want = outcome(lambda: cells[x])
                        counts["cells raised"] += want is DomainError
                        close = isinstance(method, ShapleyExact) and got is not DomainError and want is not DomainError
                        if not (got is want or got == want or (close and abs(got - want) <= 1e-12)):
                            disagreements.append((g, semantics, method, topic, x, got, want))
                    for principle in PrincipleId:
                        report = outcome(lambda: run_check(g, semantics, method, principle, topic, cache=cache))
                        got = report if report is DomainError else (not report.satisfied, report.witness.get("contributor"))
                        want = outcome(lambda: reference(inst, principle, topic, cells))
                        counts["checks raised" if want is DomainError else "reports"] += 1
                        if got != want:
                            disagreements.append((g, semantics, method, principle, topic, got, want))
            counts["local reads"] += inst.local_reads
    assert not disagreements, disagreements[:3]
    assert all(counts.values()), counts
