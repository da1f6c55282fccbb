"""An independent reference for the nine principle checkers.

Each principle is re-implemented here from its docstring in
``qbag.principles``, with the public graph API only: ``evaluate``,
``restrict``, ``with_initial_strength``, ``reaches`` and ``strictly_closer``.
Every probe, grid point and removal is a rebuilt graph evaluated from
scratch, and no ``EvaluationCache`` is used.  Contribution cells come from
``contribution()`` on fresh caches; they have their own oracles.  The test
compares the verdict and the first witness's contributor with ``run_check``.
"""

from __future__ import annotations

from qbag import (
    CheckConfig,
    Gradient,
    IntrinsicRemoval,
    PrincipleId,
    Removal,
    ShapleyExact,
    UNDEFINED,
    EvaluationCache,
    contribution,
    evaluate,
    reaches,
    restrict,
    run_check,
    strictly_closer,
    with_initial_strength,
)
from qbag.semantics import PRESETS

from conftest import random_graphs

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
    reads built on demand from a rebuilt graph and kept in plain dicts."""

    def __init__(self, graph, semantics):
        self.graph = graph
        self.semantics = semantics
        self.base = evaluate(graph, semantics)
        self._at = {}
        self._without = {}

    def at(self, x: str, value: float) -> dict:
        """Final strengths with x's initial strength set to ``value``."""
        key = (x, value)
        if key not in self._at:
            self._at[key] = evaluate(with_initial_strength(self.graph, x, value), self.semantics)
        return self._at[key]

    def removal_delta(self, x: str, topic: str) -> float:
        if x not in self._without:
            kept = [a for a in self.graph.arguments if a != x]
            self._without[x] = evaluate(restrict(self.graph, kept), self.semantics)
        return self.base[topic] - self._without[x][topic]


# ------------------------------------------------------ whole-instance rules


def contribution_existence(inst, topic, cells):
    """Violated when the topic moved from its initial strength yet every
    other argument's contribution is zero."""
    delta = inst.base[topic] - inst.graph.initial_strength(topic)
    if abs(delta) <= CFG.eq_tol:
        return False
    return not any(c is not UNDEFINED and abs(c) > CFG.zero_tol for x, c in cells.items() if x != topic)


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
            response = inst.at(x, value)[topic] - inst.base[topic]
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
        ratios = [abs((inst.at(x, tau + eps)[topic] - (base + eps * c)) / eps) for eps in steps]
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
    skipped, and a nan difference contradicts nothing."""
    s = sign(c, CFG.zero_tol)
    tau = inst.graph.initial_strength(x)
    last = CFG.grid_points - 1
    for j in range(CFG.grid_points):
        value = j / last
        if abs(value - tau) <= 1e-12:
            continue
        diff = inst.at(x, value)[topic] - inst.base[topic]
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
    """(violated, the first witness's contributor or None)."""
    if principle in RULES:
        return RULES[principle](inst, topic, cells), None
    for x in inst.graph.arguments:
        if x != topic and cells[x] is not UNDEFINED and TESTS[principle](inst, topic, x, cells[x]):
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
