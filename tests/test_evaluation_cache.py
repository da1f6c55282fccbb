"""The work one EvaluationCache shares across checks is invisible in results.

Every memoized or partially re-evaluated value is compared with the plain
computation it replaces: fresh caches, full forward passes, and the
pairwise ``strictly_closer`` definition.
"""

import pytest

from qbag import (
    QE,
    CheckConfig,
    EvaluationCache,
    Gradient,
    IntrinsicRemoval,
    PrincipleId,
    Removal,
    ShapleyExact,
    ShapleySampled,
    TooLarge,
    contrib_shapley_exact,
    contribution,
    reaches,
    run_check,
    strictly_closer,
)
from qbag.graph import strictly_closer_pairs
from qbag.semantics import PRESETS, _Compiled

from conftest import random_graphs

METHODS = (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient())
CONFIGS = (
    None,
    CheckConfig(eq_tol=1e-4),
    CheckConfig(zero_tol=1e-6, eps_schedule=(1e-1, 1e-2), grid_points=11),
)


def linked_pair(seed):
    """A fuzz graph with a (topic, contributor) pair joined by a path."""
    for g in random_graphs(seed=seed, count=50, max_args=6):
        for topic in g.arguments:
            for contributor in g.arguments:
                if reaches(g, contributor, topic):
                    return g, topic, contributor
    raise AssertionError("no linked pair")


def test_shared_cache_reports_equal_fresh_cache_reports():
    # One cache serves every principle x method x topic and three check
    # configurations in turn, so a memo keyed too coarsely would leak
    # results from one configuration into the other.
    for g in random_graphs(seed=4242, count=6, max_args=6):
        for semantics in PRESETS.values():
            shared = EvaluationCache(g, semantics)
            for principle in PrincipleId:
                for method in METHODS:
                    for topic in g.arguments:
                        for cfg in CONFIGS:
                            got = run_check(g, semantics, method, principle, topic, cfg, cache=shared)
                            want = run_check(g, semantics, method, principle, topic, cfg)
                            assert got == want, (g, semantics.label(), principle, method, topic, cfg)


def test_closer_pairs_equal_the_pairwise_definition():
    for g in random_graphs(seed=99, count=60, max_args=8):
        names = g.arguments
        for t, topic in enumerate(names):
            brute = [
                (i, j)
                for i, nearer in enumerate(names)
                for j, farther in enumerate(names)
                if len({nearer, farther, topic}) == 3 and strictly_closer(g, nearer, farther, topic)
            ]
            assert strictly_closer_pairs(g, t) == brute


def test_cone_reevaluation_is_bit_identical_to_a_full_pass():
    for g in random_graphs(seed=7, count=25, max_args=8):
        for semantics in PRESETS.values():
            comp = _Compiled(g, semantics)
            cache = EvaluationCache(g, semantics)
            for x in range(len(g)):
                assert cache.strengths_isolated(x) == tuple(comp.strengths(isolate=x))
                for value in (0.0, 0.3, g._tau[x], 1.0):
                    tau = list(g._tau)
                    tau[x] = value
                    assert cache.strengths_perturbed(x, value) == tuple(comp.strengths(tau=tau))
                for t in range(len(g)):
                    full = []
                    for j in range(11):
                        tau = list(g._tau)
                        tau[x] = j / 10
                        full.append(comp.strengths(tau=tau)[t])
                    assert cache.sweep_column(x, t, 11) == tuple(full)


def test_memoized_shapley_cell_still_enforces_the_cap():
    g, topic, contributor = linked_pair(5)
    cache = EvaluationCache(g, QE)
    value = contrib_shapley_exact(g, QE, topic, contributor, cache=cache)
    assert contrib_shapley_exact(g, QE, topic, contributor, cache=cache) == value
    small = len(g) - 1
    with pytest.raises(TooLarge):
        contrib_shapley_exact(g, QE, topic, contributor, exact_cap=small, cache=cache)
    with pytest.raises(TooLarge):
        contribution(g, QE, ShapleyExact(), topic, contributor, exact_cap=small, cache=cache)
    with pytest.raises(TooLarge):
        run_check(g, QE, ShapleyExact(), PrincipleId.DIRECTIONALITY, topic, cache=cache, exact_cap=small)


def test_callable_methods_are_never_memoized():
    g = random_graphs(seed=3, count=1, max_args=4)[0]
    cache = EvaluationCache(g, QE)
    calls = []

    def counting(graph, semantics, topic, contributor):
        calls.append((topic, contributor))
        return float(len(calls))

    first = contribution(g, QE, counting, g.arguments[0], g.arguments[1], cache=cache)
    second = contribution(g, QE, counting, g.arguments[0], g.arguments[1], cache=cache)
    assert (first, second) == (1.0, 2.0)
    run_check(g, QE, counting, PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, g.arguments[0], cache=cache)
    run_check(g, QE, counting, PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, g.arguments[0], cache=cache)
    assert len(calls) == 2 + 2 * (len(g) - 1)


def test_sampled_cells_are_memoized_per_seed():
    g, topic, contributor = linked_pair(11)
    cache = EvaluationCache(g, QE)
    one = contribution(g, QE, ShapleySampled(50, 1), topic, contributor, cache=cache)
    other = contribution(g, QE, ShapleySampled(50, 2), topic, contributor, cache=cache)
    assert one != other
    assert one == contribution(g, QE, ShapleySampled(50, 1), topic, contributor)
    assert other == contribution(g, QE, ShapleySampled(50, 2), topic, contributor)
