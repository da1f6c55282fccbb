"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the optimized code paths they check:
Shapley values are recomputed from the coalition-sum definition with
factorial weights over explicitly restricted graphs, and gradients are
checked against finite differences of the plain evaluator.  The exact
Shapley cells are also pinned bit for bit to the submask enumeration they
replaced, kept here verbatim.
"""

from __future__ import annotations

import itertools
import math

import pytest

from qbag import QBAG, FuzzConfig, evaluate, random_qbag, restrict, with_initial_strength
from qbag.contributions import _shapley_weights
from qbag.semantics import PRESETS


@pytest.fixture(scope="session")
def presets():
    return dict(PRESETS)


def shapley_bruteforce(graph: QBAG, semantics, topic: str, contributor: str) -> float:
    """Direct coalition sum with factorial weights; restriction and
    evaluation go through the public graph API only."""
    players = [p for p in graph.arguments if p != topic]
    others = [p for p in players if p != contributor]
    n = len(players)
    total = 0.0
    for size in range(len(others) + 1):
        weight = math.factorial(size) * math.factorial(n - size - 1) / math.factorial(n)
        for removed in itertools.combinations(others, size):
            kept = [a for a in graph.arguments if a not in removed]
            with_x = evaluate(restrict(graph, kept), semantics)[topic]
            without_x = evaluate(
                restrict(graph, [a for a in kept if a != contributor]), semantics
            )[topic]
            total += weight * (with_x - without_x)
    return total


def shapley_submask_sum(cache, t: int, x: int) -> float:
    """One exact Shapley cell as the library computed it before its
    coalition table: the removed sets run over the submasks of the other
    arguments in increasing order, and each marginal reads two kept-set
    vectors from ``cache.strengths``.  Any change of summation order moves
    last digits, so the cells must equal this bit for bit."""
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


def finite_difference_partials(graph: QBAG, semantics, h: float = 1e-6) -> dict[str, list[float]]:
    """Numeric partials of every final strength w.r.t. every initial
    strength: central differences in the interior of [0, 1], second-order
    one-sided differences at the boundary.  Every point is a fresh graph
    through the public API.  Returns contributor -> column of partials
    indexed by argument position."""
    columns: dict[str, list[float]] = {}
    for name in graph.arguments:
        tau = graph.initial_strength(name)

        def at(value: float) -> list[float]:
            return strength_vector(with_initial_strength(graph, name, value), semantics)

        if h <= tau <= 1.0 - h:
            up, down = at(tau + h), at(tau - h)
            columns[name] = [(u - d) / (2 * h) for u, d in zip(up, down)]
        else:
            sign = 1.0 if tau < h else -1.0
            f0, f1, f2 = at(tau), at(tau + sign * h), at(tau + sign * 2 * h)
            columns[name] = [
                sign * (-3 * a + 4 * b - c) / (2 * h) for a, b, c in zip(f0, f1, f2)
            ]
    return columns


def strength_vector(graph: QBAG, semantics) -> list[float]:
    """Final strengths from :func:`evaluate`, indexed by argument position."""
    sigma = evaluate(graph, semantics)
    return [sigma[name] for name in graph.arguments]


def random_graphs(seed: int, count: int, max_args: int = 7, **kwargs):
    """Deterministic batch of fuzz-generated graphs."""
    config = FuzzConfig(seed=seed, trials=count, max_args=max_args, **kwargs)
    return [random_qbag(config, trial) for trial in range(count)]


@pytest.fixture(scope="session")
def corpus_instances():
    """Every (example, semantics used by its expectations) pair."""
    from qbag import corpus
    from qbag.semantics import semantics_by_name

    pairs = []
    for example_id, _, _ in corpus.list_examples():
        example = corpus.load_example(example_id)
        names = {example.semantics}
        names.update(
            exp.semantics for exp in example.expectations if getattr(exp, "semantics", None)
        )
        for name in sorted(names):
            pairs.append((example, semantics_by_name(name)))
    return pairs
