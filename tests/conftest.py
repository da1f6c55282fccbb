"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the optimized code paths they check:
Shapley values are recomputed from the coalition-sum definition with
factorial weights over explicitly restricted graphs, sampled Shapley cells
by replaying the sampler's shuffles on restricted graphs, and gradients are
checked against finite differences of the plain evaluator.  The exact
Shapley cells are also checked to within 1e-12 against the submask
enumeration they replaced, kept here verbatim, and so is the kept-set
forward pass it read, :func:`kept_strengths`, whose folds read only the kept
parents where the library writes +0.0 for a removed one.

A quantity about a topic t is undefined exactly when evaluating the graph
it reads restricted to t's ancestors and t fails: :func:`strength_within`
is that rule, through the public graph API only.
"""

from __future__ import annotations

import itertools
import math

import pytest

from qbag import QBAG, FuzzConfig, evaluate, random_qbag, reaches, restrict, with_initial_strength
from qbag.contributions import _shapley_weights
from qbag.rng import SplitMix64
from qbag.semantics import PRESETS, Aggregation


@pytest.fixture(scope="session")
def presets():
    return dict(PRESETS)


def shapley_bruteforce(graph: QBAG, semantics, topic: str, contributor: str) -> float:
    """Direct coalition sum with factorial weights over every coalition of
    the other arguments, each side evaluated as :func:`strength_within`
    says; restriction and evaluation go through the public graph API only."""
    players = [p for p in graph.arguments if p != topic]
    others = [p for p in players if p != contributor]
    inside = {a for a in graph.arguments if a == topic or reaches(graph, a, topic)}
    n = len(players)
    total = 0.0
    for size in range(len(others) + 1):
        weight = math.factorial(size) * math.factorial(n - size - 1) / math.factorial(n)
        for removed in itertools.combinations(others, size):
            kept = [a for a in graph.arguments if a in inside and a not in removed]
            with_x = evaluate(restrict(graph, kept), semantics)[topic]
            without_x = evaluate(
                restrict(graph, [a for a in kept if a != contributor]), semantics
            )[topic]
            total += weight * (with_x - without_x)
    return total


def strength_within(graph: QBAG, semantics, kept, topic: str) -> float:
    """The topic's final strength in ``restrict(graph, kept)``, evaluated
    on the kept arguments that are the topic or reach it in ``graph``:
    raises DomainError exactly when that evaluation fails."""
    inside = [a for a in kept if a == topic or reaches(graph, a, topic)]
    return evaluate(restrict(graph, inside), semantics)[topic]


def shapley_sampled_reference(graph: QBAG, semantics, topic: str, contributor: str, permutations: int, seed: int):
    """``ShapleySampled(permutations, seed)``'s cell, replayed: the same
    ``SplitMix64(seed)`` shuffles of the topic's ancestors in list order,
    each giving the marginal of removing the contributor after the
    ancestors before it, both sides read by :func:`strength_within`.  A
    contributor that does not reach the topic is a null player: 0.0."""
    if not reaches(graph, contributor, topic):
        return 0.0
    rng = SplitMix64(seed)
    players = [a for a in graph.arguments if a != topic and reaches(graph, a, topic)]
    total = 0.0
    for _ in range(permutations):
        rng.shuffle(players)
        removed = set(players[: players.index(contributor)])
        kept = [a for a in graph.arguments if a not in removed]
        with_x = strength_within(graph, semantics, kept, topic)
        total += with_x - strength_within(graph, semantics, [a for a in kept if a != contributor], topic)
    return total / permutations


def _fold_sum(out, atts, sups, mask):
    s = 0.0
    kept = False
    for p in sups:
        if (mask >> p) & 1:
            s += out[p]
            kept = True
    for p in atts:
        if (mask >> p) & 1:
            s -= out[p]
            kept = True
    return s if kept else None


def _fold_product(out, atts, sups, mask):
    pa = 1.0
    ps = 1.0
    kept = False
    for p in atts:
        if (mask >> p) & 1:
            pa *= 1.0 - out[p]
            kept = True
    for p in sups:
        if (mask >> p) & 1:
            ps *= 1.0 - out[p]
            kept = True
    return pa - ps if kept else None


def _fold_top(out, atts, sups, mask):
    ms = 0.0
    ma = 0.0
    kept = False
    for p in sups:
        if (mask >> p) & 1:
            kept = True
            if out[p] > ms:
                ms = out[p]
    for p in atts:
        if (mask >> p) & 1:
            kept = True
            if out[p] > ma:
                ma = out[p]
    return ms - ma if kept else None


_KEPT_FOLDS = {Aggregation.SUM: _fold_sum, Aggregation.PRODUCT: _fold_product, Aggregation.TOP: _fold_top}


def kept_strengths(cache, kept: int) -> list[float]:
    """Final strengths of the subgraph of the arguments in the bitmask
    ``kept`` (entries of dropped arguments are meaningless zeros), by the
    kept-set forward pass the library used before a removed argument became
    a +0.0 entry: each fold reads only the kept parents and gives None when
    none is kept, and such a node keeps its initial strength."""
    comp = cache._comp
    fold = _KEPT_FOLDS[cache.semantics.aggregation]
    out = [0.0] * comp.n
    for i in comp.order:
        if not (kept >> i) & 1:
            continue
        s = fold(out, comp.attackers[i], comp.supporters[i], kept)
        out[i] = comp.tau[i] if s is None else comp.value(comp.tau[i], s)
    return out


def shapley_submask_sum(cache, t: int, x: int) -> float:
    """One exact Shapley cell as the library computed it before its
    coalition table: the removed sets run over the submasks of the other
    arguments in increasing order, and each marginal reads two
    :func:`kept_strengths` passes, unmemoized.  The library now sums each
    cell's terms in another grouping, so the cells may differ from this in
    their last digits."""
    full = (1 << len(cache.graph)) - 1
    weights = _shapley_weights(len(cache.graph) - 1)
    x_bit = 1 << x
    others = full & ~(1 << t) & ~x_bit
    total = 0.0
    removed = 0
    while True:
        # removed runs over the submasks of others in increasing order
        kept = full & ~removed
        marginal = kept_strengths(cache, kept)[t] - kept_strengths(cache, kept & ~x_bit)[t]
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
