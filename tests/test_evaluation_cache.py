"""The work one EvaluationCache shares across checks is invisible in results.

Every memoized or partially re-evaluated value is compared with the plain
computation it replaces: fresh caches, full forward passes, and the
pairwise ``strictly_closer`` definition.
"""

import dataclasses
import tracemalloc

import pytest

from qbag import (
    QBAG,
    QE,
    Aggregation,
    CheckConfig,
    DomainError,
    EvaluationCache,
    Gradient,
    GradualSemantics,
    IntrinsicRemoval,
    Linear,
    PrincipleId,
    Removal,
    ShapleyExact,
    ShapleySampled,
    TooLarge,
    UNDEFINED,
    contrib_shapley_exact,
    contribution,
    evaluate,
    gradient_of_topic,
    reaches,
    restrict,
    remove_incoming,
    run_check,
    strictly_closer,
    with_initial_strength,
)
from qbag.contributions import _shapley_exact, _shapley_weights
from qbag.graph import strictly_closer_pairs
from qbag.principles import _first_contradictions
from qbag.semantics import PRESETS, _Compiled

from conftest import random_graphs, shapley_bruteforce, strength_vector

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


def perturbed_vector(g, semantics, x, value):
    """Full-pass strengths of a fresh graph with argument ``x``'s initial
    strength set to ``value``."""
    return tuple(strength_vector(with_initial_strength(g, g.arguments[x], value), semantics))


def test_cone_reevaluation_is_bit_identical_to_a_full_pass():
    for g in random_graphs(seed=7, count=25, max_args=8):
        for semantics in PRESETS.values():
            cache = EvaluationCache(g, semantics)
            shapley_first = EvaluationCache(g, semantics)
            for x in range(len(g)):
                severed = remove_incoming(g, g.arguments[x])
                assert cache.strengths_isolated(x) == tuple(strength_vector(severed, semantics))
                for value in (0.0, 0.3, g._tau[x], 1.0):
                    assert cache.strengths_perturbed(x, value) == perturbed_vector(g, semantics, x, value)
                sweep = [perturbed_vector(g, semantics, x, j / 10) for j in range(11)]
                for t in range(len(g)):
                    assert cache.sweep_column(x, t, 11) == tuple(v[t] for v in sweep)
                # a removal vector re-folds x's descendants with x dropped;
                # it equals the masked pass, zero at x included, whichever
                # of removal, Shapley or a fresh cache fills the mask first
                mask = cache.full_mask & ~(1 << x)
                for t in range(len(g)):
                    cache.contribution(Removal(), t, x)
                    shapley_first.contribution(ShapleyExact(), t, x)
                removed = cache.strengths(mask)
                assert removed == tuple(_Compiled(g, semantics).strengths(mask)) and removed[x] == 0.0
                others = [a for a in g.arguments if a != g.arguments[x]]
                assert list(removed[:x] + removed[x + 1:]) == strength_vector(restrict(g, others), semantics)
                assert shapley_first.strengths(mask) == removed == EvaluationCache(g, semantics).strengths(mask)
    # removing x lifts d's sum aggregate from 0.1 to 0.9, outside [-0.5, 0.5]:
    # the removal cell fails with the masked pass' error
    g = QBAG([("x", 0.8), ("y", 0.9), ("d", 0.2), ("e", 0.3)], [("x", "d")], [("y", "d"), ("d", "e")])
    semantics = GradualSemantics(Aggregation.SUM, Linear(0.5))
    with pytest.raises(DomainError) as masked:
        _Compiled(g, semantics).strengths(0b1110)
    with pytest.raises(DomainError) as cell:
        EvaluationCache(g, semantics).contribution(Removal(), 3, 0)
    assert str(cell.value) == str(masked.value)
    # the full graph is undefined here and the graph without x is not: a
    # fresh cache evaluates that kept set without the full-graph vector
    g = QBAG([("x", 0.5), ("y", 0.3), ("d", 0.2)], [], [("x", "d"), ("y", "d")])
    assert EvaluationCache(g, semantics).strengths(0b110) == tuple(_Compiled(g, semantics).strengths(0b110))


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


def per_sign_scan(cache, t, base, x, sign, points, eq_tol):
    """The first grid point contradicting one contribution sign, scanned on
    its own."""
    base_tau = cache.graph._tau[x]
    last = points - 1
    for j, strength in enumerate(cache.sweep_column(x, t, points)):
        eps = j / last
        if abs(eps - base_tau) <= 1e-12:
            continue
        diff = strength - base
        if sign == 0:
            bad = abs(diff) > eq_tol
        elif sign > 0:
            bad = diff >= -eq_tol if eps < base_tau else diff <= eq_tol
        else:
            bad = diff <= eq_tol if eps < base_tau else diff >= -eq_tol
        if bad:
            return {"epsilon": eps, "strength_diff": diff}
    return None


def test_one_scan_witnesses_equal_per_sign_scans():
    found = set()
    for g in random_graphs(seed=31, count=15, max_args=6):
        for semantics in PRESETS.values():
            cache = EvaluationCache(g, semantics)
            for cfg in CONFIGS:
                cfg = cfg or CheckConfig()
                for t in range(len(g)):
                    base = cache.strengths()[t]
                    for x in range(len(g)):
                        if x == t:
                            continue
                        got = _first_contradictions(cache, t, base, x, cfg.grid_points, cfg.eq_tol)
                        for sign in (-1, 0, 1):
                            want = per_sign_scan(cache, t, base, x, sign, cfg.grid_points, cfg.eq_tol)
                            assert got[sign + 1] == want, (g, semantics.label(), cfg, t, x, sign)
                            found.add((sign, want is None))
    assert found == {(s, w) for s in (-1, 0, 1) for w in (True, False)}


def test_sweep_kernel_equals_per_point_full_passes():
    values = [j / 8 for j in range(9)]
    parentless = topic_itself = 0
    for g in random_graphs(seed=17, count=20, max_args=7):
        for semantics in PRESETS.values():
            for x in range(len(g)):
                want = [perturbed_vector(g, semantics, x, value) for value in values]
                cache = EvaluationCache(g, semantics)
                assert [cache.strengths_perturbed(x, value) for value in values] == want
                parentless += not (g._attackers[x] or g._supporters[x])
                for t in range(len(g)):
                    assert cache.sweep_column(x, t, len(values)) == tuple(v[t] for v in want)
                topic_itself += 1
    assert parentless and topic_itself


def independent_cell(g, semantics, method, topic, contributor):
    """A cell from whole-graph evaluations through the public API, or None
    for methods left to the Shapley tests."""
    if isinstance(method, Gradient):
        return gradient_of_topic(g, semantics, topic)[contributor]
    if isinstance(method, (Removal, IntrinsicRemoval)):
        with_x = g if isinstance(method, Removal) else remove_incoming(g, contributor)
        without = restrict(g, [a for a in g.arguments if a != contributor])
        return evaluate(with_x, semantics)[topic] - evaluate(without, semantics)[topic]
    return None


def test_column_cells_equal_fresh_contributions():
    undefined = 0
    for g in random_graphs(seed=23, count=12, max_args=6):
        for semantics in PRESETS.values():
            cache = EvaluationCache(g, semantics)
            for method in METHODS + (ShapleySampled(20, 3),):
                for t, topic in enumerate(g.arguments):
                    # a check fills part of the column, the loop the rest
                    run_check(g, semantics, method, PrincipleId.COUNTERFACTUALITY, topic, cache=cache)
                    for x in range(len(g)):
                        cache.contribution(method, t, x)
                    column = cache.column(method, t)
                    for x, contributor in enumerate(g.arguments):
                        want = contribution(g, semantics, method, topic, contributor)
                        if want is UNDEFINED:
                            assert column[x] is UNDEFINED
                            undefined += 1
                            continue
                        assert column[x] == want
                        other = independent_cell(g, semantics, method, topic, contributor)
                        assert other is None or abs(column[x] - other) <= 1e-12
    assert undefined


def shapley_bit_by_bit(cache, t, x):
    """Exact Shapley with each removed set rebuilt bit by bit from the rank
    of its subset of the other arguments."""
    n = len(cache.graph)
    others = [i for i in range(n) if i != t and i != x]
    weights = _shapley_weights(n - 1)
    full = cache.full_mask
    total = 0.0
    for subset in range(1 << len(others)):
        removed = 0
        for j, i in enumerate(others):
            if (subset >> j) & 1:
                removed |= 1 << i
        kept = full & ~removed
        marginal = cache.strengths(kept)[t] - cache.strengths(kept & ~(1 << x))[t]
        total += weights[subset.bit_count()] * marginal
    return total


def test_submask_shapley_equals_bit_by_bit_enumeration():
    for g in random_graphs(seed=41, count=12, max_args=6):
        for semantics in PRESETS.values():
            cache = EvaluationCache(g, semantics)
            for t, topic in enumerate(g.arguments):
                for x, contributor in enumerate(g.arguments):
                    if x == t:
                        continue
                    got = _shapley_exact(cache, t, x)
                    assert got == shapley_bit_by_bit(cache, t, x)
                    assert abs(got - shapley_bruteforce(g, semantics, topic, contributor)) <= 1e-12


def test_probe_columns_equal_single_perturbations():
    # position 2k holds tau + schedule[k], position 2k + 1 holds
    # tau - schedule[k]; None where the point leaves [0, 1]
    cfg = CheckConfig(eps_schedule=[1.5, 0.3, 1e-2, 1e-5])
    assert cfg.eps_schedule == (1.5, 0.3, 1e-2, 1e-5)
    for g in random_graphs(seed=8, count=12, max_args=6):
        for semantics in PRESETS.values():
            for x, name in enumerate(g.arguments):
                for tau in (g._tau[x], 0.0, 1.0):
                    h = with_initial_strength(g, name, tau)
                    cache = EvaluationCache(h, semantics)
                    for t in range(len(h)):
                        column = cache.probe_column(x, t, cfg.eps_schedule)
                        points = [p for d in cfg.eps_schedule for p in (tau + d, tau + (-1.0 * d))]
                        assert len(column) == len(points)
                        for p, strength in zip(points, column):
                            if 0.0 <= p <= 1.0:
                                assert strength == cache.strengths_perturbed(x, p)[t]
                            else:
                                assert strength is None


def linear_edge():
    """x supports d under sum + linear(0.5): d's aggregate is tau(x) = 0.5,
    on the edge of the domain, so every probe above tau(x) is undefined and
    every probe below it is not."""
    g = QBAG([("x", 0.5), ("d", 0.2)], [], [("x", "d")])
    return g, GradualSemantics(Aggregation.SUM, Linear(0.5))


def test_unread_undefined_probes_do_not_fail_a_check():
    g, semantics = linear_edge()
    cache = EvaluationCache(g, semantics)
    with pytest.raises(DomainError) as single:
        cache.strengths_perturbed(0, 0.5 + 1e-2)
    # at this eq_tol every radius is below the probe headroom: local
    # faithfulness reads no probe, so the undefined ones cannot fail it
    coarse = CheckConfig(eq_tol=1e-2)
    report = run_check(g, semantics, Removal(), PrincipleId.LOCAL_FAITHFULNESS, "d", coarse, cache=cache)
    assert report.satisfied and report.witness == {}
    assert cache.probe_column(0, 1, coarse.eps_schedule)[1] == cache.strengths_perturbed(0, 0.5 - 1e-2)[1]
    # a check that reads an undefined probe fails with the error of that
    # probe's own evaluation, every time it reads it
    for principle in (PrincipleId.LOCAL_FAITHFULNESS, PrincipleId.QUANT_LOCAL_FAITHFULNESS):
        for _ in range(2):
            with pytest.raises(DomainError) as read:
                run_check(g, semantics, Removal(), principle, "d", cache=cache)
            assert str(read.value) == str(single.value)


def test_local_faithfulness_checks_fill_no_single_perturbation(monkeypatch):
    def single(*args):
        raise AssertionError("a local-faithfulness check evaluated a single perturbation")

    monkeypatch.setattr(EvaluationCache, "strengths_perturbed", single)
    for g in random_graphs(seed=12, count=10, max_args=6):
        for semantics in PRESETS.values():
            cache = EvaluationCache(g, semantics)
            for principle in (PrincipleId.LOCAL_FAITHFULNESS, PrincipleId.QUANT_LOCAL_FAITHFULNESS):
                for method in METHODS:
                    for topic in g.arguments:
                        run_check(g, semantics, method, principle, topic, cache=cache)
            assert cache._probes


def test_a_long_sweep_holds_points_times_cone():
    # 400 arguments in a supporting chain beside x -> y -> z: x's cone has
    # three arguments, so a 10,001-point sweep must hold about 3 x 10,001
    # values, not 10,001 vectors of 403
    names = [f"b{i}" for i in range(400)]
    g = QBAG(
        [(name, 0.5) for name in names] + [("x", 0.5), ("y", 0.4), ("z", 0.3)],
        [("x", "y")],
        [(a, b) for a, b in zip(names, names[1:])] + [("y", "z")],
    )
    points = 10_001
    probes = (0, 1234, points - 1)
    want = [tuple(strength_vector(with_initial_strength(g, "x", j / (points - 1)), QE)[-3:]) for j in probes]
    x, y, z = (g.index_of(a) for a in "xyz")
    cache = EvaluationCache(g, QE)
    cache.strengths()
    tracemalloc.start()
    try:
        column = cache.sweep_column(x, z, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cone = 3
    assert peak < 100 * points * cone, peak
    for j, vector in zip(probes, want):
        assert (cache.sweep_column(x, x, points)[j], cache.sweep_column(x, y, points)[j], column[j]) == vector


def test_cache_stores_stay_within_their_documented_bounds():
    # After a pass over a fuzz pool, each store holds no more than its index
    # allows; a second pass with new but value-equal configurations and
    # samplers, all memo hits, leaves the cache no larger: the plan is one
    # slot, whatever objects the checks pass.
    configs = [cfg or CheckConfig() for cfg in CONFIGS]
    grids = {cfg.grid_points for cfg in configs}
    schedules = {cfg.eps_schedule for cfg in configs}
    tables = {(cfg.grid_points, cfg.eq_tol) for cfg in configs}

    def one_pass(cache, g, semantics, configs, sampler):
        for principle in PrincipleId:
            for method in METHODS + (sampler,):
                for topic in g.arguments:
                    for cfg in configs:
                        run_check(g, semantics, method, principle, topic, cfg, cache=cache)

    grown = []
    for g in random_graphs(seed=2718, count=4, max_args=6):
        n = len(g)
        for semantics in PRESETS.values():
            cache = EvaluationCache(g, semantics)
            one_pass(cache, g, semantics, CONFIGS, ShapleySampled(20, 3))
            assert len(cache._by_mask) <= 2 ** n and len(cache._by_isolated) <= n
            assert set(cache._sweeps) <= {(x, p) for x in range(n) for p in grids}
            assert set(cache._probes) <= schedules
            assert all(len(row) == n for row in cache._probes.values())
            assert len(cache._columns) <= len(METHODS) + 1
            assert all(len(columns) == n for columns in cache._columns.values())
            assert len(cache.derived) <= 2 + len(tables)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                copies = tuple(None if cfg is None else dataclasses.replace(cfg) for cfg in CONFIGS)
                one_pass(cache, g, semantics, copies, ShapleySampled(20, 3))
                del copies
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            grown.append(after - before)
    assert max(grown) < 4096, grown
