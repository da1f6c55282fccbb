"""The work one EvaluationCache shares across checks is invisible in results.

Every memoized or partially re-evaluated value is compared with the plain
computation it replaces: fresh caches, full forward passes, and the
pairwise ``strictly_closer`` definition.
"""

import dataclasses
import math
import random
import re
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
from qbag.contributions import _UNSET, _shapley_exact, _shapley_weights
from qbag.corpus import supporters_graph
from qbag.graph import strictly_closer_pairs
from qbag.principles import _first_contradictions
from qbag.semantics import PRESETS, _Compiled

from conftest import random_graphs, shapley_bruteforce, shapley_submask_sum, strength_vector

METHODS = (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient())
CONFIGS = (
    None,
    CheckConfig(eq_tol=1e-4),
    CheckConfig(zero_tol=1e-6, eps_schedule=(1e-1, 1e-2), grid_points=11),
)
# A custom semantics whose aggregates leave the linear influence's domain on
# many fuzz graphs and coalitions.
LINEAR_HALF = GradualSemantics(Aggregation.SUM, Linear(0.5))


def ancestor_count(g, topic):
    return sum(reaches(g, a, g.arguments[topic]) for a in g.arguments if a != g.arguments[topic])


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
            base = cache.strengths()
            for x in range(len(g)):
                for value in (0.0, 0.3, g._tau[x], 1.0):
                    assert cache.strengths_perturbed(x, value) == perturbed_vector(g, semantics, x, value)
                sweep = [perturbed_vector(g, semantics, x, j / 10) for j in range(11)]
                for t in range(len(g)):
                    assert cache.sweep_column(x, t, 11) == tuple(v[t] for v in sweep)
                # a removal re-folds x's descendants with x dropped from the
                # kept set, and severing x re-folds them with x at its initial
                # strength: each cell equals the full passes bit for bit,
                # whether or not Shapley has filled the masked vector first
                mask = cache.full_mask & ~(1 << x)
                removed = _Compiled(g, semantics).strengths(mask)
                others = [a for a in g.arguments if a != g.arguments[x]]
                assert removed[:x] + removed[x + 1:] == strength_vector(restrict(g, others), semantics)
                severed = strength_vector(remove_incoming(g, g.arguments[x]), semantics)
                for t in range(len(g)):
                    if t == x:
                        continue
                    shapley_first.contribution(ShapleyExact(), t, x)
                    removal = cache.contribution(Removal(), t, x)
                    assert removal == base[t] - removed[t] == shapley_first.contribution(Removal(), t, x)
                    assert cache.contribution(IntrinsicRemoval(), t, x) == severed[t] - removed[t]
                assert shapley_first.strengths(mask) == tuple(removed)
    # removing x lifts d's sum aggregate from 0.1 to 0.9, outside [-0.5, 0.5]:
    # the removal cell fails with the masked pass' error
    g = QBAG([("x", 0.8), ("y", 0.9), ("d", 0.2), ("e", 0.3)], [("x", "d")], [("y", "d"), ("d", "e")])
    semantics = GradualSemantics(Aggregation.SUM, Linear(0.5))
    with pytest.raises(DomainError) as masked:
        _Compiled(g, semantics).strengths(0b1110)
    with pytest.raises(DomainError) as cell:
        EvaluationCache(g, semantics).contribution(Removal(), 3, 0)
    assert str(cell.value) == str(masked.value)
    # y lifts x to 1.0, so d's aggregate is 0.9 - 1.0 in the full graph, but
    # 0.9 - 0.2 with x severed and 0.9 without x: an intrinsic removal cell
    # fails with the severed graph's error, which it evaluates first
    g = QBAG([("y", 0.5), ("x", 0.2), ("z", 0.9), ("d", 0.5)], [("x", "d")], [("y", "x"), ("z", "d")])
    with pytest.raises(DomainError) as severed:
        evaluate(remove_incoming(g, "x"), semantics)
    with pytest.raises(DomainError) as cell:
        EvaluationCache(g, semantics).contribution(IntrinsicRemoval(), 3, 1)
    assert str(cell.value) == str(severed.value) and "0.7" in str(cell.value)
    # the full graph is undefined here and the graph without x is not: a
    # fresh cache evaluates that kept set without the full-graph vector
    g = QBAG([("x", 0.5), ("y", 0.3), ("d", 0.2)], [], [("x", "d"), ("y", "d")])
    assert EvaluationCache(g, semantics).strengths(0b110) == tuple(_Compiled(g, semantics).strengths(0b110))


def test_memoized_shapley_cell_still_enforces_the_cap():
    g, topic, contributor = linked_pair(5)
    cache = EvaluationCache(g, QE)
    value = contrib_shapley_exact(g, QE, topic, contributor, cache=cache)
    assert contribution(g, QE, ShapleyExact(len(g)), topic, contributor, cache=cache) == value
    small = ShapleyExact(len(g) - 1)
    message = f"exact enumeration is capped at {len(g) - 1} arguments, graph has {len(g)}"
    for _ in range(2):
        with pytest.raises(TooLarge, match=message):
            contrib_shapley_exact(g, QE, topic, contributor, exact_cap=len(g) - 1, cache=cache)
        with pytest.raises(TooLarge, match=message):
            contribution(g, QE, small, topic, contributor, cache=cache)
        with pytest.raises(TooLarge, match=message):
            run_check(g, QE, small, PrincipleId.DIRECTIONALITY, topic, cache=cache)
        assert cache.columns(small) is None
        assert contrib_shapley_exact(g, QE, topic, contributor, cache=cache) == value


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


def test_sweep_columns_equal_point_by_point_perturbations():
    # every argument's sweep columns, one per topic it reaches, against
    # single perturbations; under sum + linear(0.5) some points are
    # undefined, and a sweep raises the error of one of them, while
    # sweep_column raises the first undefined grid point's error
    points = 21
    grid = [j / (points - 1) for j in range(points)]
    values = grid + [0.37, 1e-5, 1.0 - 1e-5, 0.5]
    failed = defined = 0
    for g in random_graphs(seed=61, count=30, max_args=7):
        n = len(g)
        for semantics in (*PRESETS.values(), LINEAR_HALF):
            cache = EvaluationCache(g, semantics)
            try:
                cache.strengths()
            except DomainError:
                continue
            for x in range(n):
                rows, errors = [], []
                for value in values:
                    try:
                        rows.append(cache.strengths_perturbed(x, value))
                    except DomainError as exc:
                        rows.append(None)
                        errors.append(str(exc))
                reached = {t for t in range(n) if t == x or reaches(g, g.arguments[x], g.arguments[t])}
                try:
                    columns = cache._sweep_columns(x, values)
                except DomainError as exc:
                    assert str(exc) in errors, (g, semantics.label(), x)
                    failed += 1
                else:
                    assert not errors and set(columns) == reached, (g, semantics.label(), x)
                    for t in reached:
                        assert columns[t] == tuple(row[t] for row in rows), (g, semantics.label(), x, t)
                    defined += 1
                # the grid points come first, so errors[0] is the first
                # undefined grid point's, if there is one
                for t in reached:
                    if None in rows[:points]:
                        with pytest.raises(DomainError) as swept:
                            cache.sweep_column(x, t, points)
                        assert str(swept.value) == errors[0]
                    else:
                        assert cache.sweep_column(x, t, points) == tuple(row[t] for row in rows[:points])
    assert failed and defined


# The contradiction scan as the library ran it before it settled signs by
# the extremes of each side of tau, kept verbatim as the reference.
_HIGHER_BELOW = (1, 2)
_HIGHER_ABOVE = (1, 0)
_EQUAL = (0, 2)


def reference_contradictions(cache, t, base, x, points, eq_tol):
    column = cache.sweep_column(x, t, points)
    found = [None, None, None]
    pending = 2 if max(column) - base <= eq_tol and min(column) - base >= -eq_tol else 3
    base_tau = cache.graph._tau[x]
    last = points - 1
    for j, strength in enumerate(column):
        eps = j / last
        if abs(eps - base_tau) <= 1e-12:
            continue
        diff = strength - base
        if diff > eq_tol:
            bad = _HIGHER_BELOW if eps < base_tau else _HIGHER_ABOVE
        elif diff < -eq_tol:
            bad = _HIGHER_ABOVE if eps < base_tau else _HIGHER_BELOW
        elif diff == diff:
            bad = _EQUAL
        else:
            continue  # nan contradicts nothing
        for k in bad:
            if found[k] is None:
                found[k] = {"epsilon": eps, "strength_diff": diff}
                pending -= 1
        if not pending:
            break
    return found


class HandMadeSweep(EvaluationCache):
    """x -> t, or x beside t, with one hand-made sweep column of t over x."""

    def __init__(self, tau, column, linked=True):
        supports = [("x", "t")] if linked else []
        super().__init__(QBAG([("x", tau), ("t", 0.5)], supports=supports), QE)
        self.column = tuple(column)

    def sweep_column(self, index, topic, points):
        assert len(self.column) == points
        return self.column


def test_first_contradictions_equal_the_reference_scan():
    # fuzz pools: every (topic, contributor) pair, off the cone included
    for seed in (31, 53):
        for g in random_graphs(seed=seed, count=12, max_args=7):
            for semantics in PRESETS.values():
                cache = EvaluationCache(g, semantics)
                base = cache.strengths()
                for cfg in CONFIGS:
                    cfg = cfg or CheckConfig()
                    for t in range(len(g)):
                        for x in range(len(g)):
                            if x != t:
                                args = (cache, t, base[t], x, cfg.grid_points, cfg.eq_tol)
                                assert _first_contradictions(*args) == reference_contradictions(*args)
    # hand-made columns: flat, nan, noise within and beyond eq_tol, and tau
    # on a grid point, within 1e-12 of one, just beyond that, at 0 and at 1
    rng = random.Random(5)
    nan = math.nan
    taus = (0.3, 0.3 + 5e-13, 0.3 - 5e-13, 0.3 + 3e-12, 0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.55)
    cases = 0
    for points in (2, 3, 11, 101):
        for eq_tol in (1e-9, 1e-4):
            for base in (0.5, nan):
                shapes = [
                    [base] * points,
                    [0.5 + (j - points / 2) * 1e-3 for j in range(points)],
                    [0.5 - (j - points / 2) * 1e-3 for j in range(points)],
                    [0.5 + abs(j - points / 2) * 1e-3 for j in range(points)],
                    [0.5 + rng.uniform(-eq_tol, eq_tol) for _ in range(points)],
                    [0.5 + rng.choice((0.0, eq_tol, -eq_tol, 2 * eq_tol, -2 * eq_tol, nan)) for _ in range(points)],
                    [nan] + [0.5 + rng.uniform(-1e-3, 1e-3) for _ in range(points - 1)],
                    [rng.choice((nan, 0.4, 0.5, 0.6)) for _ in range(points)],
                ]
                for tau in taus:
                    for column in shapes:
                        for linked in (True, False):
                            cache = HandMadeSweep(tau, column if linked else [base] * points, linked)
                            args = (cache, 1, base, 0, points, eq_tol)
                            got, want = _first_contradictions(*args), reference_contradictions(*args)
                            assert repr(got) == repr(want), (points, eq_tol, base, tau, column, linked)
                            cases += 1
    assert cases == 4 * 2 * 2 * 8 * len(taus) * 2


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


def test_exact_shapley_cells_equal_the_submask_enumeration():
    # the coalition table must leave every cell bit-identical to the
    # enumeration over kept-set vectors, summed in the same order
    cells = 0
    for g in random_graphs(seed=73, count=40, max_args=9):
        for semantics in PRESETS.values():
            cache, reference = EvaluationCache(g, semantics), EvaluationCache(g, semantics)
            for t in range(len(g)):
                for x in range(len(g)):
                    if x != t and (cache.ancestors(t) >> x) & 1:
                        assert cache.contribution(ShapleyExact(), t, x) == shapley_submask_sum(reference, t, x)
                        cells += 1
    assert cells > 1000


@pytest.mark.slow
def test_exact_shapley_cells_of_the_20_argument_supporters_graph():
    # 19 ancestors: a table of 2^19 strengths, against 2^19 kept-set vectors
    g = supporters_graph(19)
    cache, reference = EvaluationCache(g, QE), EvaluationCache(g, QE)
    for x in (1, 19):
        assert cache.contribution(ShapleyExact(), 0, x) == shapley_submask_sum(reference, 0, x)


def test_exact_shapley_enumerates_where_a_coalition_may_be_undefined():
    # under sum + linear(0.5) a coalition's masked pass may fail at any
    # argument, an ancestor of the topic or not: a cell fails with the first
    # failing coalition's error, or equals the enumeration
    failed = defined = 0
    for g in random_graphs(seed=79, count=30, max_args=6):
        cache, reference = EvaluationCache(g, LINEAR_HALF), EvaluationCache(g, LINEAR_HALF)
        try:
            cache.strengths()
        except DomainError:
            continue
        for t in range(len(g)):
            for x in range(len(g)):
                if x == t or not (cache.ancestors(t) >> x) & 1:
                    continue
                try:
                    want = shapley_submask_sum(reference, t, x)
                except DomainError as exc:
                    with pytest.raises(DomainError, match=re.escape(str(exc))):
                        cache.contribution(ShapleyExact(), t, x)
                    failed += 1
                else:
                    assert cache.contribution(ShapleyExact(), t, x) == want
                    defined += 1
    assert failed and defined


def test_an_exact_shapley_column_holds_one_table_of_its_topic_ancestors():
    # a 14-argument column reads a table of 2^m floats for the topic's m
    # ancestors, dropped once the column is filled, plus lookup tables of at
    # most 2^10 ranks and weights; it stores no kept-set vector (2^m of them
    # took about 4 MB here)
    fuzzed = next(g for g in random_graphs(seed=7, count=200, max_args=14) if len(g) == 14)
    for g in (supporters_graph(13), fuzzed):
        n = len(g)
        t = max(range(n), key=lambda a: ancestor_count(g, a))
        m = ancestor_count(g, t)
        cache = EvaluationCache(g, QE)
        cache.strengths()
        x = next(a for a in range(n) if (cache.ancestors(t) >> a) & 1)
        tracemalloc.start()
        try:
            cache.contribution(ShapleyExact(), t, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**m + 256_000, (m, peak)
        assert set(cache._by_mask) == {cache.full_mask}
        assert all(cell is not _UNSET for cell in cache.column(ShapleyExact(), t))


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


def test_quantitative_local_faithfulness_raises_where_the_probe_scan_did():
    # y - x is d's aggregate, 0.5 at tau(x) = 0.5: every probe below tau(x)
    # leaves the domain of linear(0.5), every probe above it does not.  The
    # + direction is read first: a witness there ends the check without
    # the error, and only a + direction without one reaches the error
    g = QBAG([("x", 0.5), ("y", 1.0), ("d", 0.2)], attacks=[("x", "d")], supports=[("y", "d")])
    cache = EvaluationCache(g, LINEAR_HALF)
    with pytest.raises(DomainError) as single:
        cache.strengths_perturbed(0, 0.5 - 1e-2)

    def steep(graph, semantics, topic, contributor):
        return 5.0

    for _ in range(2):
        report = run_check(g, LINEAR_HALF, steep, PrincipleId.QUANT_LOCAL_FAITHFULNESS, "d", cache=cache)
        assert report.witness["contributor"] == "x" and report.witness["direction"] == 1.0
        with pytest.raises(DomainError) as read:
            run_check(g, LINEAR_HALF, Gradient(), PrincipleId.QUANT_LOCAL_FAITHFULNESS, "d", cache=cache)
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


def test_removal_and_severing_keep_only_the_strengths_they_change():
    # 400 leaves beside one topic: removing or severing a leaf changes the
    # topic's strength alone, so the removal and intrinsic removal columns
    # must hold about one float per leaf and store, not 400 vectors of 401
    names = [f"b{i}" for i in range(400)]
    g = QBAG(
        [(name, 0.5) for name in names] + [("t", 0.3)],
        [(name, "t") for name in names[::2]],
        [(name, "t") for name in names[1::2]],
    )
    n, t = len(g), g.index_of("t")
    cache = EvaluationCache(g, QE)
    base = cache.strengths()
    tracemalloc.start()
    try:
        columns = [[cache.contribution(method, t, x) for x in range(n)] for method in (Removal(), IntrinsicRemoval())]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * n, peak
    for x in (0, 1, 399):
        others = [a for a in g.arguments if a != g.arguments[x]]
        without = evaluate(restrict(g, others), QE)["t"]
        assert columns[0][x] == base[t] - without
        assert columns[1][x] == evaluate(remove_incoming(g, g.arguments[x]), QE)["t"] - without


def test_cache_stores_stay_within_their_documented_bounds():
    # After a pass over a fuzz pool, each store holds no more than its index
    # allows; a second pass with new but value-equal configurations and
    # samplers, all memo hits, leaves the cache no larger: the plan is one
    # slot, whatever objects the checks pass.
    configs = [cfg or CheckConfig() for cfg in CONFIGS]
    grids = {cfg.grid_points for cfg in configs}
    schedules = {cfg.eps_schedule for cfg in configs}
    tables = {(cfg.grid_points, cfg.eq_tol) for cfg in configs}
    permutations = 20

    def one_pass(cache, g, semantics, configs, methods):
        for principle in PrincipleId:
            for method in methods:
                for topic in g.arguments:
                    for cfg in configs:
                        run_check(g, semantics, method, principle, topic, cfg, cache=cache)

    grown = []
    for g in random_graphs(seed=2718, count=4, max_args=6):
        n = len(g)
        for semantics in PRESETS.values():
            cache = EvaluationCache(g, semantics)
            # exact Shapley reads coalition tables, not kept-set vectors
            one_pass(cache, g, semantics, CONFIGS, METHODS)
            assert set(cache._by_mask) == {cache.full_mask}
            one_pass(cache, g, semantics, CONFIGS, (ShapleySampled(permutations, 3),))
            # each sampled cell adds at most two kept sets per permutation
            assert len(cache._by_mask) <= min(2**n, 1 + 2 * permutations * n * (n - 1))
            for store in (cache._removed, cache._severed):
                assert len(store) == n
                for x, changed in enumerate(store):
                    assert changed is None or set(changed) == set(cache._descendants_of(x))
            assert set(cache._sweeps) <= {(x, p) for x in range(n) for p in grids}
            assert set(cache._probes) <= schedules
            assert all(len(row) == n for row in cache._probes.values())
            assert len(cache._columns) <= len(METHODS) + 1
            assert all(len(columns) == n for columns in cache._columns.values())
            # two visit orders, n x n contradictions per (grid_points, eq_tol)
            # and n x n signed probes per eps schedule
            assert len(cache.derived) <= 2 + len(tables) + len(schedules)
            for key, rows in cache.derived.items():
                assert len(rows) == n and all(row is None or len(row) <= n for row in rows), key
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                copies = tuple(None if cfg is None else dataclasses.replace(cfg) for cfg in CONFIGS)
                one_pass(cache, g, semantics, copies, METHODS + (ShapleySampled(permutations, 3),))
                del copies
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            grown.append(after - before)
    assert max(grown) < 4096, grown
