"""The work one EvaluationCache shares across checks is invisible in results.

Every memoized or partially re-evaluated value is compared with the plain
computation it replaces: fresh caches, full forward passes, and the
pairwise ``strictly_closer`` definition.
"""

import hashlib
import math
import random
import re
import tracemalloc
import traceback

import pytest

from qbag import (
    QBAG,
    DFQUAD,
    EB,
    QE,
    Aggregation,
    CheckConfig,
    DomainError,
    EvaluationCache,
    FuzzConfig,
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
    contribution,
    contribution_table,
    evaluate,
    gradient_of_topic,
    influence,
    random_qbag,
    reaches,
    restrict,
    remove_incoming,
    run_check,
    strictly_closer,
    with_initial_strength,
)
from qbag import contributions
from qbag.contributions import _UNSET, _shapley_weights
from qbag.corpus import load_example, supporters_graph
from qbag.graph import strictly_closer_pairs
from qbag.principles import _first_contradictions, _probe_row
from qbag.semantics import PRESETS, _Compiled

from conftest import (
    kept_strengths,
    random_graphs,
    shapley_bruteforce,
    shapley_sampled_reference,
    shapley_submask_sum,
    strength_vector,
)

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
    # removing x leaves d with no parent, so d keeps its initial 0.3, which
    # EB's value(0.3, 0.0) is not: removal needs the all-parents-gone rule
    lone = QBAG([("x", 0.5), ("d", 0.3), ("t", 0.6)], supports=[("x", "d"), ("d", "t")])
    assert influence(EB.influence, 0.3, 0.0) != 0.3
    for g in [*random_graphs(seed=7, count=25, max_args=8), lone]:
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
                # a removal re-folds x's descendants with x at +0.0, and
                # severing x re-folds them with x at its initial strength:
                # each cell equals the full passes bit for bit, whether or
                # not Shapley has re-folded coalitions first
                removed = kept_strengths(cache, (1 << len(g)) - 1 & ~(1 << x))
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
                assert shapley_first.strengths() == base
    # removing x lifts d's sum aggregate from 0.1 to 0.9, outside [-0.5, 0.5]:
    # the removal cell fails with the kept-set pass' error
    g = QBAG([("x", 0.8), ("y", 0.9), ("d", 0.2), ("e", 0.3)], [("x", "d")], [("y", "d"), ("d", "e")])
    semantics = GradualSemantics(Aggregation.SUM, Linear(0.5))
    with pytest.raises(DomainError) as masked:
        kept_strengths(EvaluationCache(g, semantics), 0b1110)
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
    # the full graph is undefined here and the graph without y is not: seed
    # 8 puts y before x in each of three shuffles, so a sampled cell of x to
    # d never keeps every argument and needs no full-graph vector
    g = QBAG([("x", 0.5), ("y", 0.3), ("d", 0.2)], [], [("x", "d"), ("y", "d")])
    cache = EvaluationCache(g, semantics)
    marginal = kept_strengths(cache, 0b101)[2] - kept_strengths(cache, 0b100)[2]
    assert cache.contribution(ShapleySampled(3, 8), 2, 0) == (marginal + marginal + marginal) / 3 == 0.8000000000000002
    with pytest.raises(DomainError):
        cache.strengths()


def test_memoized_shapley_cell_still_enforces_the_cap():
    # the cap counts the topic and its ancestors; each cap keeps its own
    # columns, which an over-cap topic never fills, so every one of its cells
    # raises on every call, also after a larger cap has filled the column
    g, topic, contributor = linked_pair(5)
    cache = EvaluationCache(g, QE)
    t = g.index_of(topic)
    scope = cache.ancestors(t).bit_count() + 1
    value = contribution(g, QE, ShapleyExact(), topic, contributor, cache=cache)
    assert contribution(g, QE, ShapleyExact(scope), topic, contributor, cache=cache) == value
    small = ShapleyExact(scope - 1)
    message = f"exact enumeration is capped at {scope - 1} arguments, topic {topic} with its ancestors has {scope}"
    for _ in range(2):
        with pytest.raises(TooLarge, match=message):
            contribution(g, QE, small, topic, contributor, cache=cache)
        with pytest.raises(TooLarge, match=message):
            run_check(g, QE, small, PrincipleId.DIRECTIONALITY, topic, cache=cache)
        assert all(cell is _UNSET for cell in cache.column(small, t))
        assert contribution(g, QE, ShapleyExact(), topic, contributor, cache=cache) == value


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


def test_a_cache_built_for_another_graph_or_semantics_is_refused():
    # a cache answers for the (graph, semantics) it was built for: QE's
    # removal cell is -0.2238 where DFQuAD's is -0.45, and a supporting b of
    # strength 0.1 contributes 0.00495, not the attacking b's -0.2238
    g = QBAG([("a", 0.5), ("b", 0.9)], attacks=[("b", "a")])
    supported = QBAG([("a", 0.5), ("b", 0.1)], supports=[("b", "a")])
    assert contribution(g, DFQUAD, Removal(), "a", "b") == pytest.approx(-0.45)
    assert contribution(supported, QE, Removal(), "a", "b") == pytest.approx(0.00495, abs=1e-5)
    principle = PrincipleId.COUNTERFACTUALITY
    reads = (
        lambda graph, semantics, cache: contribution(graph, semantics, Removal(), "a", "b", cache=cache),
        lambda graph, semantics, cache: contribution_table(graph, semantics, Removal(), cache=cache),
        lambda graph, semantics, cache: run_check(graph, semantics, Removal(), principle, "a", cache=cache),
    )
    for read in reads:
        with pytest.raises(ValueError, match="^the cache was built for the semantics QE, not DFQuAD$"):
            read(g, DFQUAD, EvaluationCache(g, QE))
        with pytest.raises(ValueError, match="^the cache was built for another graph$"):
            read(supported, QE, EvaluationCache(g, QE))
        # an equal graph, and a semantics that differs only in its name, are
        # the cache's own
        equal = QBAG([("a", 0.5), ("b", 0.9)], attacks=[("b", "a")])
        renamed = GradualSemantics(DFQUAD.aggregation, DFQUAD.influence, "renamed")
        assert repr(read(equal, renamed, EvaluationCache(g, DFQUAD))) == repr(read(equal, renamed, None))
    # a check whose plan the cache already holds still checks the graph
    cache = EvaluationCache(g, QE)
    run_check(g, QE, Removal(), principle, "a", cache=cache)
    with pytest.raises(ValueError, match="another graph"):
        run_check(supported, QE, Removal(), principle, "a", cache=cache)
    with pytest.raises(ValueError, match="not DFQuAD"):
        run_check(g, DFQUAD, Removal(), principle, "a", cache=cache)


def test_sampled_cells_are_memoized_per_seed():
    g, topic, contributor = linked_pair(11)
    cache = EvaluationCache(g, QE)
    one = contribution(g, QE, ShapleySampled(50, 1), topic, contributor, cache=cache)
    other = contribution(g, QE, ShapleySampled(50, 2), topic, contributor, cache=cache)
    assert one != other
    assert one == contribution(g, QE, ShapleySampled(50, 1), topic, contributor)
    assert other == contribution(g, QE, ShapleySampled(50, 2), topic, contributor)


# sha256 over one line per Shapley cell of the first 40 trials of the seed-5
# fuzz recipe with max_args=8, under the five presets and sum with linear(1.0)
# and linear(0.5): the cell's repr, or the DomainError it raises.  Each
# (graph, semantics) pair gets two fresh caches: one asks for the sampled
# cells, then the exact ones, topic-major; the other for the exact cells,
# then the sampled ones, contributor-major.  This pins every sampled value
# and where each sampled or exact cell raises, with which message: only
# where re-folding a coalition of the topic's ancestors and the topic fails.
_SHAPLEY_DIGEST = "c1cc751de7e75a61fec8e0ef7be8910e742e14044c65378a972a8389e23dc867"


def test_shapley_digest_on_a_fixed_fuzz_pool():
    config = FuzzConfig(seed=5, trials=40, max_args=8)
    semantics = (*PRESETS.values(), GradualSemantics(Aggregation.SUM, Linear(1.0)), LINEAR_HALF)
    digest = hashlib.sha256()
    cells = 0
    errors = {ShapleySampled: 0, ShapleyExact: 0}
    for trial in range(config.trials):
        g = random_qbag(config, trial)
        n = len(g)
        for sem in semantics:
            for topic_major in (True, False):
                cache = EvaluationCache(g, sem)
                methods = (ShapleySampled(100, trial), ShapleyExact())
                for method in methods if topic_major else methods[::-1]:
                    for a in range(n):
                        for b in range(n):
                            t, x = (a, b) if topic_major else (b, a)
                            try:
                                line = repr(cache.contribution(method, t, x))
                            except DomainError as exc:
                                line = f"DomainError: {exc}"
                                errors[type(method)] += 1
                            cells += 1
                            digest.update(line.encode() + b"\n")
    assert (cells, errors[ShapleySampled], errors[ShapleyExact]) == (41_104, 682, 810)
    assert digest.hexdigest() == _SHAPLEY_DIGEST


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
    # undefined for some topics, and a sweep raises the error of one of
    # them, while sweep_column raises the topic's first undefined grid
    # point's error, and a topic whose points are all defined reads them
    points = 21
    grid = [j / (points - 1) for j in range(points)]
    values = grid + [0.37, 1e-5, 1.0 - 1e-5, 0.5]
    failed = defined = spared = 0
    for g in random_graphs(seed=61, count=30, max_args=7):
        n = len(g)
        for semantics in (*PRESETS.values(), LINEAR_HALF):
            cache = EvaluationCache(g, semantics)
            try:
                cache.strengths()
            except DomainError:
                continue
            for x in range(n):
                rows = [cache.strengths_perturbed(x, value) for value in values]
                errors = [str(e) for row in rows for e in row if e.__class__ is DomainError]
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
                # the grid points come first, so a topic's first undefined
                # entry among them is its first undefined grid point's
                for t in reached:
                    column = tuple(row[t] for row in rows[:points])
                    undefined = [e for e in column if e.__class__ is DomainError]
                    if undefined:
                        with pytest.raises(DomainError) as swept:
                            cache.sweep_column(x, t, points)
                        assert str(swept.value) == str(undefined[0])
                    else:
                        assert cache.sweep_column(x, t, points) == column
                        spared += bool(errors)
    assert failed and defined and spared


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
    full = (1 << n) - 1
    total = 0.0
    for subset in range(1 << len(others)):
        removed = 0
        for j, i in enumerate(others):
            if (subset >> j) & 1:
                removed |= 1 << i
        kept = full & ~removed
        marginal = kept_strengths(cache, kept)[t] - kept_strengths(cache, kept & ~(1 << x))[t]
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
                    got = shapley_submask_sum(cache, t, x)
                    assert got == shapley_bit_by_bit(cache, t, x)
                    assert abs(got - shapley_bruteforce(g, semantics, topic, contributor)) <= 1e-12


def test_exact_shapley_cells_equal_the_submask_enumeration():
    # the m-player sum over the coalition table groups the terms of the
    # enumeration over kept-set vectors differently, so it may move last
    # digits, never more
    cells = 0
    for g in random_graphs(seed=73, count=40, max_args=9):
        for semantics in PRESETS.values():
            cache, reference = EvaluationCache(g, semantics), EvaluationCache(g, semantics)
            for t in range(len(g)):
                for x in range(len(g)):
                    if x != t and (cache.ancestors(t) >> x) & 1:
                        want = shapley_submask_sum(reference, t, x)
                        assert abs(cache.contribution(ShapleyExact(), t, x) - want) <= 1e-12
                        cells += 1
    assert cells > 1000


@pytest.mark.slow
def test_exact_shapley_cells_of_the_20_argument_supporters_graph():
    # 19 ancestors: a table of 2^19 strengths, against 2^19 kept-set vectors
    g = supporters_graph(19)
    cache, reference = EvaluationCache(g, QE), EvaluationCache(g, QE)
    for x in (1, 19):
        assert abs(cache.contribution(ShapleyExact(), 0, x) - shapley_submask_sum(reference, 0, x)) <= 1e-12


def test_the_exact_cap_counts_the_topic_and_its_ancestors_not_the_graph():
    # t has 12 ancestors among 2,000 arguments, and its ancestors reach 30
    # arguments outside its scope: the column fills under the default cap
    # and equals the submask enumeration of the graph restricted to t and
    # its ancestors; the prox-gradient-eb topics with 36 and 37 ancestors
    # stay refused, while the graph's other topics are admitted
    scope = [f"a{i}" for i in range(12)] + ["t"]
    names = scope + [f"z{i}" for i in range(1987)]
    arguments = [(name, (37 * i % 101) / 100) for i, name in enumerate(names)]
    edges = [(f"a{i}", "t") for i in range(6)] + [(f"a{i + 6}", f"a{i}") for i in range(6)]
    edges += [(f"a{i}", f"a{i - 1}") for i in range(7, 12)] + [(f"a{i % 12}", f"z{i}") for i in range(30)]
    edges += [(f"z{i}", f"z{i + 1}") for i in range(1986)] + [(f"z{i}", f"z{i + 7}") for i in range(0, 1980, 3)]
    g = QBAG(arguments, edges[::2], edges[1::2])
    restricted = restrict(g, scope)
    for semantics in (QE, DFQUAD):
        cache, reference = EvaluationCache(g, semantics), EvaluationCache(restricted, semantics)
        assert cache.ancestors(12) == (1 << 12) - 1
        column = [cache.contribution(ShapleyExact(), 12, x) for x in range(len(g))]
        assert column[12] is UNDEFINED and column[13:] == [0.0] * 1987
        for x in range(12):
            assert abs(column[x] - shapley_submask_sum(reference, 12, x)) <= 1e-12
        with pytest.raises(TooLarge, match="capped at 12 arguments, topic t with its ancestors has 13$"):
            cache.contribution(ShapleyExact(12), 12, 0)
    wide = load_example("prox-gradient-eb").graph
    cache = EvaluationCache(wide, EB)
    for topic, scope_size in (("a", 38), ("b", 37)):
        with pytest.raises(TooLarge, match=f"capped at 20 arguments, topic {topic} with its ancestors has {scope_size}$"):
            contribution(wide, EB, ShapleyExact(), topic, "c8", cache=cache)
    assert contribution(wide, EB, ShapleyExact(), "c8", "a", cache=cache) == 0.0


def test_exact_shapley_enumerates_where_a_coalition_may_be_undefined():
    # under sum + linear(0.5) a coalition may fail at any argument, an
    # ancestor of the topic or not: a cell fails exactly when the
    # enumeration over coalitions restricted to the topic's ancestors and
    # the topic fails, or equals it.  A coalition failing elsewhere fails
    # the enumeration over whole kept sets, and leaves the cell defined
    failed = defined = spared = 0
    for g in random_graphs(seed=79, count=30, max_args=6):
        cache, reference = EvaluationCache(g, LINEAR_HALF), EvaluationCache(g, LINEAR_HALF)
        try:
            cache.strengths()
        except DomainError:
            continue
        for t, topic in enumerate(g.arguments):
            for x, contributor in enumerate(g.arguments):
                if x == t or not (cache.ancestors(t) >> x) & 1:
                    continue
                try:
                    want = shapley_bruteforce(g, LINEAR_HALF, topic, contributor)
                except DomainError:
                    with pytest.raises(DomainError):
                        cache.contribution(ShapleyExact(), t, x)
                    failed += 1
                    continue
                assert abs(cache.contribution(ShapleyExact(), t, x) - want) <= 1e-12
                defined += 1
                try:
                    shapley_submask_sum(reference, t, x)
                except DomainError:
                    spared += 1
    assert failed and defined and spared


def test_null_players_leave_every_exact_shapley_cell_unchanged():
    # Shapley's null-player property, bit for bit: an isolated argument and a
    # child of argument 0 reach no original argument, so every cell among the
    # original arguments stays the same float
    ancestor_cells = 0
    for g in random_graphs(seed=11, count=80, max_args=8):
        arguments = [*zip(g.arguments, g._tau), ("isolated", 0.5), ("child", 0.5)]
        padded = QBAG(arguments, g.attacks, [*g.supports, (g.arguments[0], "child")])
        for semantics in PRESETS.values():
            cache, wide = EvaluationCache(g, semantics), EvaluationCache(padded, semantics)
            for t in range(len(g)):
                for x in range(len(g)):
                    assert wide.contribution(ShapleyExact(), t, x) == cache.contribution(ShapleyExact(), t, x)
                    ancestor_cells += x != t and (cache.ancestors(t) >> x) & 1
    assert ancestor_cells == 2390


def counted_passes(monkeypatch):
    """The evaluator of every full pass ``_Compiled.strengths`` makes from
    now on."""
    passes = []
    full_pass = _Compiled.strengths
    monkeypatch.setattr(_Compiled, "strengths", lambda self: passes.append(self) or full_pass(self))
    return passes


def test_the_coalition_table_fills_the_column_without_a_kept_set_pass(monkeypatch):
    # each s_i has a parent, so a bound of 1.0 per such parent would reject
    # linear(1.0) on t's six supporters, yet t's aggregate stays below 1 in
    # every coalition: one walk over t's ancestors fills the whole column,
    # keeps none of its coalitions, and no cell evaluates a kept set
    args = [("t", 0.5)] + [(f"s{i}", 0.1) for i in range(6)] + [(f"p{i}", 0.05) for i in range(6)]
    supports = [(f"s{i}", "t") for i in range(6)] + [(f"p{i}", f"s{i}") for i in range(6)]
    g, semantics = QBAG(args, supports=supports), GradualSemantics(Aggregation.SUM, Linear(1.0))
    cache = EvaluationCache(g, semantics)
    passes = counted_passes(monkeypatch)
    tracemalloc.start()
    try:
        cache.contribution(ShapleyExact(), 0, 1)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 * len(g) ** 2, kept
    assert len(passes) == 1  # the full-graph vector, and no other pass
    column = cache.column(ShapleyExact(), 0)
    assert _UNSET not in column and column[0] is UNDEFINED
    reference = EvaluationCache(g, semantics)
    for x in range(1, len(g)):
        assert abs(cache.contribution(ShapleyExact(), 0, x) - shapley_submask_sum(reference, 0, x)) <= 1e-12
    # a whole table walks each topic's ancestors once, and makes one pass
    passes.clear()
    contribution_table(g, semantics, ShapleyExact(), cache=EvaluationCache(g, semantics))
    assert len(passes) == 1


def test_an_exact_shapley_column_holds_one_table_of_its_topic_ancestors():
    # a 14-argument column reads a table of 2^m floats for the topic's m
    # ancestors and an array of 2^m per-rank weights, both dropped once the
    # column is filled: the cache keeps the column and no kept-set vector
    # (2^m of them took about 4 MB here)
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
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**m + 256_000, (m, peak)
        assert kept < 64 * n * n, (m, kept)
        assert all(cell is not _UNSET for cell in cache.column(ShapleyExact(), t))


def test_a_sampled_cell_holds_the_same_memory_at_any_permutation_count():
    # a 109-argument fuzz graph whose topic has 72 ancestors: each shuffle
    # re-folds its two coalitions on one vector, so 20x the permutations
    # peak at the same traced memory (the values are those of the sampler
    # that kept every coalition's vector: 181 KB and 3.7 MB here)
    g = random_qbag(FuzzConfig(seed=3, trials=1, max_args=120, edge_prob=0.05), 0)
    probe = EvaluationCache(g, QE)
    t = max(range(len(g)), key=lambda a: probe.ancestors(a).bit_count())
    x = next(a for a in range(len(g)) if (probe.ancestors(t) >> a) & 1)
    assert (len(g), probe.ancestors(t).bit_count()) == (109, 72)
    values, peaks = [], []
    for permutations in (50, 1000):
        cache = EvaluationCache(g, QE)
        tracemalloc.start()
        try:
            values.append(cache.contribution(ShapleySampled(permutations, 1), t, x))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert values == [-0.12726600801532298, -0.12942884168406757]
    assert abs(peaks[1] - peaks[0]) < 4096 and peaks[1] < 64_000, peaks


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
                        column = _probe_row(cache, cfg, x)[t]
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
    single = cache.strengths_perturbed(0, 0.5 + 1e-2)[1]
    assert single.__class__ is DomainError
    # at this eq_tol every radius is below the probe headroom: local
    # faithfulness reads no probe, so the undefined ones cannot fail it
    coarse = CheckConfig(eq_tol=1e-2)
    report = run_check(g, semantics, Removal(), PrincipleId.LOCAL_FAITHFULNESS, "d", coarse, cache=cache)
    assert report.satisfied and report.witness == {}
    assert _probe_row(cache, coarse, 0)[1][1] == cache.strengths_perturbed(0, 0.5 - 1e-2)[1]
    # a check that reads an undefined probe fails with the error of that
    # probe's own evaluation, every time it reads it
    for principle in (PrincipleId.LOCAL_FAITHFULNESS, PrincipleId.QUANT_LOCAL_FAITHFULNESS):
        for _ in range(2):
            with pytest.raises(DomainError) as read:
                run_check(g, semantics, Removal(), principle, "d", cache=cache)
            assert str(read.value) == str(single)


def test_quantitative_local_faithfulness_raises_where_the_probe_scan_did():
    # y - x is d's aggregate, 0.5 at tau(x) = 0.5: every probe below tau(x)
    # leaves the domain of linear(0.5), every probe above it does not.  The
    # + direction is read first: a witness there ends the check without
    # the error, and only a + direction without one reaches the error
    g = QBAG([("x", 0.5), ("y", 1.0), ("d", 0.2)], attacks=[("x", "d")], supports=[("y", "d")])
    cache = EvaluationCache(g, LINEAR_HALF)
    single = cache.strengths_perturbed(0, 0.5 - 1e-2)[2]
    assert single.__class__ is DomainError

    def steep(graph, semantics, topic, contributor):
        return 5.0

    for _ in range(2):
        report = run_check(g, LINEAR_HALF, steep, PrincipleId.QUANT_LOCAL_FAITHFULNESS, "d", cache=cache)
        assert report.witness["contributor"] == "x" and report.witness["direction"] == 1.0
        with pytest.raises(DomainError) as read:
            run_check(g, LINEAR_HALF, Gradient(), PrincipleId.QUANT_LOCAL_FAITHFULNESS, "d", cache=cache)
        assert str(read.value) == str(single)


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
            # a built-in method's checks visit only the topic's ancestors, so
            # they sweep exactly where some topic has one
            assert bool(cache._sweeps) == any(cache.ancestors(t) for t in range(len(g)))


_CHAIN = [f"b{i}" for i in range(400)]
_UNRELATED = [f"o{i}" for i in range(2000)]
# (arguments, supports, semantics, x's cone, bytes allowed per stored entry)
_LONG_SWEEPS = (
    # 400 arguments in a supporting chain beside x -> y -> z: x's cone has
    # three arguments, so a 10,001-point sweep must hold about 3 x 10,001
    # values, not 10,001 vectors of 403
    (
        [(name, 0.5) for name in _CHAIN] + [("x", 0.5), ("y", 0.4), ("z", 0.3)],
        [*zip(_CHAIN, _CHAIN[1:]), ("x", "y"), ("y", "z")],
        QE,
        "xyz",
        100,
    ),
    # x (0.1) and s (0.3) support d (0.5) beside 2,000 unrelated arguments:
    # under sum + Linear(0.5), d leaves the domain once x passes 0.2, so the
    # sweep goes point by point and about 8,000 entries hold an error; it
    # must still keep only x's and d's entries of each point
    (
        [("x", 0.1), ("s", 0.3), ("d", 0.5)] + [(name, 0.5) for name in _UNRELATED],
        [("x", "d"), ("s", "d")],
        LINEAR_HALF,
        "xd",
        400,
    ),
)


def test_a_long_sweep_holds_points_times_cone():
    points = 10_001
    for arguments, supports, semantics, cone, per_entry in _LONG_SWEEPS:
        g = QBAG(arguments, supports=supports)
        x = g.index_of("x")
        cache = EvaluationCache(g, semantics)
        cache.strengths()
        tracemalloc.start()
        try:
            columns = cache.sweep(x, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(columns) == sorted(g.index_of(a) for a in cone)
        assert peak < per_entry * points * len(cone), (cone, peak)
        for j in (0, 1234, points - 1):
            try:
                want = strength_vector(with_initial_strength(g, "x", j / (points - 1)), semantics)
            except DomainError as exc:
                # the last of the cone is undefined there and holds the error
                # a full pass raises; x, with no parent, holds its initial
                # strength
                error = columns[g.index_of(cone[-1])][j]
                assert error.__class__ is DomainError and str(error) == str(exc)
                assert columns[x][j] == j / (points - 1)
                continue
            assert all(column[j] == want[t] for t, column in columns.items()), (cone, j)


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
            one_pass(cache, g, semantics, CONFIGS, METHODS)
            # the sampler keeps its cells and no coalition: its pass adds its
            # n cell columns of n cells
            tracemalloc.start()
            try:
                one_pass(cache, g, semantics, CONFIGS, (ShapleySampled(permutations, 3),))
                sampled, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sampled < 1024 + 64 * n * n, (n, sampled)
            # the stores the class docstring lists, none indexed by coalition
            stores = {"_full", "_removed", "_severed", "_sweeps", "_columns", "_descendants", "_ancestors"}
            stores |= {"_closer_pairs", "_walk_errors", "derived", "plan"}
            assert set(vars(cache)) == {"graph", "semantics", "_comp", *stores}
            assert cache._full == tuple(_Compiled(g, semantics).strengths())
            for store in (cache._removed, cache._severed):
                assert len(store) == n
                for x, changed in enumerate(store):
                    assert changed is None or set(changed) == set(cache._descendants_of(x))
            # one sweep per (argument, grid point count or in-range probe
            # points), with one column per topic the argument reaches
            allowed = {(x, p) for x in range(n) for p in grids}
            for x, tau in enumerate(g._tau):
                for schedule in schedules:
                    points = [p for d in schedule for p in (tau + d, tau - d)]
                    allowed.add((x, tuple([p for p in points if 0.0 <= p <= 1.0])))
            assert set(cache._sweeps) <= allowed
            for (x, _), columns in cache._sweeps.items():
                assert set(columns) == {x, *cache._descendants_of(x)}
            assert len(cache._columns) <= len(METHODS) + 1
            assert all(len(columns) == n for columns in cache._columns.values())
            # three visit orders, n x n contradictions per (grid_points,
            # eq_tol), and one n x n probe table per eps schedule, which both
            # local-faithfulness checkers read
            assert len(cache.derived) <= 3 + len(tables) + len(schedules)
            for key, rows in cache.derived.items():
                assert len(rows) == n and all(row is None or len(row) <= n for row in rows), key
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                copies = tuple(None if cfg is None else CheckConfig(**vars(cfg)) for cfg in CONFIGS)
                one_pass(cache, g, semantics, copies, METHODS + (ShapleySampled(permutations, 3),))
                del copies
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            grown.append(after - before)
    assert max(grown) < 4096, grown


def test_a_failing_grid_sweep_is_computed_once(monkeypatch):
    # d's aggregate tau(x) + 0.1 leaves [-0.5, 0.5] from grid point 0.41 on:
    # the first check sweeps x once, evaluates each grid point once and
    # keeps the errors; the later checks raise the stored error
    g = QBAG([("x", 0.3), ("y", 0.1), ("d", 0.1)], [], [("x", "d"), ("y", "d")])
    calls = {"_sweep_columns": 0, "strengths_perturbed": 0}
    for name in calls:

        def counted(self, *args, _name=name, _method=getattr(EvaluationCache, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(EvaluationCache, name, counted)
    cache = EvaluationCache(g, LINEAR_HALF)
    message = "linear influence domain is [-0.5, 0.5], got aggregate 0.51"
    depths = []
    for _ in range(5):
        with pytest.raises(DomainError, match=re.escape(message)) as read:
            run_check(g, LINEAR_HALF, Removal(), PrincipleId.STRONG_FAITHFULNESS, "d", cache=cache)
        depths.append(len(traceback.extract_tb(read.value.__traceback__)))
    assert calls == {"_sweep_columns": 1, "strengths_perturbed": 101}
    # a stored error is raised without the tracebacks of its earlier raises
    assert len(set(depths)) == 1, depths


@pytest.mark.parametrize("points", [-1, 0, 1, contributions.MAX_SWEEP_POINTS + 1])
def test_a_grid_sweep_needs_two_to_max_sweep_points(points, monkeypatch):
    # a grid needs two points (j / (points - 1)), and a stored sweep holds
    # points floats per reached topic: a count outside [2, MAX_SWEEP_POINTS]
    # raises ValueError, for a topic x reaches and for one it does not,
    # before anything is evaluated or kept
    monkeypatch.setattr(EvaluationCache, "_sweep_columns", None)
    g = QBAG([("x", 0.3), ("u", 0.1), ("d", 0.1)], [], [("x", "d")])
    cache = EvaluationCache(g, QE)
    message = f"a sweep has between 2 and {contributions.MAX_SWEEP_POINTS} points, got {points}"
    reads = (
        lambda: cache.sweep(0, points),
        lambda: cache.sweep_column(0, 2, points),  # x reaches d
        lambda: cache.sweep_column(0, 1, points),  # but not u
    )
    for read in reads:
        with pytest.raises(ValueError, match=re.escape(message)):
            read()
    assert cache._sweeps == {}


def test_unreached_topics_read_base_grids_and_base_probes():
    # x supports d, and u stands alone; every probe above tau(x) = 0.5 lifts
    # d's aggregate out of [-0.5, 0.5].  Grid and probe sweeps of x give the
    # topic u, which x does not reach, its base strength at every point, so
    # the three sibling checkers all report x's 5.0 as a violation on u;
    # on d, which reads the undefined points, all three raise
    g = QBAG([("x", 0.5), ("d", 0.2), ("u", 0.3)], [], [("x", "d")])

    def steep(graph, semantics, topic, contributor):
        return 5.0 if contributor == "x" else 0.0

    cache = EvaluationCache(g, LINEAR_HALF)
    principles = (PrincipleId.STRONG_FAITHFULNESS, PrincipleId.LOCAL_FAITHFULNESS, PrincipleId.QUANT_LOCAL_FAITHFULNESS)
    for _ in range(2):
        witnesses = [run_check(g, LINEAR_HALF, steep, principle, "u", cache=cache).witness for principle in principles]
        assert witnesses[0] == {"contributor": "x", "contribution": 5.0, "epsilon": 0.0, "strength_diff": 0.0}
        schedule = CheckConfig().eps_schedule
        assert witnesses[1]["probes"] == [(0.5 + sign * eps, 0.0) for eps in schedule for sign in (1.0, -1.0)]
        assert witnesses[2]["direction"] == 1.0 and witnesses[2]["error_ratios"][-1] > 1.0
        for principle in principles:
            with pytest.raises(DomainError, match=re.escape("got aggregate 0.51")):
                run_check(g, LINEAR_HALF, steep, principle, "d", cache=cache)


def fan(k, supporter_strength, attackers=()):
    """15 supporters of one topic under sum + linear(k), plus ``attackers``
    as (name, strength) pairs listed right after the topic."""
    supporters = [(f"b{i}", supporter_strength) for i in range(15)]
    g = QBAG([("t", 0.5), *attackers, *supporters], [(a, "t") for a, _ in attackers], [(b, "t") for b, _ in supporters])
    return g, GradualSemantics(Aggregation.SUM, Linear(k))


def test_a_sum_bounded_by_its_parents_strengths_fills_the_coalition_table(monkeypatch):
    # 15 supporters of 0.05 never lift the topic's aggregate above 0.75, so
    # under linear(1) no coalition is undefined whatever the in-degree: the
    # column comes from the coalition table, with no kept-set pass
    g, semantics = fan(1.0, 0.05)
    cache, reference = EvaluationCache(g, semantics), EvaluationCache(g, semantics)
    passes = counted_passes(monkeypatch)
    column = [cache.contribution(ShapleyExact(), 0, x) for x in range(len(g))]
    assert len(passes) == 1
    assert column[0] is UNDEFINED
    assert all(abs(column[x] - shapley_submask_sum(reference, 0, x)) <= 1e-12 for x in range(1, len(g)))
    # with an attacker of 0.05 the full graph's aggregate is 0.7, but the
    # supporters alone reach 0.75, just over linear(0.7499)'s domain: the
    # walk's first step removes the attacker and fails there, with the
    # error of the enumeration's first coalition and no kept-set pass
    g, semantics = fan(0.7499, 0.05, [("a", 0.05)])
    cache = EvaluationCache(g, semantics)
    with pytest.raises(DomainError) as want:
        shapley_submask_sum(EvaluationCache(g, semantics), 0, 2)
    passes.clear()
    for x in (2, 1, 16):
        with pytest.raises(DomainError, match=re.escape(str(want.value))):
            cache.contribution(ShapleyExact(), 0, x)
    assert len(passes) == 1


def test_a_failure_off_the_topics_ancestors_leaves_its_results_defined():
    # s1, s2 (0.5) support u (0.2), a (0.5) attacks u, and x (0.3) supports
    # t (0.4), under sum + linear(0.6): removing a lifts u's aggregate to
    # 1.0, but no argument of u's component reaches t, so every cell of t is
    # a number, and every check on t a report, except strong faithfulness,
    # whose grid of x lifts t's own aggregate to 0.61
    g = QBAG(
        [("s1", 0.5), ("s2", 0.5), ("u", 0.2), ("a", 0.5), ("x", 0.3), ("t", 0.4)],
        [("a", "u")],
        [("s1", "u"), ("s2", "u"), ("x", "t")],
    )
    semantics = GradualSemantics(Aggregation.SUM, Linear(0.6))
    methods = (Removal(), IntrinsicRemoval(), ShapleyExact(), ShapleySampled(50, 1), Gradient())
    want = {
        Removal: 0.29999999999999993,
        IntrinsicRemoval: 0.29999999999999993,
        ShapleyExact: 0.29999999999999993,
        ShapleySampled: shapley_sampled_reference(g, semantics, "t", "x", 50, 1),
        Gradient: 1.0,
    }
    for method in methods:
        cells = [EvaluationCache(g, semantics).contribution(method, 5, x) for x in range(5)]
        assert cells == [0.0, 0.0, 0.0, 0.0, want[type(method)]], method
    cache = EvaluationCache(g, semantics)
    for method in methods:
        for principle in PrincipleId:
            if principle is PrincipleId.STRONG_FAITHFULNESS:
                with pytest.raises(DomainError, match=re.escape("got aggregate 0.61")):
                    run_check(g, semantics, method, principle, "t", cache=cache)
            else:
                assert run_check(g, semantics, method, principle, "t", cache=cache).topic == "t"
    # a's removal store holds u's error, which a cell of u raises
    with pytest.raises(DomainError, match=re.escape("got aggregate 1.0")):
        cache.contribution(Removal(), 2, 3)
    assert cache._removed[3][2].__class__ is DomainError


BUILT_IN_METHODS = (Removal(), IntrinsicRemoval(), ShapleyExact(), ShapleySampled(20, 7), Gradient())
# the presets, and linear influences whose domain many pool graphs leave
DIRECTIONALITY_SEMANTICS = (
    *PRESETS.values(),
    *(GradualSemantics(kind, Linear(k)) for kind in Aggregation for k in (0.5, 1.0, 1.5)),
)


def test_every_built_in_method_gives_non_ancestors_an_exact_zero():
    # each cell of an argument that does not reach the topic is +0.0, asked
    # for first on a fresh cache and after the topic's other cells; where
    # the graphs it reads are defined, it equals the definitions' values:
    # the full graph's strength minus the graph's without the contributor,
    # and the plain reverse pass
    pairs = undefined = 0
    for g in random_graphs(seed=1009, count=30, max_args=6):
        n = len(g)
        for semantics in DIRECTIONALITY_SEMANTICS:
            try:
                base = strength_vector(g, semantics)
            except DomainError:
                base = None
                undefined += 1
            for t in range(n):
                reach = EvaluationCache(g, semantics).ancestors(t)
                outside = [x for x in range(n) if x != t and not (reach >> x) & 1]
                for method in BUILT_IN_METHODS:
                    first = EvaluationCache(g, semantics)
                    cells = [first.contribution(method, t, x) for x in outside]
                    last = EvaluationCache(g, semantics)
                    for x in range(n):
                        if x not in outside:
                            try:
                                last.contribution(method, t, x)
                            except DomainError:
                                pass
                    cells += [last.contribution(method, t, x) for x in outside]
                    assert all(c == 0.0 and math.copysign(1.0, c) == 1.0 for c in cells), (g, semantics.label(), t, method)
                if base is None:
                    continue
                topic = g.arguments[t]
                partials = gradient_of_topic(g, semantics, topic)
                for x in outside:
                    name = g.arguments[x]
                    assert partials[name] == 0.0
                    try:
                        without = evaluate(restrict(g, [a for a in g.arguments if a != name]), semantics)[topic]
                    except DomainError:
                        continue
                    assert base[t] - without == 0.0
                    pairs += 1
    assert pairs > 1000 and undefined


def test_a_cone_entry_holds_the_error_of_the_first_failing_node_it_reads():
    # without x, p's aggregate is 0.8 and q's 0.7, both out of [-0.5, 0.5];
    # t's parents list its attacker q before its supporter p, but p fails
    # first in topological order, so t's removal entry holds p's error, the
    # one a full pass of the graph without x raises
    g = QBAG(
        [("x", 0.3), ("y", 0.8), ("z", 0.7), ("p", 0.2), ("q", 0.2), ("t", 0.5)],
        [("x", "p"), ("x", "q"), ("q", "t")],
        [("y", "p"), ("z", "q"), ("p", "t")],
    )
    with pytest.raises(DomainError) as full:
        evaluate(restrict(g, g.arguments[1:]), LINEAR_HALF)
    cache = EvaluationCache(g, LINEAR_HALF)
    for topic, message in (("p", str(full.value)), ("q", "got aggregate 0.7"), ("t", str(full.value))):
        with pytest.raises(DomainError, match=re.escape(message)):
            cache.contribution(Removal(), g.index_of(topic), 0)
    assert "got aggregate 0.8" in str(full.value)


def test_a_failing_coalition_table_raises_every_cell_from_one_walk(monkeypatch):
    # t (0.5) with fourteen supporters of 0.06, then four attackers of 0.05,
    # under sum + linear(0.8): only the coalition that keeps every supporter
    # and no attacker leaves the domain.  The first exact cell walks t's 18
    # ancestors once and raises there; t keeps that error, and the other 17
    # cells raise it with no further walk and no kept-set pass
    args = [("t", 0.5)] + [(f"s{i}", 0.06) for i in range(14)] + [(f"a{i}", 0.05) for i in range(4)]
    g = QBAG(args, [(f"a{i}", "t") for i in range(4)], [(f"s{i}", "t") for i in range(14)])
    semantics = GradualSemantics(Aggregation.SUM, Linear(0.8))
    walks = []
    walk = contributions._coalition_table
    monkeypatch.setattr(contributions, "_coalition_table", lambda *a: walks.append(a[1]) or walk(*a))
    passes = counted_passes(monkeypatch)
    cache = EvaluationCache(g, semantics)
    for x in range(1, 19):
        with pytest.raises(DomainError, match=re.escape("got aggregate 0.8400000000000003")):
            cache.contribution(ShapleyExact(), 0, x)
    assert walks == [0] and len(passes) == 1
    assert cache.column(ShapleyExact(), 0) == [_UNSET] * 19
