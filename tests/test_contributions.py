import math

import pytest

from qbag import (
    DFQUAD,
    CheckConfig,
    EvaluationCache,
    FuzzConfig,
    Gradient,
    IntrinsicRemoval,
    QBAG,
    QE,
    Removal,
    ShapleyExact,
    ShapleySampled,
    TooLarge,
    UNDEFINED,
    UnknownArgument,
    contrib_intrinsic_removal,
    contrib_removal,
    contribution,
    contribution_table,
    evaluate,
    method_by_name,
    reaches,
    restrict,
)
from qbag.contributions import _coalition_table
from qbag.semantics import PRESETS

from conftest import random_graphs, shapley_bruteforce


def chain_graph():
    return QBAG([("a", 0.5), ("b", 0.5), ("c", 0.5)], attacks=[("b", "a")], supports=[("c", "b")])


# Reference contribution table for the chain graph under the linear rule.
U = UNDEFINED
REFERENCE_TABLE = {
    "removal": {"a": (U, 0.0, 0.0), "b": (-0.375, U, 0.0), "c": (-0.125, 0.25, U)},
    "intrinsic-removal": {"a": (U, 0.0, 0.0), "b": (-0.25, U, 0.0), "c": (-0.125, 0.25, U)},
    "shapley": {"a": (U, 0.0, 0.0), "b": (-0.3125, U, 0.0), "c": (-0.0625, 0.25, U)},
    "gradient": {"a": (0.25, 0.0, 0.0), "b": (-0.25, 0.5, 0.0), "c": (-0.25, 0.5, 1.0)},
}


class TestReferenceTable:
    @pytest.mark.parametrize("method_name", sorted(REFERENCE_TABLE))
    def test_full_matrix(self, method_name):
        table = contribution_table(chain_graph(), DFQUAD, method_by_name(method_name))
        for contributor, row in REFERENCE_TABLE[method_name].items():
            for topic, expected in zip("abc", row):
                actual = table.value(contributor, topic)
                if expected is U:
                    assert actual is UNDEFINED
                else:
                    assert actual == pytest.approx(expected, abs=1e-9)

    def test_diagonal_rule(self):
        g = chain_graph()
        table = contribution_table(g, DFQUAD, Gradient())
        assert all(not isinstance(table.value(n, n), type(UNDEFINED)) for n in g.arguments)
        for method in (Removal(), IntrinsicRemoval(), ShapleyExact()):
            table = contribution_table(g, DFQUAD, method)
            assert all(table.value(n, n) is UNDEFINED for n in g.arguments)


class TestRemoval:
    def test_is_the_removal_delta_exactly(self):
        for g in random_graphs(seed=21, count=30):
            for sem in PRESETS.values():
                full = evaluate(g, sem)
                for x in g.arguments:
                    rest = evaluate(restrict(g, [n for n in g.arguments if n != x]), sem)
                    for a in g.arguments:
                        if a == x:
                            continue
                        assert contrib_removal(g, sem, a, x) == full[a] - rest[a]

    def test_self_contribution_undefined(self):
        assert contrib_removal(chain_graph(), DFQUAD, "a", "a") is UNDEFINED

    def test_zero_without_path(self):
        g = QBAG([("a", 0.5), ("b", 0.7)], attacks=[("a", "b")])
        assert contrib_removal(g, DFQUAD, "a", "b") == 0.0

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            contrib_removal(chain_graph(), DFQUAD, "a", "zz")


class TestIntrinsicRemoval:
    def test_equals_removal_for_parentless_contributor(self):
        g = chain_graph()
        for sem in PRESETS.values():
            assert contrib_intrinsic_removal(g, sem, "a", "c") == contrib_removal(g, sem, "a", "c")

    def test_chain_value(self):
        assert contrib_intrinsic_removal(chain_graph(), DFQUAD, "a", "b") == pytest.approx(
            -0.25, abs=1e-12
        )


class TestShapleyExact:
    def test_matches_bruteforce_on_chain(self):
        g = chain_graph()
        for sem in PRESETS.values():
            for topic in g.arguments:
                for x in g.arguments:
                    if x == topic:
                        continue
                    expected = shapley_bruteforce(g, sem, topic, x)
                    assert contribution(g, sem, ShapleyExact(), topic, x) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_matches_bruteforce_on_random_graphs(self):
        for g in random_graphs(seed=22, count=12, max_args=5):
            for sem in PRESETS.values():
                for topic in g.arguments:
                    for x in g.arguments:
                        if x == topic:
                            continue
                        expected = shapley_bruteforce(g, sem, topic, x)
                        assert contribution(g, sem, ShapleyExact(), topic, x) == pytest.approx(
                            expected, abs=1e-10
                        )

    def test_two_argument_graph_equals_removal(self):
        g = QBAG([("a", 0.5), ("x", 0.8)], supports=[("x", "a")])
        for sem in PRESETS.values():
            assert contribution(g, sem, ShapleyExact(), "a", "x") == pytest.approx(
                contrib_removal(g, sem, "a", "x"), abs=1e-12
            )

    def test_fan_graph_tiny_positive_value(self):
        g = QBAG(
            [("a", 0.1), ("b", 0.15), ("c", 0.15), ("d", 0.15), ("e", 0.495), ("f", 1.0)],
            attacks=[("b", "a"), ("c", "a")],
            supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
        )
        assert contribution(g, QE, ShapleyExact(), "a", "e") == pytest.approx(4.9326e-05, abs=1e-8)

    def test_efficiency_on_random_graphs(self):
        for g in random_graphs(seed=23, count=25, max_args=8):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                sigma = evaluate(g, sem)
                for topic in g.arguments:
                    total = sum(
                        contribution(g, sem, ShapleyExact(), topic, x, cache=cache)
                        for x in g.arguments
                        if x != topic
                    )
                    assert total == pytest.approx(
                        sigma[topic] - g.initial_strength(topic), abs=1e-9
                    )

    def test_exact_cap(self):
        # the cap counts the topic and its ancestors, not the graph: in 22
        # arguments, x0 with its 21 ancestors is refused and x1 with y is not
        supports = [(f"x{i}", "x0") for i in range(1, 21)] + [("y", "x1")]
        g = QBAG([(f"x{i}", 0.5) for i in range(21)] + [("y", 0.5)], supports=supports)
        for cap in (20, 21):
            with pytest.raises(TooLarge, match=f"capped at {cap} arguments, topic x0 with its ancestors has 22$"):
                contribution(g, QE, ShapleyExact(cap), "x0", "x1")
        removal = contrib_removal(g, QE, "x1", "y")
        assert removal > 0.0
        for method in (ShapleyExact(), ShapleyExact(2)):
            assert contribution(g, QE, method, "x1", "y") == removal
        with pytest.raises(TooLarge, match="capped at 1 arguments, topic x1 with its ancestors has 2$"):
            contribution(g, QE, ShapleyExact(1), "x1", "y")

    def test_cache_and_fresh_agree(self):
        g = chain_graph()
        cache = EvaluationCache(g, QE)
        for topic in g.arguments:
            for x in g.arguments:
                if x == topic:
                    continue
                fresh = contribution(g, QE, ShapleyExact(), topic, x)
                assert contribution(g, QE, ShapleyExact(), topic, x, cache=cache) == fresh


class TestShapleySampled:
    def test_converges_to_exact_on_chain(self):
        g = chain_graph()
        for topic in g.arguments:
            for x in g.arguments:
                if x == topic:
                    continue
                exact = contribution(g, DFQUAD, ShapleyExact(), topic, x)
                estimate = contribution(g, DFQUAD, ShapleySampled(100_000, 77), topic, x)
                assert estimate == pytest.approx(exact, abs=0.01)

    def test_estimates_lie_within_five_exact_standard_errors(self):
        # a cell averages 50 permutation marginals of x; its standard error
        # is the exact spread of that marginal over the coalitions of the
        # other ancestors, each weighted by its Shapley weight (the spread of
        # the 50 samples understates heavy-tailed marginals).  A cell whose
        # spread is zero up to rounding must equal the exact cell; all cells
        # of a topic share their permutations, so they sum to its total
        method = ShapleySampled(50, 7)
        worst, cells, settled = 0.0, 0, 0
        for g in random_graphs(seed=3, count=200, max_args=8):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for t in range(len(g)):
                    reach = cache.ancestors(t)
                    ancestors = [a for a in range(len(g)) if (reach >> a) & 1]
                    m = len(ancestors)
                    table = _coalition_table(cache, t, ancestors)
                    estimates = []
                    for j, x in enumerate(ancestors):
                        exact = cache.contribution(ShapleyExact(), t, x)
                        estimates.append(cache.contribution(method, t, x))
                        variance = math.fsum(
                            math.factorial(r.bit_count()) * math.factorial(m - 1 - r.bit_count()) / math.factorial(m)
                            * (table[r] - table[r | 1 << j] - exact) ** 2
                            for r in range(1 << m)
                            if not (r >> j) & 1
                        )
                        error = math.sqrt(variance / method.permutations)
                        if error <= 1e-12:
                            assert abs(estimates[-1] - exact) <= 1e-12, (g, sem, t, x)
                            settled += 1
                        else:
                            worst = max(worst, abs(estimates[-1] - exact) / error)
                        cells += 1
                    gap = math.fsum(estimates) - (cache.strengths()[t] - g._tau[t])
                    assert abs(gap) <= 1e-9, (g, sem, t)
        assert cells == 5465 and 0 < settled < cells
        assert worst <= 5.0

    def test_deterministic_given_seed(self):
        g = chain_graph()
        one = contribution(g, DFQUAD, ShapleySampled(1, 123), "a", "b")
        two = contribution(g, DFQUAD, ShapleySampled(1, 123), "a", "b")
        assert one == two  # bit for bit
        method = ShapleySampled(500, 5)
        assert contribution(g, DFQUAD, method, "a", "b") == contribution(g, DFQUAD, method, "a", "b")

    def test_unreachable_contributor_is_exactly_zero(self):
        g = QBAG(
            [("a", 0.5), ("b", 0.7), ("z", 0.9)], attacks=[("b", "a")], supports=[("a", "z")]
        )
        assert not reaches(g, "z", "a")
        assert contribution(g, QE, ShapleySampled(50, 3), "a", "z") == 0.0

    def test_rejects_zero_permutations(self):
        with pytest.raises(ValueError):
            ShapleySampled(0, 1)

    def test_rejects_seeds_beyond_64_bits(self):
        # the generator keeps 64 bits of state: these seeds used to alias
        # the seed 2**64 away, as a separate cache key
        for seed in (-1, 1 << 64, (1 << 64) + 5):
            with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
                ShapleySampled(10, seed)
        assert ShapleySampled(10, (1 << 64) - 1).seed == (1 << 64) - 1


class TestGradientContribution:
    def test_total_including_self(self):
        g = chain_graph()
        assert contribution(g, DFQUAD, Gradient(), "a", "a") == pytest.approx(0.25, abs=1e-12)
        assert contribution(g, DFQUAD, Gradient(), "c", "c") == 1.0
        assert contribution(g, DFQUAD, Gradient(), "b", "b") == pytest.approx(0.5, abs=1e-12)


class TestDispatchAndTables:
    def test_method_by_name(self):
        assert isinstance(method_by_name("removal"), Removal)
        assert isinstance(method_by_name("intrinsic-removal"), IntrinsicRemoval)
        assert isinstance(method_by_name("shapley"), ShapleyExact)
        assert isinstance(method_by_name("gradient"), Gradient)
        sampled = method_by_name("shapley-sampled", permutations=10, seed=4)
        assert sampled == ShapleySampled(10, 4)
        with pytest.raises(ValueError):
            method_by_name("nope")

    def test_callable_method_escape_hatch(self):
        stub = lambda g, sem, topic, contributor: 1.0  # noqa: E731
        assert contribution(chain_graph(), QE, stub, "a", "b") == 1.0

    def test_edgeless_tables(self):
        g = QBAG([("a", 0.5), ("b", 0.7)])
        removal = contribution_table(g, QE, Removal())
        assert removal.value("a", "b") == 0.0 and removal.value("b", "a") == 0.0
        assert removal.value("a", "a") is UNDEFINED
        gradient = contribution_table(g, QE, Gradient())
        assert gradient.value("a", "a") == 1.0 and gradient.value("b", "b") == 1.0
        assert gradient.value("a", "b") == 0.0

    def test_directionality_of_all_methods(self):
        methods = [Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()]
        for g in random_graphs(seed=24, count=15):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for method in methods:
                    for topic in g.arguments:
                        for x in g.arguments:
                            if x == topic or reaches(g, x, topic):
                                continue
                            value = contribution(g, sem, method, topic, x, cache=cache)
                            assert value == 0.0  # exact, not approximate


class _Index:
    """An integer-like object, as :func:`operator.index` accepts it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "build, fields",
    [
        (CheckConfig, {"grid_points": 50.5}),
        (ShapleySampled, {"permutations": 2.5, "seed": 1}),
        (ShapleySampled, {"permutations": 3, "seed": 1.5}),
        (ShapleyExact, {"cap": 2.5}),
        (ShapleyExact, {"cap": 0}),
        (FuzzConfig, {"seed": 1.5, "trials": 1}),
        (FuzzConfig, {"seed": 1, "trials": 2.0}),
        (FuzzConfig, {"seed": 1, "trials": 1, "max_args": 5.5}),
    ],
)
def test_counts_are_integers_from_construction(build, fields):
    # a non-integer count used to construct and fail later, inside a check,
    # a cell or a search, with a bare TypeError
    with pytest.raises(ValueError):
        build(**fields)
    # whatever operator.index accepts is stored as that int
    made = build(**{name: _Index(3) for name in fields})
    assert all(getattr(made, name).__class__ is int for name in fields)
