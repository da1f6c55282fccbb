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
    contrib_gradient,
    contrib_intrinsic_removal,
    contrib_removal,
    contrib_shapley_exact,
    contrib_shapley_sampled,
    contribution,
    contribution_table,
    evaluate,
    method_by_name,
    reaches,
    restrict,
)
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
                    assert contrib_shapley_exact(g, sem, topic, x) == pytest.approx(
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
                        assert contrib_shapley_exact(g, sem, topic, x) == pytest.approx(
                            expected, abs=1e-10
                        )

    def test_two_argument_graph_equals_removal(self):
        g = QBAG([("a", 0.5), ("x", 0.8)], supports=[("x", "a")])
        for sem in PRESETS.values():
            assert contrib_shapley_exact(g, sem, "a", "x") == pytest.approx(
                contrib_removal(g, sem, "a", "x"), abs=1e-12
            )

    def test_fan_graph_tiny_positive_value(self):
        g = QBAG(
            [("a", 0.1), ("b", 0.15), ("c", 0.15), ("d", 0.15), ("e", 0.495), ("f", 1.0)],
            attacks=[("b", "a"), ("c", "a")],
            supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
        )
        assert contrib_shapley_exact(g, QE, "a", "e") == pytest.approx(4.9326e-05, abs=1e-8)

    def test_efficiency_on_random_graphs(self):
        for g in random_graphs(seed=23, count=25, max_args=8):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                sigma = evaluate(g, sem)
                for topic in g.arguments:
                    total = sum(
                        contrib_shapley_exact(g, sem, topic, x, cache=cache)
                        for x in g.arguments
                        if x != topic
                    )
                    assert total == pytest.approx(
                        sigma[topic] - g.initial_strength(topic), abs=1e-9
                    )

    def test_exact_cap(self):
        g = QBAG([(f"x{i}", 0.5) for i in range(21)])
        with pytest.raises(TooLarge):
            contrib_shapley_exact(g, QE, "x0", "x1")
        assert contrib_shapley_exact(g, QE, "x0", "x1", exact_cap=21) == 0.0

    def test_cache_and_fresh_agree(self):
        g = chain_graph()
        cache = EvaluationCache(g, QE)
        for topic in g.arguments:
            for x in g.arguments:
                if x == topic:
                    continue
                assert contrib_shapley_exact(g, QE, topic, x, cache=cache) == contrib_shapley_exact(
                    g, QE, topic, x
                )


class TestShapleySampled:
    def test_converges_to_exact_on_chain(self):
        g = chain_graph()
        for topic in g.arguments:
            for x in g.arguments:
                if x == topic:
                    continue
                exact = contrib_shapley_exact(g, DFQUAD, topic, x)
                estimate = contrib_shapley_sampled(g, DFQUAD, topic, x, 100_000, seed=77)
                assert estimate == pytest.approx(exact, abs=0.01)

    def test_deterministic_given_seed(self):
        g = chain_graph()
        one = contrib_shapley_sampled(g, DFQUAD, "a", "b", 1, seed=123)
        two = contrib_shapley_sampled(g, DFQUAD, "a", "b", 1, seed=123)
        assert one == two  # bit for bit
        assert contrib_shapley_sampled(g, DFQUAD, "a", "b", 500, seed=5) == contrib_shapley_sampled(
            g, DFQUAD, "a", "b", 500, seed=5
        )

    def test_unreachable_contributor_is_exactly_zero(self):
        g = QBAG(
            [("a", 0.5), ("b", 0.7), ("z", 0.9)], attacks=[("b", "a")], supports=[("a", "z")]
        )
        assert not reaches(g, "z", "a")
        assert contrib_shapley_sampled(g, QE, "a", "z", 50, seed=3) == 0.0

    def test_rejects_zero_permutations(self):
        with pytest.raises(ValueError):
            contrib_shapley_sampled(chain_graph(), QE, "a", "b", 0, seed=1)
        with pytest.raises(ValueError):
            ShapleySampled(0, 1)


class TestGradientContribution:
    def test_total_including_self(self):
        g = chain_graph()
        assert contrib_gradient(g, DFQUAD, "a", "a") == pytest.approx(0.25, abs=1e-12)
        assert contrib_gradient(g, DFQUAD, "c", "c") == 1.0
        assert contrib_gradient(g, DFQUAD, "b", "b") == pytest.approx(0.5, abs=1e-12)


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
