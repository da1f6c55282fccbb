import math

import pytest

from qbag import (
    QBAG,
    Aggregation,
    GradualSemantics,
    DFQUAD,
    DomainError,
    EB,
    EBT,
    EulerBased,
    Linear,
    PMax,
    QE,
    SD_DFQUAD,
    UnknownArgument,
    aggregate,
    evaluate,
    gradient_of_topic,
    influence,
    kink_margin,
    reaches,
    semantics_by_name,
)
from qbag.corpus import supporters_graph
from qbag.semantics import PRESETS, _influence_functions

from conftest import finite_difference_partials, random_graphs


def intro_graph():
    return QBAG(
        [("a", 0.5), ("b", 0.0), ("c", 0.0), ("d", 0.0), ("e", 0.5)],
        attacks=[("c", "a"), ("d", "a")],
        supports=[("b", "a"), ("e", "b"), ("e", "c"), ("e", "d")],
    )


def chain_graph():
    return QBAG([("a", 0.5), ("b", 0.5), ("c", 0.5)], attacks=[("b", "a")], supports=[("c", "b")])


def faith_qe_graph():
    return QBAG(
        [("a", 1.0), ("b", 0.7), ("c", 0.6), ("d", 0.4)],
        attacks=[("c", "a"), ("c", "b"), ("d", "b"), ("d", "c")],
        supports=[("b", "a")],
    )


class TestPresets:
    def test_table_of_presets(self):
        assert QE.aggregation is Aggregation.SUM and QE.influence == PMax(2, 1.0)
        assert DFQUAD.aggregation is Aggregation.PRODUCT and DFQUAD.influence == Linear(1.0)
        assert SD_DFQUAD.aggregation is Aggregation.PRODUCT and SD_DFQUAD.influence == PMax(1, 1.0)
        assert EB.aggregation is Aggregation.SUM and EB.influence == EulerBased()
        assert EBT.aggregation is Aggregation.TOP and EBT.influence == EulerBased()

    def test_lookup_is_case_insensitive(self):
        assert semantics_by_name("QE") is QE
        assert semantics_by_name("Sd-DfQuAd") is SD_DFQUAD

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            semantics_by_name("nope")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Linear(0.0)
        with pytest.raises(ValueError):
            PMax(0)
        with pytest.raises(ValueError):
            PMax(2, -1.0)


class TestAggregate:
    def test_product(self):
        assert aggregate(Aggregation.PRODUCT, [0.5, 0.5], [0.5]) == pytest.approx(-0.25, abs=1e-12)

    def test_empty_is_zero_for_every_kind(self):
        for kind in Aggregation:
            assert aggregate(kind, [], []) == 0.0

    def test_sum(self):
        assert aggregate(Aggregation.SUM, [1.0, 1.0], []) == -2.0

    def test_top(self):
        assert aggregate(Aggregation.TOP, [0.5], [0.4, 0.7]) == pytest.approx(0.2, abs=1e-12)

    def test_equals_the_evaluators_signals(self):
        # aggregate() and the forward pass share one fold per aggregation
        for g in random_graphs(seed=11, count=30, max_args=6):
            for sem in PRESETS.values():
                sigma = evaluate(g, sem)
                for name in g.arguments:
                    atts = [sigma[p] for p in g.attackers_of(name)]
                    sups = [sigma[p] for p in g.supporters_of(name)]
                    if atts or sups:
                        signal = aggregate(sem.aggregation, atts, sups)
                        assert influence(sem.influence, g.initial_strength(name), signal) == sigma[name]


class TestInfluence:
    def test_linear(self):
        assert influence(Linear(1.0), 0.5, -0.25) == pytest.approx(0.375, abs=1e-12)

    def test_zero_signal_returns_initial_strength(self):
        for kind in (Linear(1.0), Linear(2.0), PMax(1), PMax(2), EulerBased()):
            for w in (0.0, 0.3, 1.0):
                assert influence(kind, w, 0.0) == pytest.approx(w, abs=1e-12)

    def test_pmax_quadratic(self):
        assert influence(PMax(2, 1.0), 0.5, -2.0) == pytest.approx(0.1, abs=1e-12)

    def test_euler_at_zero_strength(self):
        for s in (-3.0, 0.0, 5.0):
            assert influence(EulerBased(), 0.0, s) == 0.0

    def test_euler_range(self):
        for w in (0.1, 0.5, 0.9):
            for s in (-30.0, -1.0, 0.0, 1.0, 30.0):
                value = influence(EulerBased(), w, s)
                assert w * w - 1e-12 <= value <= 1.0

    def test_euler_limits_past_exp_overflow(self):
        # exp(s) overflows above s ~ 709.78; the limits as s -> inf take over
        assert influence(EulerBased(), 0.5, 1000.0) == 1.0
        assert influence(EulerBased(), 0.0, 1000.0) == 0.0
        assert influence(EulerBased(), 0.5, 700.0) == 1.0

    def test_linear_domain_error(self):
        with pytest.raises(DomainError):
            influence(Linear(1.0), 0.5, 1.0 + 1e-9)
        # within the 1e-12 slack no error is raised
        assert influence(Linear(1.0), 0.5, 1.0 + 1e-13) == pytest.approx(1.0)


class TestEvaluate:
    def test_intro_graph(self):
        sigma = evaluate(intro_graph(), DFQUAD)
        assert sigma["a"] == pytest.approx(0.375, abs=1e-12)
        for name in "bcde":
            assert sigma[name] == pytest.approx(0.5, abs=1e-12)

    def test_chain_graph(self):
        sigma = evaluate(chain_graph(), DFQUAD)
        assert sigma["a"] == pytest.approx(0.125, abs=1e-12)
        assert sigma["b"] == pytest.approx(0.75, abs=1e-12)
        assert sigma["c"] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(UnknownArgument, match="'zz'"):
            sigma["zz"]

    def test_edgeless_graph_is_stable(self):
        g = QBAG([("x", 0.3), ("y", 0.8)])
        for sem in PRESETS.values():
            sigma = evaluate(g, sem)
            assert sigma["x"] == 0.3 and sigma["y"] == 0.8

    def test_faith_qe_strengths(self):
        # hand propagation of the quadratic rule, written out step by step
        h = lambda x: x * x / (1 + x * x)  # noqa: E731
        c = 0.6 * (1 - h(0.4))
        b = 0.7 * (1 - h(c + 0.4))
        a = 1.0 * (1 - h(c - b))
        sigma = evaluate(faith_qe_graph(), QE)
        assert sigma["c"] == pytest.approx(c, abs=1e-12)
        assert sigma["b"] == pytest.approx(b, abs=1e-12)
        assert sigma["a"] == pytest.approx(a, abs=1e-12)
        # 4-decimal reference annotations for b and c hold; the circulated
        # value 0.9812 for a does not (it is a known misprint)
        assert sigma["b"] == pytest.approx(0.3801, abs=1e-4)
        assert sigma["c"] == pytest.approx(0.5172, abs=1e-4)
        assert abs(sigma["a"] - 0.9812) > 1e-4
        assert sigma["a"] == pytest.approx(0.98156, abs=1e-5)

    def test_order_in_assignment_is_topological(self):
        sigma = evaluate(chain_graph(), DFQUAD)
        assert sigma.order == ("c", "b", "a")

    def test_stability_on_random_graphs(self):
        for g in random_graphs(seed=11, count=60):
            for sem in PRESETS.values():
                sigma = evaluate(g, sem)
                for name in g.arguments:
                    if not g.attackers_of(name) and not g.supporters_of(name):
                        assert sigma[name] == g.initial_strength(name)

    def test_range_on_random_graphs(self):
        for g in random_graphs(seed=12, count=60):
            for sem in PRESETS.values():
                sigma = evaluate(g, sem)
                assert all(0.0 <= sigma[name] <= 1.0 for name in g.arguments)

    def test_order_invariance_under_argument_permutation(self):
        import random

        rnd = random.Random(5)
        for g in random_graphs(seed=13, count=40):
            pairs = [(n, g.initial_strength(n)) for n in g.arguments]
            rnd.shuffle(pairs)
            permuted = QBAG(pairs, g.attacks, g.supports)
            for sem in PRESETS.values():
                original = evaluate(g, sem)
                shuffled = evaluate(permuted, sem)
                for name in g.arguments:
                    assert shuffled[name] == pytest.approx(original[name], abs=1e-12)

    def test_semantics_directionality_under_edge_deletion(self):
        for g in random_graphs(seed=14, count=40):
            edges = [("attack", e) for e in g.attacks] + [("support", e) for e in g.supports]
            for kind, (src, dst) in edges:
                attacks = [e for e in g.attacks if not (kind == "attack" and e == (src, dst))]
                supports = [e for e in g.supports if not (kind == "support" and e == (src, dst))]
                pruned = QBAG(
                    [(n, g.initial_strength(n)) for n in g.arguments], attacks, supports
                )
                for sem in PRESETS.values():
                    before = evaluate(g, sem)
                    after = evaluate(pruned, sem)
                    for topic in g.arguments:
                        if topic != dst and not reaches(g, dst, topic):
                            assert after[topic] == pytest.approx(before[topic], abs=1e-12)


class TestGradient:
    def test_chain_graph_gradient_block(self):
        g = chain_graph()
        grad_a = gradient_of_topic(g, DFQUAD, "a")
        assert grad_a["a"] == pytest.approx(0.25, abs=1e-12)
        assert grad_a["b"] == pytest.approx(-0.25, abs=1e-12)
        assert grad_a["c"] == pytest.approx(-0.25, abs=1e-12)
        grad_b = gradient_of_topic(g, DFQUAD, "b")
        assert grad_b["b"] == pytest.approx(0.5, abs=1e-12)
        assert grad_b["c"] == pytest.approx(0.5, abs=1e-12)
        assert grad_b["a"] == 0.0
        grad_c = gradient_of_topic(g, DFQUAD, "c")
        assert grad_c["c"] == 1.0
        with pytest.raises(UnknownArgument, match="'zz'"):
            grad_c["zz"]

    def test_isolated_argument_has_identity_gradient(self):
        g = QBAG([("a", 0.4), ("b", 0.6)])
        for sem in PRESETS.values():
            grad = gradient_of_topic(g, sem, "a")
            assert grad["a"] == 1.0 and grad["b"] == 0.0

    def test_faith_qe_partial_for_d(self):
        grad = gradient_of_topic(faith_qe_graph(), QE, "a")
        assert grad["d"] == pytest.approx(0.02987, abs=1e-4)

    def test_saturated_attackers_partials_sum(self):
        g = QBAG([("a", 0.5), ("b", 1.0), ("c", 1.0)], attacks=[("b", "a"), ("c", "a")])
        grad = gradient_of_topic(g, QE, "a")
        assert grad["b"] + grad["c"] == pytest.approx(-0.16, abs=1e-12)

    def test_unreachable_partials_are_exact_zero(self):
        for g in random_graphs(seed=15, count=40):
            for sem in PRESETS.values():
                for topic in g.arguments:
                    grad = gradient_of_topic(g, sem, topic)
                    for name in g.arguments:
                        if name != topic and not reaches(g, name, topic):
                            assert grad[name] == 0.0

    def test_matches_finite_differences_on_random_graphs(self):
        checked = 0
        for g in random_graphs(seed=16, count=60):
            for sem in PRESETS.values():
                if kink_margin(g, sem) < 1e-4:
                    continue
                fd = finite_difference_partials(g, sem)
                for topic in g.arguments:
                    grad = gradient_of_topic(g, sem, topic)
                    t = g.index_of(topic)
                    for name in g.arguments:
                        checked += 1
                        assert grad[name] == pytest.approx(fd[name][t], abs=1e-5)
        assert checked > 2000

    def test_matches_finite_differences_on_reference_graphs(self, corpus_instances):
        for example, sem in corpus_instances:
            g = example.graph
            if kink_margin(g, sem) < 1e-4:
                continue
            fd = finite_difference_partials(g, sem)
            for topic in g.arguments:
                grad = gradient_of_topic(g, sem, topic)
                t = g.index_of(topic)
                for name in g.arguments:
                    assert grad[name] == pytest.approx(fd[name][t], abs=1e-5)


class TestKinkConventions:
    def test_linear_zero_signal_uses_positive_branch(self):
        # two equal-strength parents on both sides give an exact zero signal
        g = QBAG(
            [("a", 0.3), ("b", 0.5), ("c", 0.5)],
            attacks=[("b", "a")],
            supports=[("c", "a")],
        )
        grad = gradient_of_topic(g, DFQUAD, "a")
        # positive branch of the linear influence: d/ds = (1 - w) / k
        assert grad["c"] == pytest.approx(1.0 - 0.3, abs=1e-12)

    def test_pmax_zero_signal(self):
        g = QBAG(
            [("a", 0.3), ("b", 0.5), ("c", 0.5)],
            attacks=[("b", "a")],
            supports=[("c", "a")],
        )
        # p = 1: slope (1 - w) / k on the positive branch
        grad = gradient_of_topic(g, SD_DFQUAD, "a")
        assert grad["c"] == pytest.approx(0.7, abs=1e-12)
        # p = 2 under the sum aggregation: continuously differentiable, slope 0
        g2 = QBAG([("a", 0.3), ("b", 0.5), ("c", 0.5)], attacks=[("b", "a")], supports=[("c", "a")])
        grad2 = gradient_of_topic(g2, QE, "a")
        assert grad2["c"] == 0.0 and grad2["b"] == 0.0

    def test_top_tie_gives_zero_derivative(self):
        g = QBAG([("a", 0.5), ("b", 1.0), ("c", 1.0)], attacks=[("b", "a"), ("c", "a")])
        grad = gradient_of_topic(g, EBT, "a")
        assert grad["b"] == 0.0 and grad["c"] == 0.0

    def test_top_unique_argmax_flows_even_at_zero_strength(self):
        g = QBAG([("a", 0.5), ("b", 0.0), ("c", 1.0)], attacks=[("b", "a")], supports=[("c", "b")])
        grad = gradient_of_topic(g, EBT, "a")
        assert grad["b"] == pytest.approx(-0.4530, abs=1e-4)

    def test_kink_margin_flags_ties_and_zero_signals(self):
        tied = QBAG([("a", 0.5), ("b", 1.0), ("c", 1.0)], attacks=[("b", "a"), ("c", "a")])
        assert kink_margin(tied, EBT) == 0.0
        balanced = QBAG(
            [("a", 0.3), ("b", 0.5), ("c", 0.5)], attacks=[("b", "a")], supports=[("c", "a")]
        )
        assert kink_margin(balanced, DFQUAD) == 0.0
        assert kink_margin(balanced, EB) == math.inf
        assert kink_margin(intro_graph(), DFQUAD) == pytest.approx(0.25)


class TestEulerOverflow:
    """800 unit supporters push the EB aggregate to 800, past exp's range."""

    def test_evaluate(self):
        g = supporters_graph(800)
        assert evaluate(g, EB)["a"] == 1.0

    def test_gradient(self):
        grad = gradient_of_topic(supporters_graph(800), EB, "a")
        assert grad["a"] == 0.0
        assert all(grad[f"b{i}"] == 0.0 for i in range(1, 801))

    def test_gradient_is_unchanged_below_overflow(self):
        # 300 supporters keep exp and its square finite: the plain formulas apply
        grad = gradient_of_topic(supporters_graph(300), EB, "a")
        e = math.exp(300.0)
        den = 1.0 + 0.5 * e
        assert grad["b1"] == 0.75 * 0.5 * e / (den * den)


class TestPMaxOverflow:
    """800 unit supporters under sum + 200-max: x**p overflows at x = 800."""

    SEMANTICS = GradualSemantics(Aggregation.SUM, PMax(200))

    def test_evaluate(self):
        assert evaluate(supporters_graph(800), self.SEMANTICS)["a"] == 1.0

    def test_gradient(self):
        grad = gradient_of_topic(supporters_graph(800), self.SEMANTICS, "a")
        assert all(value == 0.0 for value in grad.partials.values())

    def test_overflowing_squared_denominator_gives_zero_slope(self):
        # x = 2, p = 1023: x**p is finite, p * x**(p-1) and (1 + x**p)**2 are not
        grad = gradient_of_topic(supporters_graph(2), GradualSemantics(Aggregation.SUM, PMax(1023)), "a")
        assert grad["b1"] == grad["b2"] == 0.0

    def test_gradient_is_unchanged_below_overflow(self):
        grad = gradient_of_topic(supporters_graph(2), GradualSemantics(Aggregation.SUM, PMax(50)), "a")
        xp = 2.0**50
        assert grad["b1"] == 0.5 * (50 * 2.0**49 / ((1.0 + xp) * (1.0 + xp)))

    def test_infinite_scaled_aggregate_takes_the_limit(self):
        # a tiny k sends s / k to inf, where x**p / (1 + x**p) would read inf / inf
        tiny = PMax(3, 1e-320)
        value, d_signal, d_initial = _influence_functions(tiny)
        assert influence(tiny, 0.5, 0.3) == value(0.5, 0.3) == 1.0 and value(0.5, -0.3) == 0.0
        for s in (0.3, -0.3):
            assert (d_signal(0.5, s), d_initial(0.5, s)) == (0.0, 0.0)
        semantics = GradualSemantics(Aggregation.SUM, tiny)
        assert evaluate(supporters_graph(2), semantics)["a"] == 1.0
        grad = gradient_of_topic(supporters_graph(2), semantics, "a")
        assert all(value == 0.0 for value in grad.partials.values())
