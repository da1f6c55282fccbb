import dataclasses
import hashlib
import math

import pytest

from qbag import (
    Aggregation,
    CheckConfig,
    DFQUAD,
    DomainError,
    EB,
    EBT,
    EvaluationCache,
    FuzzConfig,
    Gradient,
    GradualSemantics,
    IntrinsicRemoval,
    Linear,
    PrincipleId,
    PrincipleReport,
    QBAG,
    QE,
    Removal,
    SD_DFQUAD,
    ShapleyExact,
    ShapleySampled,
    TooLarge,
    UNDEFINED,
    UnknownArgument,
    Verdict,
    contribution,
    kink_margin,
    principle_by_name,
    random_qbag,
    run_check,
    with_initial_strength,
)
from qbag import principles
from qbag.corpus import load_example
from qbag.semantics import PRESETS

from conftest import random_graphs


def saturated_attackers():
    return load_example("fig-ce-negative").graph


def intro_graph():
    return load_example("fig-intro").graph


class TestContributionExistence:
    def test_violation_under_linear_rule(self):
        report = run_check(saturated_attackers(), DFQUAD, Removal(), PrincipleId.CONTRIBUTION_EXISTENCE, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["strength_delta"] == pytest.approx(-0.5)

    def test_violation_witness_lists_every_other_contribution_as_a_number(self):
        # the topic is absent, and a callable's UNDEFINED is reported as 0.0
        def undefined_for_b(graph, semantics, topic, contributor):
            return UNDEFINED if contributor == "b" else 0.0

        for method in (Removal(), undefined_for_b):
            report = run_check(saturated_attackers(), DFQUAD, method, PrincipleId.CONTRIBUTION_EXISTENCE, "a")
            assert report.verdict is Verdict.VIOLATION
            assert report.witness["contributions"] == {"b": 0.0, "c": 0.0}

    def test_satisfied_under_quadratic_rule(self):
        report = run_check(saturated_attackers(), QE, Removal(), PrincipleId.CONTRIBUTION_EXISTENCE, "a")
        assert report.satisfied
        assert report.witness["nonzero_contributors"] == ["b", "c"]

    def test_vacuous_on_edgeless_graph(self):
        g = QBAG([("a", 0.5), ("b", 0.7)])
        for method in (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()):
            assert run_check(g, QE, method, PrincipleId.CONTRIBUTION_EXISTENCE, "a").satisfied


class TestQuantContributionExistence:
    def test_removal_gap_on_saturated_attackers(self):
        report = run_check(saturated_attackers(), QE, Removal(), PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["contribution_sum"] == pytest.approx(-0.3, abs=1e-9)
        assert report.witness["strength_delta"] == pytest.approx(-0.4, abs=1e-9)

    def test_gradient_gap_under_exponential_rule(self):
        report = run_check(saturated_attackers(), EB, Gradient(), PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["contribution_sum"] == pytest.approx(-0.089, abs=1e-4)
        assert report.witness["strength_delta"] == pytest.approx(-0.2025, abs=1e-4)

    def test_shapley_satisfies_everywhere(self):
        for g in random_graphs(seed=31, count=15):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for topic in g.arguments:
                    report = run_check(
                        g, sem, ShapleyExact(), PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, topic, cache=cache
                    )
                    assert report.satisfied

    def test_shapley_satisfies_on_reference_instances(self, corpus_instances):
        for example, sem in corpus_instances:
            if len(example.graph) > 12:
                continue  # beyond a sensible exact-enumeration test budget
            cache = EvaluationCache(example.graph, sem)
            for topic in example.graph.arguments:
                report = run_check(
                    example.graph, sem, ShapleyExact(), PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, topic, cache=cache
                )
                assert report.satisfied, (example.id, sem.label(), topic)


class TestDirectionality:
    def test_satisfied_on_chain_for_every_method(self):
        g = load_example("table-example").graph
        for method in (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()):
            assert run_check(g, DFQUAD, method, PrincipleId.DIRECTIONALITY, "a").satisfied

    def test_satisfied_on_random_graphs(self):
        for g in random_graphs(seed=32, count=15):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for method in (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()):
                    for topic in g.arguments:
                        assert run_check(g, sem, method, PrincipleId.DIRECTIONALITY, topic, cache=cache).satisfied

    def test_checker_flags_a_synthetic_constant_method(self):
        stub = lambda g, sem, topic, contributor: 1.0  # noqa: E731
        report = run_check(load_example("table-example").graph, DFQUAD, stub, PrincipleId.DIRECTIONALITY, "c")
        assert report.verdict is Verdict.VIOLATION


class TestCounterfactuality:
    def test_intrinsic_removal_violation(self):
        report = run_check(
            load_example("cf-ri-chain").graph, DFQUAD, IntrinsicRemoval(), PrincipleId.COUNTERFACTUALITY, "a"
        )
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["contributor"] == "b"
        assert report.witness["contribution"] == 0.0
        assert report.witness["removal_delta"] < 0

    def test_removal_satisfies_by_definition(self):
        for g in random_graphs(seed=33, count=20):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for topic in g.arguments:
                    assert run_check(g, sem, Removal(), PrincipleId.COUNTERFACTUALITY, topic, cache=cache).satisfied

    def test_gradient_violation_on_intro_graph(self):
        report = run_check(intro_graph(), DFQUAD, Gradient(), PrincipleId.COUNTERFACTUALITY, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["contributor"] == "e"
        assert report.witness["contribution"] == 0.0
        assert report.witness["removal_delta"] == pytest.approx(-0.125, abs=1e-12)


class TestQuantCounterfactuality:
    def test_removal_trivially_satisfies(self):
        for g in random_graphs(seed=34, count=20):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for topic in g.arguments:
                    assert run_check(
                        g, sem, Removal(), PrincipleId.QUANT_COUNTERFACTUALITY, topic, cache=cache
                    ).satisfied

    def test_intrinsic_removal_micro_violation(self):
        report = run_check(
            load_example("cf-ri-eb").graph, EB, IntrinsicRemoval(), PrincipleId.QUANT_COUNTERFACTUALITY, "a"
        )
        assert report.verdict is Verdict.VIOLATION

    def test_shapley_violation_under_top_rule(self):
        report = run_check(
            load_example("cf-shapley-ebt").graph, EBT, ShapleyExact(), PrincipleId.QUANT_COUNTERFACTUALITY, "a"
        )
        assert report.verdict is Verdict.VIOLATION


class TestLocalFaithfulness:
    def test_removal_violation_with_opposite_slope(self):
        report = run_check(load_example("faith-qe").graph, QE, Removal(), PrincipleId.LOCAL_FAITHFULNESS, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["contributor"] == "d"

    def test_gradient_satisfies_on_smooth_instances(self):
        for g in random_graphs(seed=35, count=25):
            for sem in PRESETS.values():
                if kink_margin(g, sem) < 0.05:
                    continue
                cache = EvaluationCache(g, sem)
                for topic in g.arguments:
                    assert run_check(g, sem, Gradient(), PrincipleId.LOCAL_FAITHFULNESS, topic, cache=cache).satisfied

    def test_shapley_violation_with_opposite_slope(self):
        report = run_check(load_example("faith-sqe").graph, QE, ShapleyExact(), PrincipleId.LOCAL_FAITHFULNESS, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["contributor"] == "d"

    def test_report_notes_probe_resolution(self):
        report = run_check(intro_graph(), DFQUAD, Gradient(), PrincipleId.LOCAL_FAITHFULNESS, "a")
        assert "resolution" in report.note


class TestStrongFaithfulness:
    def test_intro_graph_with_weak_source_violates_for_every_method(self):
        g = with_initial_strength(intro_graph(), "e", 0.2)
        for method in (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()):
            report = run_check(g, DFQUAD, method, PrincipleId.STRONG_FAITHFULNESS, "a")
            assert report.verdict is Verdict.VIOLATION

    def test_plateau_violation(self):
        g = load_example("faith-sd").graph
        report = run_check(g, SD_DFQUAD, Removal(), PrincipleId.STRONG_FAITHFULNESS, "a")
        assert report.verdict is Verdict.VIOLATION
        # the positive contribution of d meets a plateau in the sweep
        assert contribution(g, SD_DFQUAD, Removal(), "a", "d") == pytest.approx(0.1398, abs=1e-4)

    def test_satisfied_on_two_node_graph_with_gradient(self):
        edgeless = QBAG([("a", 0.5), ("b", 0.3)])
        assert run_check(edgeless, DFQUAD, Gradient(), PrincipleId.STRONG_FAITHFULNESS, "a").satisfied
        linear = QBAG([("a", 0.5), ("b", 0.3)], supports=[("b", "a")])
        assert run_check(linear, DFQUAD, Gradient(), PrincipleId.STRONG_FAITHFULNESS, "a").satisfied


class TestQuantLocalFaithfulness:
    def test_gradient_ratio_vanishes(self):
        for example_id in ("fig-intro", "table-example", "faith-qe", "cf-ri-eb"):
            example = load_example(example_id)
            sem = PRESETS[example.semantics]
            report = run_check(example.graph, sem, Gradient(), PrincipleId.QUANT_LOCAL_FAITHFULNESS, "a")
            assert report.satisfied

    def test_removal_violation_from_wrong_slope(self):
        report = run_check(load_example("faith-qe").graph, QE, Removal(), PrincipleId.QUANT_LOCAL_FAITHFULNESS, "a")
        assert report.verdict is Verdict.VIOLATION
        ratios = report.witness["error_ratios"]
        assert ratios[-1] > 1e-3

    def test_unreachable_contributor_has_zero_error(self):
        g = QBAG([("a", 0.5), ("z", 0.9)], attacks=[("a", "z")])
        report = run_check(g, QE, Gradient(), PrincipleId.QUANT_LOCAL_FAITHFULNESS, "a")
        assert report.satisfied

    def test_a_nan_contribution_is_a_witness(self):
        # every error ratio is nan, and a nan last ratio does not vanish
        nan = lambda g, sem, topic, contributor: math.nan  # noqa: E731
        report = run_check(load_example("faith-qe").graph, QE, nan, PrincipleId.QUANT_LOCAL_FAITHFULNESS, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["direction"] == 1.0
        assert len(report.witness["error_ratios"]) == 4 and all(map(math.isnan, report.witness["error_ratios"]))


class TestProximity:
    def test_removal_violation_on_attack_chain(self):
        report = run_check(load_example("prox-removal-qe").graph, QE, Removal(), PrincipleId.PROXIMITY, "a")
        assert report.verdict is Verdict.VIOLATION
        assert report.witness["nearer"] == "b" and report.witness["farther"] == "c"
        assert report.witness["nearer_magnitude"] == pytest.approx(0.0012, abs=1e-3)
        assert report.witness["farther_magnitude"] == pytest.approx(0.0037, abs=1e-3)

    def test_gradient_satisfied_on_chain(self):
        report = run_check(load_example("table-example").graph, DFQUAD, Gradient(), PrincipleId.PROXIMITY, "a")
        assert report.satisfied

    def test_vacuous_without_strictly_closer_pairs(self):
        g = QBAG([("a", 0.5), ("b", 0.9), ("c", 0.9)], attacks=[("b", "a")], supports=[("c", "a")])
        assert run_check(g, QE, Removal(), PrincipleId.PROXIMITY, "a").satisfied

    def test_an_undefined_contribution_compares_nothing(self):
        # c -> b -> a has one strictly-closer pair, (b, c), which removal
        # violates; a callable that leaves either end undefined compares nothing
        g = load_example("prox-removal-qe").graph
        for undefined in ("b", "c", None):

            def removal_but(graph, sem, topic, contributor):
                if contributor == undefined:
                    return UNDEFINED
                return contribution(graph, sem, Removal(), topic, contributor)

            report = run_check(g, QE, removal_but, PrincipleId.PROXIMITY, "a")
            assert report.satisfied == (undefined is not None), undefined


class TestCheckerPlumbing:
    def test_principle_lookup(self):
        assert principle_by_name("proximity") is PrincipleId.PROXIMITY
        assert principle_by_name("Quantitative-Counterfactuality") is PrincipleId.QUANT_COUNTERFACTUALITY
        with pytest.raises(ValueError):
            principle_by_name("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckConfig(zero_tol=0.0)
        with pytest.raises(ValueError):
            CheckConfig(eps_schedule=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            CheckConfig(grid_points=1)
        with pytest.raises(ValueError, match="10001"):
            CheckConfig(grid_points=10_002)
        assert CheckConfig(grid_points=10_001).grid_points == 10_001
        assert CheckConfig(grid_points=2).grid_points == 2
        for fields in ({"eq_tol": 0.0}, {"eps_schedule": (1e-2, 0.0)}, {"eps_schedule": (1e-2, 1e-2)}):
            with pytest.raises(ValueError):
                CheckConfig(**fields)
        # NaN passes every "<= 0" test, so finiteness is checked on its own
        for fields in (
            {"zero_tol": math.nan},
            {"zero_tol": math.inf},
            {"eq_tol": math.nan},
            {"eq_tol": math.inf},
            {"eps_schedule": (math.nan,)},
            {"eps_schedule": (1e-2, math.nan)},
            {"eps_schedule": (math.inf, 1e-2)},
        ):
            with pytest.raises(ValueError, match="finite"):
                CheckConfig(**fields)

    def test_unknown_topic(self):
        with pytest.raises(UnknownArgument):
            run_check(intro_graph(), QE, Removal(), PrincipleId.DIRECTIONALITY, "zz")

    def test_violation_witnesses_replay_bit_for_bit(self):
        cases = [
            ("fig-ce-negative", DFQUAD, Removal(), PrincipleId.CONTRIBUTION_EXISTENCE),
            ("faith-qe", QE, Removal(), PrincipleId.LOCAL_FAITHFULNESS),
            ("cf-ri-chain", DFQUAD, IntrinsicRemoval(), PrincipleId.COUNTERFACTUALITY),
            ("prox-removal-qe", QE, Removal(), PrincipleId.PROXIMITY),
            ("fig-intro", DFQUAD, ShapleyExact(), PrincipleId.QUANT_LOCAL_FAITHFULNESS),
        ]
        for example_id, sem, method, principle in cases:
            g = load_example(example_id).graph
            first = run_check(g, sem, method, principle, "a")
            second = run_check(g, sem, method, principle, "a")
            assert first == second
            assert first.verdict is Verdict.VIOLATION

    def test_reports_equal_the_public_constructor(self):
        g = load_example("fig-intro").graph
        for principle in PrincipleId:
            for method in (Removal(), Gradient()):
                report = run_check(g, DFQUAD, method, principle, "a")
                public = PrincipleReport(
                    report.principle, report.verdict, report.topic, report.method, report.semantics, report.witness,
                    report.note,
                )
                assert repr(report) == repr(public) and report == public and public == report
                assert list(vars(report).items()) == list(vars(public).items())
                with pytest.raises(dataclasses.FrozenInstanceError):
                    report.topic = "b"
                moved = PrincipleReport(**{**vars(report), "topic": "b"})
                assert moved == PrincipleReport(**{**vars(public), "topic": "b"}) and moved.topic == "b"
                assert report.topic == "a"


class TestImplicationChains:
    """Instance-level consequences of the strength ordering between the
    principles: quantitative existence implies existence, quantitative
    counterfactuality implies counterfactuality, and both strong and
    quantitative local faithfulness imply local faithfulness.  Asserted with
    a margin guard: cases whose quantities sit inside a factor-ten band of
    the classification tolerances are skipped as boundary noise."""

    GUARD = 10.0

    def _clear(self, value, tol):
        return abs(value) <= tol / self.GUARD or abs(value) >= tol * self.GUARD

    def test_quant_existence_implies_existence(self):
        for g in random_graphs(seed=36, count=25):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for method in (Removal(), ShapleyExact(), Gradient()):
                    for topic in g.arguments:
                        strong = run_check(g, sem, method, PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, topic, cache=cache)
                        if not strong.satisfied:
                            continue
                        if not self._clear(strong.witness["strength_delta"], 1e-9):
                            continue
                        weak = run_check(g, sem, method, PrincipleId.CONTRIBUTION_EXISTENCE, topic, cache=cache)
                        assert weak.satisfied

    def test_quant_counterfactuality_implies_counterfactuality(self):
        for g in random_graphs(seed=37, count=25):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                for method in (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()):
                    for topic in g.arguments:
                        strong = run_check(g, sem, method, PrincipleId.QUANT_COUNTERFACTUALITY, topic, cache=cache)
                        if not strong.satisfied:
                            continue
                        clear = all(
                            self._clear(contribution(g, sem, method, topic, x, cache=cache), 1e-9)
                            for x in g.arguments
                            if x != topic
                        )
                        if not clear:
                            continue
                        weak = run_check(g, sem, method, PrincipleId.COUNTERFACTUALITY, topic, cache=cache)
                        assert weak.satisfied

    def test_stronger_faithfulness_checks_imply_local_faithfulness(self):
        for g in random_graphs(seed=38, count=20):
            for sem in PRESETS.values():
                if kink_margin(g, sem) < 0.05:
                    continue
                cache = EvaluationCache(g, sem)
                for method in (Removal(), ShapleyExact(), Gradient()):
                    for topic in g.arguments:
                        contribs = [
                            contribution(g, sem, method, topic, x, cache=cache)
                            for x in g.arguments
                            if x != topic
                        ]
                        if not all(self._clear(c, 1e-9) for c in contribs):
                            continue
                        weak = run_check(g, sem, method, PrincipleId.LOCAL_FAITHFULNESS, topic, cache=cache)
                        strong = run_check(g, sem, method, PrincipleId.STRONG_FAITHFULNESS, topic, cache=cache)
                        if strong.satisfied:
                            assert weak.satisfied
                        quant = run_check(g, sem, method, PrincipleId.QUANT_LOCAL_FAITHFULNESS, topic, cache=cache)
                        if quant.satisfied and all(
                            abs(c) > 1e-2 or abs(c) <= 1e-10 for c in contribs
                        ):
                            assert weak.satisfied

    def test_chains_hold_on_reference_instances(self, corpus_instances):
        for example, sem in corpus_instances:
            g = example.graph
            if len(g) > 12:
                continue
            cache = EvaluationCache(g, sem)
            for method in (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()):
                for topic in g.arguments:
                    qce = run_check(g, sem, method, PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, topic, cache=cache)
                    if qce.satisfied and self._clear(qce.witness["strength_delta"], 1e-9):
                        assert run_check(
                            g, sem, method, PrincipleId.CONTRIBUTION_EXISTENCE, topic, cache=cache
                        ).satisfied

    @pytest.mark.slow
    def test_chains_hold_at_scale(self):
        """All four chains on 1,000 seeded random graphs, every preset and
        method, sharing one evaluation cache per (graph, semantics).  The
        faithfulness chain uses a coarser sweep grid; the checker-level
        implication is resolution-independent."""
        methods = {
            "removal": Removal(),
            "intrinsic-removal": IntrinsicRemoval(),
            "shapley": ShapleyExact(),
            "gradient": Gradient(),
        }
        cfg = CheckConfig(grid_points=41)
        for g in random_graphs(seed=390, count=1000, max_args=6):
            for sem in PRESETS.values():
                cache = EvaluationCache(g, sem)
                smooth = kink_margin(g, sem) >= 0.05
                for method in methods.values():
                    for topic in g.arguments:
                        contribs = [
                            contribution(g, sem, method, topic, x, cache=cache)
                            for x in g.arguments
                            if x != topic
                        ]
                        qce = run_check(
                            g, sem, method, PrincipleId.QUANT_CONTRIBUTION_EXISTENCE, topic, cfg, cache=cache
                        )
                        if qce.satisfied and self._clear(qce.witness["strength_delta"], cfg.eq_tol):
                            assert run_check(
                                g, sem, method, PrincipleId.CONTRIBUTION_EXISTENCE, topic, cfg, cache=cache
                            ).satisfied
                        qcf = run_check(g, sem, method, PrincipleId.QUANT_COUNTERFACTUALITY, topic, cfg, cache=cache)
                        if qcf.satisfied and all(self._clear(c, cfg.zero_tol) for c in contribs):
                            assert run_check(
                                g, sem, method, PrincipleId.COUNTERFACTUALITY, topic, cfg, cache=cache
                            ).satisfied
                        if not smooth or not all(self._clear(c, cfg.zero_tol) for c in contribs):
                            continue
                        weak = run_check(g, sem, method, PrincipleId.LOCAL_FAITHFULNESS, topic, cfg, cache=cache)
                        if weak.satisfied:
                            continue  # nothing to falsify
                        strong = run_check(g, sem, method, PrincipleId.STRONG_FAITHFULNESS, topic, cfg, cache=cache)
                        assert not strong.satisfied
                        quant = run_check(g, sem, method, PrincipleId.QUANT_LOCAL_FAITHFULNESS, topic, cfg, cache=cache)
                        if all(abs(c) > 1e-2 or abs(c) <= 1e-10 for c in contribs):
                            assert not quant.satisfied


# Violations per (principle, method) over the presets (qe, dfquad, sd-dfquad,
# eb, ebt) on the first 40 trials of the seed-1 fuzz recipe with max_args=6
# (162 instances per cell), one shared cache per (graph, preset) as in `qbag
# fuzz`.  Any change to a checker, a contribution method or the evaluator that
# moves a verdict moves one of these counts.
_VERDICT_COUNTS = {
    "contribution-existence": {
        "removal": (0, 0, 0, 0, 0),
        "intrinsic-removal": (0, 0, 0, 0, 0),
        "shapley": (0, 0, 0, 0, 0),
        "gradient": (0, 0, 0, 0, 0),
    },
    "quantitative-contribution-existence": {
        "removal": (30, 30, 30, 22, 22),
        "intrinsic-removal": (22, 22, 22, 17, 17),
        "shapley": (0, 0, 0, 0, 0),
        "gradient": (72, 72, 75, 69, 69),
    },
    "directionality": {
        "removal": (0, 0, 0, 0, 0),
        "intrinsic-removal": (0, 0, 0, 0, 0),
        "shapley": (0, 0, 0, 0, 0),
        "gradient": (0, 0, 0, 0, 0),
    },
    "strong-faithfulness": {
        "removal": (8, 10, 8, 8, 17),
        "intrinsic-removal": (9, 11, 9, 8, 17),
        "shapley": (8, 11, 9, 8, 18),
        "gradient": (4, 2, 2, 0, 10),
    },
    "local-faithfulness": {
        "removal": (1, 3, 1, 0, 0),
        "intrinsic-removal": (1, 3, 1, 0, 0),
        "shapley": (1, 4, 2, 0, 10),
        "gradient": (0, 0, 0, 0, 0),
    },
    "quantitative-local-faithfulness": {
        "removal": (73, 74, 73, 69, 69),
        "intrinsic-removal": (73, 74, 73, 69, 69),
        "shapley": (73, 75, 74, 69, 69),
        "gradient": (0, 6, 6, 0, 0),
    },
    "counterfactuality": {
        "removal": (0, 0, 0, 0, 0),
        "intrinsic-removal": (1, 1, 1, 0, 2),
        "shapley": (1, 4, 2, 0, 10),
        "gradient": (5, 9, 7, 8, 8),
    },
    "quantitative-counterfactuality": {
        "removal": (0, 0, 0, 0, 0),
        "intrinsic-removal": (23, 23, 23, 17, 16),
        "shapley": (30, 30, 30, 22, 22),
        "gradient": (73, 75, 76, 69, 69),
    },
    "proximity": {
        "removal": (1, 1, 0, 0, 0),
        "intrinsic-removal": (3, 5, 2, 0, 2),
        "shapley": (0, 0, 0, 0, 0),
        "gradient": (1, 10, 0, 0, 0),
    },
}


# sha256 over the repr of every report of that pool, one line each, in the
# loop order of fixed_pool_reports: pins the witness contents as well as the
# verdicts.
_POOL_DIGEST = "4cdac145c3b1c2829d6d90aff1ff426a4c71c5858a8c2998d5459467b6d0a21e"
_POOL_METHODS = {
    "removal": Removal(),
    "intrinsic-removal": IntrinsicRemoval(),
    "shapley": ShapleyExact(),
    "gradient": Gradient(),
}
_POOL_PRESETS = ("qe", "dfquad", "sd-dfquad", "eb", "ebt")


@pytest.fixture(scope="module")
def fixed_pool_reports():
    """(preset position, method name, report) for every check of the pool."""
    config = FuzzConfig(seed=1, trials=40, max_args=6)
    reports = []
    for trial in range(config.trials):
        g = random_qbag(config, trial)
        for k, preset in enumerate(_POOL_PRESETS):
            cache = EvaluationCache(g, PRESETS[preset])
            for principle in PrincipleId:
                for mname, method in _POOL_METHODS.items():
                    for topic in g.arguments:
                        report = run_check(g, PRESETS[preset], method, principle, topic, cache=cache)
                        reports.append((k, mname, report))
    return reports


def test_verdict_counts_on_a_fixed_fuzz_pool(fixed_pool_reports):
    counts = {p: {m: [0] * len(_POOL_PRESETS) for m in _POOL_METHODS} for p in _VERDICT_COUNTS}
    for k, mname, report in fixed_pool_reports:
        counts[report.principle.value][mname][k] += not report.satisfied
    instances = len(fixed_pool_reports) // (len(_POOL_PRESETS) * len(PrincipleId) * len(_POOL_METHODS))
    assert instances == 162
    assert {p: {m: tuple(c) for m, c in row.items()} for p, row in counts.items()} == _VERDICT_COUNTS


def test_witness_digest_on_a_fixed_fuzz_pool(fixed_pool_reports):
    digest = hashlib.sha256()
    for _, _, report in fixed_pool_reports:
        digest.update(repr(report).encode() + b"\n")
    assert digest.hexdigest() == _POOL_DIGEST


# sha256 over one line per perturbation-based check on the first 60 trials of
# the seed-1 fuzz recipe with max_args=6, under sum, product and top with
# linear(0.5), linear(1.0) and linear(1.5), one shared cache per (graph,
# semantics): the report's repr, or the DomainError a check raises.  Sweeps
# and probes leave the linear domain here, so this pins where each check
# raises and with which message, which the preset pool never reaches: only
# where re-folding the topic's ancestors and the topic fails.
_ERROR_PATH_DIGEST = "072d1df6fe008ef1aaff8509c09b59eef49fbae9976f979e0c560b0d37327d51"


def test_error_path_digest_on_linear_semantics():
    def ones(graph, semantics, topic, contributor):
        return 1.0

    config = FuzzConfig(seed=1, trials=60, max_args=6)
    principles = (
        PrincipleId.STRONG_FAITHFULNESS,
        PrincipleId.LOCAL_FAITHFULNESS,
        PrincipleId.QUANT_LOCAL_FAITHFULNESS,
    )
    methods = (*_POOL_METHODS.values(), ones)
    semantics = [GradualSemantics(kind, Linear(k)) for kind in Aggregation for k in (0.5, 1.0, 1.5)]
    digest = hashlib.sha256()
    pairs = checks = 0
    errors = dict.fromkeys(principles, 0)
    for trial in range(config.trials):
        g = random_qbag(config, trial)
        for sem in semantics:
            cache = EvaluationCache(g, sem)
            try:
                cache.strengths()
            except DomainError:
                continue  # undefined at its operating point
            pairs += 1
            for principle in principles:
                for method in methods:
                    for topic in g.arguments:
                        checks += 1
                        try:
                            line = repr(run_check(g, sem, method, principle, topic, cache=cache))
                        except DomainError as exc:
                            line = f"DomainError: {exc}"
                            errors[principle] += 1
                        digest.update(line.encode() + b"\n")
    assert (pairs, checks, tuple(errors.values())) == (427, 25_260, (380, 63, 47))
    assert digest.hexdigest() == _ERROR_PATH_DIGEST


class TestPlanResolution:
    """A check resolves its (principle, method, cfg, semantics) once into
    the cache's plan slot.  On one shared cache, every report must
    equal the report of a fresh cache, repr included, whatever the order of
    the checks and whichever of those inputs changes between them."""

    @staticmethod
    def assert_fresh(g, report, cache_semantics, semantics, method, principle, topic, cfg=None, **kwargs):
        fresh = run_check(
            g, semantics, method, principle, topic, cfg, cache=EvaluationCache(g, cache_semantics), **kwargs
        )
        assert report == fresh and repr(report) == repr(fresh), (principle, method, topic, cfg)

    @pytest.fixture(scope="class")
    def graphs(self):
        return [g for g in random_graphs(seed=4343, count=12, max_args=6) if len(g) >= 4][:4]

    def test_sampled_shapley_seeds(self, graphs):
        samplers = (ShapleySampled(30, 1), ShapleySampled(30, 2))
        for g in graphs:
            cache = EvaluationCache(g, QE)
            for principle in PrincipleId:
                for topic in g.arguments:
                    for method in samplers:
                        report = run_check(g, QE, method, principle, topic, cache=cache)
                        self.assert_fresh(g, report, QE, QE, method, principle, topic)

    def test_callable_method_is_called_on_every_check(self, graphs):
        calls = []

        def counting(graph, semantics, topic, contributor):
            calls.append((topic, contributor))
            return (len(topic) + 3 * len(contributor)) % 3 - 1.0

        for g in graphs:
            cache = EvaluationCache(g, DFQUAD)
            for principle in PrincipleId:
                for topic in g.arguments:
                    counts = []
                    for _ in range(2):
                        before = len(calls)
                        report = run_check(g, DFQUAD, counting, principle, topic, cache=cache)
                        counts.append(len(calls) - before)
                        self.assert_fresh(g, report, DFQUAD, DFQUAD, counting, principle, topic)
                        counts.append(len(calls) - before - counts[-1])
                    # the shared cache calls it as often as a fresh one, every time
                    assert len(set(counts)) == 1, (principle, topic, counts)
        assert calls

    def test_exact_cap_is_read_on_every_call(self, graphs):
        # each cap is a new method object; a plan that matched the method by
        # type would serve the memoized cells of cap 20 to a topic whose
        # ancestors and itself exceed the smaller cap
        g = graphs[0]
        cache = EvaluationCache(g, QE)
        scopes = {topic: cache.ancestors(g.index_of(topic)).bit_count() + 1 for topic in g.arguments}
        small = max(scopes.values()) - 1
        assert min(scopes.values()) <= small
        principle = PrincipleId.COUNTERFACTUALITY
        for cap in (20, small, 20, small):
            method = ShapleyExact(cap)
            for topic in g.arguments:
                if scopes[topic] > cap:
                    with pytest.raises(TooLarge):
                        run_check(g, QE, method, principle, topic, cache=cache)
                    continue
                report = run_check(g, QE, method, principle, topic, cache=cache)
                self.assert_fresh(g, report, QE, QE, method, principle, topic)

    def test_value_equal_and_different_configs(self, graphs):
        configs = (
            CheckConfig(eq_tol=1e-4),
            CheckConfig(eq_tol=1e-4),
            CheckConfig(zero_tol=1e-6, eps_schedule=(1e-1, 1e-2), grid_points=11),
        )
        assert configs[0] == configs[1] and configs[0] is not configs[1]
        for g in graphs:
            cache = EvaluationCache(g, EB)
            for principle in PrincipleId:
                for method in (Removal(), Gradient()):
                    for topic in g.arguments:
                        for cfg in configs:
                            report = run_check(g, EB, method, principle, topic, cfg, cache=cache)
                            self.assert_fresh(g, report, EB, EB, method, principle, topic, cfg)

    def test_topic_major_loop_order(self, graphs):
        for g in graphs:
            cache = EvaluationCache(g, SD_DFQUAD)
            for topic in g.arguments:
                for principle in PrincipleId:
                    for method in (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient()):
                        report = run_check(g, SD_DFQUAD, method, principle, topic, cache=cache)
                        self.assert_fresh(g, report, SD_DFQUAD, SD_DFQUAD, method, principle, topic)

    def test_semantics_argument_supplies_the_label(self, graphs):
        renamed = GradualSemantics(QE.aggregation, QE.influence, "renamed-qe")
        assert renamed.label() != QE.label()
        for g in graphs:
            cache = EvaluationCache(g, QE)
            for principle in PrincipleId:
                for topic in g.arguments:
                    for semantics in (QE, renamed):
                        report = run_check(g, semantics, Gradient(), principle, topic, cache=cache)
                        assert report.semantics == semantics.label()
                        self.assert_fresh(g, report, QE, semantics, Gradient(), principle, topic)

    def test_memo_hit_checks_read_only_the_plan(self, graphs, monkeypatch):
        # once every cell, sweep and probe is memoized, a check resolves the
        # cache's columns once per plan and reads no cell, column, sweep or
        # probe through the cache's methods, whatever the number of topics
        # and contributors
        methods = (Removal(), IntrinsicRemoval(), ShapleyExact(), Gradient())

        def every_check(g, semantics, cache):
            return [
                run_check(g, semantics, method, principle, topic, cache=cache)
                for principle in PrincipleId
                for method in methods
                for topic in g.arguments
            ]

        resolved = []
        columns = EvaluationCache.columns

        def counted(self, *args):
            resolved.append(args)
            return columns(self, *args)

        for g in graphs:
            for semantics in PRESETS.values():
                cache = EvaluationCache(g, semantics)
                first = every_check(g, semantics, cache)
                with monkeypatch.context() as patch:
                    for name in ("column", "cell", "sweep", "sweep_column", "strengths_perturbed"):
                        patch.setattr(EvaluationCache, name, None)
                    patch.setattr(EvaluationCache, "columns", counted)
                    resolved.clear()
                    assert every_check(g, semantics, cache) == first
                # one resolution per (principle, method), and one removal
                # table per counterfactuality principle
                assert len(resolved) == len(PrincipleId) * len(methods) + 2


# ------------------------------------- what checks visit under built-in methods

_BUILT_IN_METHODS = (
    Removal(),
    IntrinsicRemoval(),
    ShapleyExact(),
    ShapleyExact(3),
    ShapleySampled(20, 7),
    Gradient(),
)
# the presets, and linear influences whose domain many pool graphs leave
_DIRECTIONALITY_SEMANTICS = (
    *PRESETS.values(),
    *(GradualSemantics(kind, Linear(k)) for kind in Aggregation for k in (0.5, 1.0, 1.5)),
)


def _outcome(check):
    """A check's verdict, witness and note, or the error it raises."""
    try:
        report = check()
    except (DomainError, TooLarge) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((report.verdict, report.witness, report.note))


def test_built_in_checks_read_only_ancestors_and_report_as_a_callable_would(monkeypatch):
    # Under a built-in method every principle but directionality reads the
    # contributions of the topic's ancestors only.  The same method wrapped
    # in a callable is read at every other argument, and every check gives
    # the same verdict, witness and note, or raises the same error.
    visits = []

    def recorded(rule, test):
        def read_by_rule(cache, plan, t, base, contrib):
            return rule(cache, plan, t, base, lambda x: visits.append((t, x)) or contrib(x))

        def read_by_test(cache, plan, t, base, x, c):
            visits.append((t, x))
            return test(cache, plan, t, base, x, c)

        return (rule and read_by_rule), (test and read_by_test)

    for principle, (rule, test, *rest) in principles._PLANS.items():
        monkeypatch.setitem(principles._PLANS, principle, (*recorded(rule, test), *rest))
    checks = outside = 0
    for g in random_graphs(seed=2029, count=10, max_args=6):
        for semantics in _DIRECTIONALITY_SEMANTICS:
            cache, wrapped_cache, callable_cache = (EvaluationCache(g, semantics) for _ in range(3))
            for method in _BUILT_IN_METHODS:

                def wrapped(graph, semantics, topic, contributor, method=method):
                    return contribution(graph, semantics, method, topic, contributor, cache=wrapped_cache)

                for principle in PrincipleId:
                    for topic in g.arguments:
                        t = g.index_of(topic)
                        reach = cache.ancestors(t)
                        visits.clear()
                        got = _outcome(lambda: run_check(g, semantics, method, principle, topic, cache=cache))
                        if principle is not PrincipleId.DIRECTIONALITY:
                            assert all((reach >> x) & 1 for _, x in visits), (principle, method, topic)
                        visits.clear()
                        want = _outcome(lambda: run_check(g, semantics, wrapped, principle, topic, cache=callable_cache))
                        outside += any(x != t and not (reach >> x) & 1 for _, x in visits)
                        assert got == want, (g, semantics.label(), principle, method, topic)
                        checks += 1
    assert checks > 20_000 and outside > 1000, (checks, outside)


def test_a_callable_is_still_asked_about_arguments_that_do_not_reach_the_topic():
    # y supports t and x stands alone: a callable that gives y its removal
    # effect and x 1.0 is still asked about x, whose removal moves nothing,
    # so both counterfactuality checkers witness x, also on a cache whose
    # removal checks visited y alone
    g = QBAG([("y", 0.4), ("x", 0.5), ("t", 0.3)], supports=[("y", "t")])

    def loud(graph, semantics, topic, contributor):
        return 1.0 if contributor == "x" else contribution(graph, semantics, Removal(), topic, contributor)

    cache = EvaluationCache(g, QE)
    for principle in (PrincipleId.COUNTERFACTUALITY, PrincipleId.QUANT_COUNTERFACTUALITY):
        assert run_check(g, QE, Removal(), principle, "t", cache=cache).satisfied
        report = run_check(g, QE, loud, principle, "t", cache=cache)
        assert report.witness["contributor"] == "x"
        assert (report.witness["contribution"], report.witness["removal_delta"]) == (1.0, 0.0)
