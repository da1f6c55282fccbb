"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with its runtime (run pytest with -s to see them).

Criteria, in order:
 1. the reference contribution table reproduces exactly (tolerance 1e-9);
 2. every corpus strength annotation reproduces (1e-4 for printed labels,
    recomputed values for the five documented label corrections);
 3. every violation witness reproduces, including the headline quoted
    quantities (1e-4 absolute, or 1e-2 relative below 1e-4 magnitude);
 4. no satisfied (semantics, method, principle) cell yields a violation in
    10,000 seeded fuzz trials, and exact coalition attribution is efficient
    to 1e-9 on 1,000 random graphs per semantics;
 5. analytic gradients match finite differences within 1e-5 away from the
    semantics' non-smooth points;
 6. the reference sweep has the documented values and its minimum at 0.5;
 7. the proximity counterexamples reproduce their quoted inequalities;
 8. ten supporters separate coalition attribution from removal/gradient.
"""

from __future__ import annotations

import time

import pytest

from qbag import (
    EvaluationCache,
    FuzzConfig,
    Gradient,
    IntrinsicRemoval,
    PrincipleId,
    Removal,
    ShapleyExact,
    contrib_intrinsic_removal,
    contrib_removal,
    contribution,
    contribution_table,
    evaluate,
    gradient_of_topic,
    kink_margin,
    method_by_name,
    random_qbag,
    run_check,
)
from qbag.cli import main
from qbag.corpus import (
    FinalStrength,
    InitialStrength,
    PrincipleVerdict,
    list_examples,
    load_example,
    supporters_graph,
    verify_example,
)
from qbag.principles import Verdict
from qbag.semantics import PRESETS, semantics_by_name

from conftest import finite_difference_partials


def _report(criterion: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {criterion}: {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_reference_table(capsys):
    started = time.perf_counter()
    code = main(["reproduce", "--example", "table-example"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS table-example (42 expectations)" in out

    g = load_example("table-example").graph
    sem = semantics_by_name("dfquad")
    expected = {
        ("removal", "b", "a"): -0.375,
        ("removal", "c", "a"): -0.125,
        ("removal", "c", "b"): 0.25,
        ("intrinsic-removal", "b", "a"): -0.25,
        ("shapley", "b", "a"): -0.3125,
        ("shapley", "c", "a"): -0.0625,
        ("gradient", "a", "a"): 0.25,
        ("gradient", "b", "b"): 0.5,
        ("gradient", "c", "c"): 1.0,
        ("gradient", "c", "a"): -0.25,
    }
    for (method, x, a), value in expected.items():
        assert contribution(g, sem, method_by_name(method), a, x) == pytest.approx(value, abs=1e-9)
    with capsys.disabled():
        _report(1, "reference contribution table exact to 1e-9", started, 1.0)


def test_criterion_2_strength_labels(capsys):
    started = time.perf_counter()
    label_count = 0
    corrected = set()
    for example_id, _, _ in list_examples():
        example = load_example(example_id)
        caches: dict[str, EvaluationCache] = {}
        for exp in example.expectations:
            if not isinstance(exp, (FinalStrength, InitialStrength)):
                continue
            sem_name = exp.semantics or example.semantics
            cache = caches.setdefault(sem_name, EvaluationCache(example.graph, semantics_by_name(sem_name)))
            if isinstance(exp, FinalStrength):
                actual = cache.strengths()[example.graph.index_of(exp.argument)]
            else:
                actual = example.graph.initial_strength(exp.argument)
            assert actual == pytest.approx(exp.expected, abs=exp.tol), (example_id, exp)
            assert exp.tol <= 1e-4
            label_count += 1
            if exp.note:
                corrected.add((example_id, exp.argument))
    # exactly the five documented label corrections deviate from circulated
    # print values; everything else matches the printed labels directly
    assert corrected == {
        ("faith-qe", "a"),
        ("faith-sqe", "c"),
        ("cf-shapley-ebt", "e"),
        ("prox-shapley-df", "d"),
        ("prox-gradient-sd", "b"),
    }
    assert label_count > 150
    with capsys.disabled():
        _report(2, f"{label_count} strength annotations reproduced", started, 1.0)


def _rel(actual: float, quoted: float) -> float:
    return abs(actual - quoted) / abs(quoted)


def test_criterion_3_violation_witnesses(capsys):
    started = time.perf_counter()

    # headline quantities, checked directly against fresh computations
    faith_qe = load_example("faith-qe").graph
    qe = semantics_by_name("qe")
    r = contrib_removal(faith_qe, qe, "a", "d")
    ri = contrib_intrinsic_removal(faith_qe, qe, "a", "d")
    assert r == ri
    assert r == pytest.approx(-0.01122, abs=1e-4)
    assert contribution(faith_qe, qe, Gradient(), "a", "d") == pytest.approx(0.02987, abs=1e-4)

    fan = load_example("cf-shapley-qe").graph
    shap = contribution(fan, qe, ShapleyExact(), "a", "e")
    assert _rel(shap, 4.9326e-05) < 1e-2
    assert contrib_removal(fan, qe, "a", "e") == pytest.approx(-0.0149, abs=1e-4)

    eb = semantics_by_name("eb")
    ri_eb = load_example("cf-ri-eb").graph
    assert _rel(contrib_intrinsic_removal(ri_eb, eb, "a", "e"), 3.5431e-06) < 1e-2
    assert _rel(contrib_removal(ri_eb, eb, "a", "e"), -2.5e-06) < 1e-2

    ebt = semantics_by_name("ebt")
    sh_ebt = load_example("cf-shapley-ebt").graph
    assert _rel(contribution(sh_ebt, ebt, ShapleyExact(), "a", "f"), -2.7043e-05) < 1e-2
    assert _rel(contrib_removal(sh_ebt, ebt, "a", "f"), 7.3331e-05) < 1e-2

    ce = load_example("fig-ce-negative").graph
    qe_sum = sum(contrib_removal(ce, qe, "a", x) for x in "bc")
    assert qe_sum == pytest.approx(-0.3, abs=1e-4)
    assert evaluate(ce, qe)["a"] - 0.5 == pytest.approx(-0.4, abs=1e-4)
    eb_delta = evaluate(ce, eb)["a"] - 0.5
    assert eb_delta == pytest.approx(-0.2025, abs=1e-4)
    assert sum(contrib_removal(ce, eb, "a", x) for x in "bc") == pytest.approx(-0.138, abs=1e-4)
    assert sum(contrib_intrinsic_removal(ce, eb, "a", x) for x in "bc") == pytest.approx(-0.138, abs=1e-4)
    assert sum(contribution(ce, eb, Gradient(), "a", x) for x in "bc") == pytest.approx(-0.089, abs=1e-4)

    # every example carrying a violation verdict replays cleanly
    witnessed = 0
    for example_id, _, _ in list_examples():
        example = load_example(example_id)
        if any(
            isinstance(exp, PrincipleVerdict) and exp.expected == Verdict.VIOLATION.value
            for exp in example.expectations
        ):
            report = verify_example(example_id)
            assert report.passed, (example_id, report.failures)
            witnessed += 1
    assert witnessed >= 25
    with capsys.disabled():
        _report(3, f"violation witnesses on {witnessed} examples", started, 10.0)


# ------------------------------------------------------------- criterion 4

_ALL5 = tuple(PRESETS)
_SATISFIED_CELLS: dict[PrincipleId, dict[str, tuple[str, ...]]] = {
    PrincipleId.CONTRIBUTION_EXISTENCE: {
        "removal": ("qe", "eb"),
        "intrinsic-removal": ("qe", "eb"),
        "shapley": _ALL5,
        "gradient": ("qe", "eb"),
    },
    PrincipleId.QUANT_CONTRIBUTION_EXISTENCE: {"shapley": _ALL5},
    PrincipleId.DIRECTIONALITY: {
        "removal": _ALL5,
        "intrinsic-removal": _ALL5,
        "shapley": _ALL5,
        "gradient": _ALL5,
    },
    PrincipleId.LOCAL_FAITHFULNESS: {"gradient": _ALL5},
    PrincipleId.QUANT_LOCAL_FAITHFULNESS: {"gradient": _ALL5},
    PrincipleId.COUNTERFACTUALITY: {"removal": _ALL5},
    PrincipleId.QUANT_COUNTERFACTUALITY: {"removal": _ALL5},
}
_METHODS = {
    "removal": Removal(),
    "intrinsic-removal": IntrinsicRemoval(),
    "shapley": ShapleyExact(),
    "gradient": Gradient(),
}
# Probing-based faithfulness checks are only claimed for points where the
# semantics is differentiable; instances operating within this margin of a
# non-smooth configuration are skipped (and counted).
_KINK_SKIP_MARGIN = 0.05
_FUZZ_TRIALS = 10_000
_EFFICIENCY_GRAPHS = 1_000


@pytest.mark.slow
def test_criterion_4_satisfied_cells_under_fuzzing(capsys):
    started = time.perf_counter()
    config = FuzzConfig(seed=20260808, trials=_FUZZ_TRIALS, max_args=7)
    faithfulness = (PrincipleId.LOCAL_FAITHFULNESS, PrincipleId.QUANT_LOCAL_FAITHFULNESS)
    violations: list[tuple] = []
    checked = {"faithfulness": 0, "other": 0}
    skipped_faithfulness = 0
    for trial in range(config.trials):
        graph = random_qbag(config, trial)
        for sem_name, semantics in PRESETS.items():
            cache = EvaluationCache(graph, semantics)
            margin = kink_margin(graph, semantics)
            for principle, cells in _SATISFIED_CELLS.items():
                for method_name, semantics_names in cells.items():
                    if sem_name not in semantics_names:
                        continue
                    if principle in faithfulness:
                        if margin < _KINK_SKIP_MARGIN:
                            skipped_faithfulness += 1
                            continue
                        checked["faithfulness"] += 1
                    else:
                        checked["other"] += 1
                    method = _METHODS[method_name]
                    for topic in graph.arguments:
                        report = run_check(graph, semantics, method, principle, topic, cache=cache)
                        if not report.satisfied:
                            violations.append((trial, sem_name, method_name, principle.value, topic))
    assert not violations, violations[:5]
    total_faithfulness = checked["faithfulness"] + skipped_faithfulness
    assert skipped_faithfulness / total_faithfulness < 0.3

    # coalition attribution is efficient: contributions sum to the strength
    # delta, 1e-9, on 1,000 random graphs per semantics (up to 8 arguments)
    efficiency_config = FuzzConfig(seed=77001, trials=_EFFICIENCY_GRAPHS, max_args=8)
    worst = 0.0
    for trial in range(efficiency_config.trials):
        graph = random_qbag(efficiency_config, trial)
        for semantics in PRESETS.values():
            cache = EvaluationCache(graph, semantics)
            table = contribution_table(graph, semantics, ShapleyExact(), cache=cache)
            sigma = cache.strengths()
            for index, topic in enumerate(graph.arguments):
                total = sum(table.value(x, topic) for x in graph.arguments if x != topic)
                gap = abs(total - (sigma[index] - graph.initial_strength(topic)))
                worst = max(worst, gap)
    assert worst < 1e-9
    with capsys.disabled():
        _report(
            4,
            f"{_FUZZ_TRIALS} fuzz trials on 56 satisfied cells "
            f"({skipped_faithfulness}/{total_faithfulness} faithfulness instances near kinks skipped), "
            f"worst efficiency gap {worst:.1e}",
            started,
            300.0,
        )


def test_criterion_5_gradient_matches_finite_differences(capsys):
    started = time.perf_counter()
    worst = 0.0
    checked = 0

    def sweep(graph, semantics):
        nonlocal worst, checked
        fd = finite_difference_partials(graph, semantics)
        for topic in graph.arguments:
            grad = gradient_of_topic(graph, semantics, topic)
            t = graph.index_of(topic)
            for name in graph.arguments:
                checked += 1
                worst = max(worst, abs(grad[name] - fd[name][t]))

    seen = set()
    for example_id, _, _ in list_examples():
        example = load_example(example_id)
        semantics_names = {example.semantics} | {
            exp.semantics for exp in example.expectations if getattr(exp, "semantics", None)
        }
        for sem_name in sorted(n for n in semantics_names if n):
            semantics = semantics_by_name(sem_name)
            if kink_margin(example.graph, semantics) < 1e-4:
                continue
            key = (example_id, sem_name)
            if key in seen:
                continue
            seen.add(key)
            sweep(example.graph, semantics)

    config = FuzzConfig(seed=424242, trials=1_000, max_args=7)
    for trial in range(config.trials):
        graph = random_qbag(config, trial)
        for semantics in PRESETS.values():
            if kink_margin(graph, semantics) < 1e-4:
                continue
            sweep(graph, semantics)

    assert worst < 1e-5
    assert checked > 100_000
    with capsys.disabled():
        _report(5, f"{checked} partials within {worst:.1e} of finite differences", started, 60.0)


def test_criterion_6_reference_sweep(capsys, tmp_path):
    started = time.perf_counter()
    from qbag.graphfile import save_graph

    path = tmp_path / "fig-intro.json"
    save_graph(load_example("fig-intro").graph, path)
    code = main(
        ["sweep", str(path), "--semantics", "dfquad", "--topic", "a", "--vary", "e", "--steps", "101"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon,final_strength"
    rows = dict(line.split(",") for line in lines[1:])
    assert rows["0.000000"] == "0.500000"
    assert rows["0.500000"] == "0.375000"
    assert rows["1.000000"] == "0.500000"
    minimum = min(float(v) for v in rows.values())
    assert float(rows["0.500000"]) == minimum
    with capsys.disabled():
        _report(6, "reference sweep endpoints and global minimum at 0.5", started, 1.0)


def test_criterion_7_proximity_counterexamples(capsys):
    started = time.perf_counter()
    proximity_ids = [eid for eid, _, _ in list_examples() if eid.startswith("prox-")]
    assert len(proximity_ids) == 16
    checked_pairs = 0
    for example_id in proximity_ids:
        example = load_example(example_id)
        report = verify_example(example_id)
        assert report.passed, (example_id, report.failures)
        for exp in example.expectations:
            if isinstance(exp, PrincipleVerdict) and exp.principle == "proximity":
                assert exp.expected == Verdict.VIOLATION.value
                checked_pairs += 1
    assert checked_pairs == 19  # one cell per (semantics, method) violation

    # the two cited pairs at the criterion tolerance
    qe = semantics_by_name("qe")
    chain = load_example("prox-removal-qe").graph
    near = abs(contrib_removal(chain, qe, "a", "b"))
    far = abs(contrib_removal(chain, qe, "a", "c"))
    assert near < far
    assert near == pytest.approx(0.0012, abs=1e-3) and far == pytest.approx(0.0037, abs=1e-3)

    eb = semantics_by_name("eb")
    wide = load_example("prox-gradient-eb").graph
    near = abs(contribution(wide, eb, Gradient(), "a", "b"))
    far = abs(contribution(wide, eb, Gradient(), "a", "d"))
    assert near < far
    assert near == pytest.approx(0.0083, abs=1e-3) and far == pytest.approx(0.0101, abs=1e-3)

    # the one documented deviation carries its annotation
    sdf = load_example("prox-shapley-sdf")
    assert sdf.notes and "0.00065" in sdf.notes[0]
    with capsys.disabled():
        _report(7, f"16 proximity examples, {checked_pairs} violation cells", started, 5.0)


def test_criterion_8_supporter_separation(capsys):
    started = time.perf_counter()
    g = supporters_graph(10)
    qe = semantics_by_name("qe")
    shapley = contribution(g, qe, ShapleyExact(), "a", "b1")
    removal = contrib_removal(g, qe, "a", "b1")
    gradient = contribution(g, qe, Gradient(), "a", "b1")
    assert shapley > 0.04
    assert removal < 0.01
    assert gradient < 0.01
    # by symmetry every supporter contributes the same
    cache = EvaluationCache(g, qe)
    for i in range(2, 11):
        assert contribution(g, qe, ShapleyExact(), "a", f"b{i}", cache=cache) == pytest.approx(
            shapley, abs=1e-12
        )
    with capsys.disabled():
        _report(
            8,
            f"n=10 separation: shapley {shapley:.4f} vs removal {removal:.4f} / gradient {gradient:.4f}",
            started,
            5.0,
        )
