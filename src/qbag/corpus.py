"""Built-in example graphs with expected values, and a replay engine.

Every example couples a graph, a default semantics, and a list of
expectations: final strengths, contribution cells, principle-check verdicts,
and strength-sweep points.  ``verify_example`` recomputes each expectation
and reports the deltas, so the whole suite doubles as a regression oracle
for the numeric engine.

Where a value could be pinned by exact arithmetic the tolerance is 1e-9;
values reproduced from 4-decimal strength annotations carry 1e-4; quoted
values below 1e-4 in magnitude carry 1e-8.  A handful of cells are
annotated: the widely circulated figures for them are internally
inconsistent (they contradict either the graph's own update equations or
companion quantities derived from the same graph), so the corpus pins the
recomputed value and the ``note`` explains the discrepancy.  Mismatches are
always resolved in favour of recomputation.

Examples are exported to disk in the CLI graph format via
``export_examples``: one ``<id>.json`` graph per example plus an
``<id>.expect.json`` sidecar carrying semantics and expectations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Union

from .contributions import UNDEFINED, EvaluationCache, Undefined, contribution, method_by_name
from .errors import UnknownExample
from .graph import QBAG
from .principles import CheckConfig, Verdict, principle_by_name, run_check
from .semantics import semantics_by_name


@dataclass(frozen=True)
class FinalStrength:
    argument: str
    expected: float
    tol: float = 1e-4
    semantics: str | None = None
    note: str = ""


@dataclass(frozen=True)
class InitialStrength:
    argument: str
    expected: float
    tol: float = 1e-12
    semantics: str | None = None
    note: str = ""


@dataclass(frozen=True)
class Contribution:
    method: str
    contributor: str
    topic: str
    expected: Union[float, Undefined]
    tol: float = 1e-9
    semantics: str | None = None
    note: str = ""


@dataclass(frozen=True)
class PrincipleVerdict:
    principle: str
    method: str
    topic: str
    expected: str  # "violation" or "satisfied-on-instance"
    semantics: str | None = None
    note: str = ""


@dataclass(frozen=True)
class SweepPoint:
    topic: str
    vary: str
    epsilon: float
    expected: float
    tol: float = 1e-9
    semantics: str | None = None
    note: str = ""


Expectation = Union[FinalStrength, InitialStrength, Contribution, PrincipleVerdict, SweepPoint]


@dataclass(frozen=True)
class Example:
    id: str
    description: str
    group: str
    graph: QBAG
    semantics: str
    expectations: tuple[Expectation, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExpectationResult:
    expectation: Expectation
    ok: bool
    actual: object
    expected: object
    delta: float | None


@dataclass(frozen=True)
class VerificationReport:
    example_id: str
    passed: bool
    results: tuple[ExpectationResult, ...]

    @property
    def failures(self) -> tuple[ExpectationResult, ...]:
        return tuple(r for r in self.results if not r.ok)


# --------------------------------------------------------------------- data

_V = Verdict.VIOLATION.value
_OK = Verdict.SATISFIED_ON_INSTANCE.value


def supporters_graph(n: int, topic_strength: float = 0.5) -> QBAG:
    """One topic plus n unit-strength supporters and no other relations."""
    if n < 1:
        raise ValueError("need at least one supporter")
    args = [("a", topic_strength)] + [(f"b{i}", 1.0) for i in range(1, n + 1)]
    return QBAG(args, supports=[(f"b{i}", "a") for i in range(1, n + 1)])


def _strengths(labels: dict[str, float], tol: float = 1e-4, semantics: str | None = None):
    return [FinalStrength(arg, value, tol, semantics) for arg, value in labels.items()]


def _build_examples() -> dict[str, Example]:
    examples: list[Example] = []

    # -- fig-intro: the five-argument graph whose middle layer makes an
    # indirect supporter's net effect non-monotonic.
    fig_intro = QBAG(
        [("a", 0.5), ("b", 0.0), ("c", 0.0), ("d", 0.0), ("e", 0.5)],
        attacks=[("c", "a"), ("d", "a")],
        supports=[("b", "a"), ("e", "b"), ("e", "c"), ("e", "d")],
    )
    examples.append(
        Example(
            "fig-intro",
            "one supporter and two attackers of the topic, all fed by one source",
            "strengths",
            fig_intro,
            "dfquad",
            tuple(
                _strengths({"a": 0.375, "b": 0.5, "c": 0.5, "d": 0.5, "e": 0.5}, tol=1e-9)
                + [
                    Contribution("gradient", "e", "a", 0.0, 1e-12),
                    Contribution("removal", "e", "a", -0.125, 1e-9),
                    Contribution("shapley", "e", "a", -0.0833, 1e-4),
                    SweepPoint("a", "e", 0.0, 0.5),
                    SweepPoint("a", "e", 0.5, 0.375),
                    SweepPoint("a", "e", 1.0, 0.5),
                    PrincipleVerdict("counterfactuality", "gradient", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "gradient", "a", _V),
                    PrincipleVerdict("local-faithfulness", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "shapley", "a", _V),
                ]
                + [PrincipleVerdict("strong-faithfulness", m, "a", _V) for m in ("removal", "intrinsic-removal", "shapley", "gradient")]
            ),
        )
    )

    # -- fig-intro-e02: same graph with the source weakened to 0.2.
    fig_intro_e02 = QBAG(
        [("a", 0.5), ("b", 0.0), ("c", 0.0), ("d", 0.0), ("e", 0.2)],
        attacks=[("c", "a"), ("d", "a")],
        supports=[("b", "a"), ("e", "b"), ("e", "c"), ("e", "d")],
    )
    examples.append(
        Example(
            "fig-intro-e02",
            "fig-intro with the source's initial strength lowered to 0.2",
            "strong-faithfulness",
            fig_intro_e02,
            "dfquad",
            tuple(
                _strengths({"a": 0.42, "b": 0.2, "c": 0.2, "d": 0.2, "e": 0.2}, tol=1e-9)
                + [
                    Contribution("removal", "e", "a", -0.08, 1e-9),
                    Contribution("gradient", "e", "a", -0.3, 1e-9),
                ]
                + [PrincipleVerdict("strong-faithfulness", m, "a", _V) for m in ("removal", "intrinsic-removal", "shapley", "gradient")]
            ),
        )
    )

    # -- table-example: the three-argument chain behind the reference
    # contribution table (42 expectations: 6 strengths + 36 cells).
    table_graph = QBAG(
        [("a", 0.5), ("b", 0.5), ("c", 0.5)],
        attacks=[("b", "a")],
        supports=[("c", "b")],
    )
    table_cells: list[Expectation] = []
    u = UNDEFINED
    table_values = {
        "removal": [[u, 0.0, 0.0], [-0.375, u, 0.0], [-0.125, 0.25, u]],
        "intrinsic-removal": [[u, 0.0, 0.0], [-0.25, u, 0.0], [-0.125, 0.25, u]],
        "shapley": [[u, 0.0, 0.0], [-0.3125, u, 0.0], [-0.0625, 0.25, u]],
        "gradient": [[0.25, 0.0, 0.0], [-0.25, 0.5, 0.0], [-0.25, 0.5, 1.0]],
    }
    names = ("a", "b", "c")
    for method, rows in table_values.items():
        for contributor, row in zip(names, rows):
            for topic, value in zip(names, row):
                table_cells.append(Contribution(method, contributor, topic, value, 1e-9))
    examples.append(
        Example(
            "table-example",
            "support chain into an attacker: all four contribution matrices",
            "strengths",
            table_graph,
            "dfquad",
            tuple(
                [InitialStrength(n, 0.5) for n in names]
                + _strengths({"a": 0.125, "b": 0.75, "c": 0.5}, tol=1e-9)
                + table_cells
            ),
        )
    )

    # -- fig-ce-negative: two saturated attackers; removing either changes
    # nothing under product/top aggregation, so nothing "explains" the drop.
    fig_ce = QBAG([("a", 0.5), ("b", 1.0), ("c", 1.0)], attacks=[("b", "a"), ("c", "a")])
    ce_exp: list[Expectation] = [
        FinalStrength("a", 0.1, 1e-9, "qe"),
        FinalStrength("a", 0.0, 1e-9, "dfquad"),
        FinalStrength("a", 0.25, 1e-9, "sd-dfquad"),
        FinalStrength("a", 0.2975342037, 1e-7, "eb"),
        FinalStrength("a", 0.3665218026, 1e-7, "ebt"),
        Contribution("removal", "b", "a", -0.15, 1e-9, "qe"),
        Contribution("removal", "c", "a", -0.15, 1e-9, "qe"),
        Contribution("gradient", "b", "a", -0.08, 1e-9, "qe"),
        Contribution("gradient", "c", "a", -0.08, 1e-9, "qe"),
        Contribution("removal", "b", "a", -0.0689875989, 1e-8, "eb"),
        Contribution("gradient", "b", "a", -0.0445215364, 1e-8, "eb"),
    ]
    for sem in ("dfquad", "sd-dfquad", "ebt"):
        for method in ("removal", "intrinsic-removal", "gradient"):
            ce_exp.append(Contribution(method, "b", "a", 0.0, 1e-12, sem))
            ce_exp.append(PrincipleVerdict("contribution-existence", method, "a", _V, sem))
            ce_exp.append(PrincipleVerdict("quantitative-contribution-existence", method, "a", _V, sem))
    for sem in ("qe", "eb"):
        for method in ("removal", "intrinsic-removal", "gradient"):
            ce_exp.append(PrincipleVerdict("contribution-existence", method, "a", _OK, sem))
            ce_exp.append(PrincipleVerdict("quantitative-contribution-existence", method, "a", _V, sem))
    examples.append(
        Example(
            "fig-ce-negative",
            "two attackers at full strength saturate the aggregate",
            "contribution-existence",
            fig_ce,
            "qe",
            tuple(ce_exp),
        )
    )

    # -- fig-supporters: the n-supporters family at n = 10.
    examples.append(
        Example(
            "fig-supporters",
            "topic with ten unit-strength supporters; coalition attribution "
            "stays an order of magnitude above removal and gradient",
            "contribution-existence",
            supporters_graph(10),
            "qe",
            (
                FinalStrength("a", 0.9950495049504951, 1e-9),
                Contribution("shapley", "b1", "a", 0.0495049504950495, 1e-9),
                Contribution("removal", "b1", "a", 0.0011470659261105, 1e-9),
                Contribution("gradient", "b1", "a", 0.0009802960494069, 1e-9),
            ),
        )
    )

    # -- local faithfulness counterexamples -------------------------------
    diamond = lambda taus: QBAG(  # noqa: E731 - four-node counterexample shape
        list(taus.items()),
        attacks=[("c", "a"), ("c", "b"), ("d", "b"), ("d", "c")],
        supports=[("b", "a")],
    )

    faith_qe = diamond({"a": 1.0, "b": 0.7, "c": 0.6, "d": 0.4})
    examples.append(
        Example(
            "faith-qe",
            "removal sign contradicts the local slope under the quadratic rule",
            "local-faithfulness",
            faith_qe,
            "qe",
            (
                FinalStrength(
                    "a",
                    0.9815551983,
                    1e-7,
                    note=(
                        "recomputed; a circulated 4-decimal label of 0.9812 does not "
                        "satisfy the update equations, and the companion values "
                        "-0.01122 and 0.02987 require 0.98156"
                    ),
                ),
                FinalStrength("b", 0.3801, 1e-4),
                FinalStrength("c", 0.5172, 1e-4),
                FinalStrength("d", 0.4, 1e-9),
                Contribution("removal", "d", "a", -0.01122, 1e-4),
                Contribution("intrinsic-removal", "d", "a", -0.01122, 1e-4),
                Contribution("gradient", "d", "a", 0.02987, 1e-4),
                PrincipleVerdict("local-faithfulness", "removal", "a", _V),
                PrincipleVerdict("local-faithfulness", "intrinsic-removal", "a", _V),
                PrincipleVerdict("quantitative-local-faithfulness", "removal", "a", _V),
                PrincipleVerdict("quantitative-local-faithfulness", "intrinsic-removal", "a", _V),
                PrincipleVerdict("local-faithfulness", "gradient", "a", _OK),
                PrincipleVerdict("quantitative-local-faithfulness", "gradient", "a", _OK),
                PrincipleVerdict("strong-faithfulness", "removal", "a", _V),
                PrincipleVerdict("strong-faithfulness", "intrinsic-removal", "a", _V),
                PrincipleVerdict("strong-faithfulness", "shapley", "a", _V),
                PrincipleVerdict("strong-faithfulness", "gradient", "a", _V),
            ),
        )
    )

    faith_sd = diamond({"a": 1.0, "b": 0.7, "c": 0.6, "d": 0.6})
    examples.append(
        Example(
            "faith-sd",
            "positive removal contribution against a plateaued response",
            "local-faithfulness",
            faith_sd,
            "sd-dfquad",
            tuple(
                _strengths({"a": 1.0, "b": 0.4, "c": 0.375, "d": 0.6}, tol=1e-9)
                + [
                    Contribution("removal", "d", "a", 0.1398, 1e-4),
                    Contribution("intrinsic-removal", "d", "a", 0.1398, 1e-4),
                    Contribution("shapley", "d", "a", 0.0636, 1e-4),
                    PrincipleVerdict("local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("local-faithfulness", "intrinsic-removal", "a", _V),
                    PrincipleVerdict("local-faithfulness", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "intrinsic-removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "shapley", "a", _V),
                ]
                + [PrincipleVerdict("strong-faithfulness", m, "a", _V) for m in ("removal", "intrinsic-removal", "shapley", "gradient")]
            ),
        )
    )

    faith_df = diamond({"a": 1.0, "b": 0.7, "c": 0.6, "d": 0.8})
    examples.append(
        Example(
            "faith-df",
            "positive removal contribution against a saturated topic",
            "local-faithfulness",
            faith_df,
            "dfquad",
            tuple(
                _strengths({"a": 1.0, "b": 0.1232, "c": 0.12, "d": 0.8}, tol=1e-9)
                + [
                    Contribution("removal", "d", "a", 0.32, 1e-9),
                    Contribution("intrinsic-removal", "d", "a", 0.32, 1e-9),
                    PrincipleVerdict("local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("local-faithfulness", "intrinsic-removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "intrinsic-removal", "a", _V),
                ]
            ),
        )
    )

    faith_eb = QBAG(
        [("a", 0.3), ("b", 0.8), ("c", 0.1), ("d", 0.65), ("e", 0.1)],
        attacks=[("c", "e"), ("e", "a")],
        supports=[("b", "a"), ("c", "b"), ("d", "b"), ("d", "c"), ("d", "e")],
    )
    examples.append(
        Example(
            "faith-eb",
            "tiny positive removal effect with a negative local slope",
            "local-faithfulness",
            faith_eb,
            "eb",
            tuple(
                _strengths({"a": 0.4379, "b": 0.8721, "c": 0.1692, "d": 0.65, "e": 0.1478})
                + [
                    Contribution("removal", "d", "a", 0.0016, 1e-4),
                    Contribution("gradient", "d", "a", -0.002, 1e-4),
                    PrincipleVerdict("local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("local-faithfulness", "intrinsic-removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "intrinsic-removal", "a", _V),
                ]
                + [PrincipleVerdict("strong-faithfulness", m, "a", _V) for m in ("removal", "intrinsic-removal", "shapley", "gradient")]
            ),
        )
    )

    faith_ebt = QBAG(
        [("a", 0.5), ("b", 0.5), ("c", 0.6), ("d", 0.8)],
        attacks=[("b", "a"), ("c", "a"), ("d", "c")],
    )
    examples.append(
        Example(
            "faith-ebt",
            "removal effect through a non-argmax attacker the top rule ignores",
            "local-faithfulness",
            faith_ebt,
            "ebt",
            tuple(
                _strengths({"a": 0.4245, "b": 0.5, "c": 0.4959, "d": 0.8})
                + [
                    Contribution("removal", "d", "a", 0.013, 1e-4),
                    Contribution("gradient", "d", "a", 0.0, 1e-12),
                    PrincipleVerdict("local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("local-faithfulness", "intrinsic-removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "removal", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "intrinsic-removal", "a", _V),
                ]
                + [PrincipleVerdict("strong-faithfulness", m, "a", _V) for m in ("removal", "intrinsic-removal", "shapley", "gradient")]
            ),
        )
    )

    faith_sqe = diamond({"a": 1.0, "b": 0.65, "c": 0.68, "d": 0.26})
    examples.append(
        Example(
            "faith-sqe",
            "coalition attribution sign contradicts the local slope",
            "local-faithfulness",
            faith_sqe,
            "qe",
            (
                FinalStrength("a", 0.9289, 1e-4),
                FinalStrength("b", 0.3602, 1e-4),
                FinalStrength(
                    "c",
                    0.6369426752,
                    1e-7,
                    note=(
                        "recomputed; a circulated label of 0.6394 transposes digits - "
                        "the downstream labels 0.3602 and 0.9289 require 0.6369"
                    ),
                ),
                FinalStrength("d", 0.26, 1e-9),
                Contribution("shapley", "d", "a", -0.0016, 1e-4),
                Contribution("gradient", "d", "a", 0.0302, 1e-4),
                PrincipleVerdict("local-faithfulness", "shapley", "a", _V),
                PrincipleVerdict("quantitative-local-faithfulness", "shapley", "a", _V),
            ),
        )
    )

    faith_seb = QBAG(
        [("a", 0.3), ("b", 0.8), ("c", 0.1), ("d", 0.75), ("e", 0.1)],
        attacks=[("c", "e"), ("e", "a")],
        supports=[("b", "a"), ("c", "b"), ("d", "b"), ("d", "c"), ("d", "e")],
    )
    examples.append(
        Example(
            "faith-seb",
            "tiny positive coalition attribution with a negative local slope",
            "local-faithfulness",
            faith_seb,
            "eb",
            tuple(
                _strengths({"a": 0.4376, "b": 0.8813, "c": 0.183, "d": 0.75, "e": 0.1583})
                + [
                    Contribution("shapley", "d", "a", 0.0007, 1e-4),
                    Contribution("gradient", "d", "a", -0.0037, 1e-4),
                    PrincipleVerdict("local-faithfulness", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "shapley", "a", _V),
                ]
            ),
        )
    )

    faith_sebt = QBAG([("a", 0.5), ("b", 0.5), ("c", 1.0)], attacks=[("b", "a"), ("c", "a")])
    examples.append(
        Example(
            "faith-sebt",
            "negative coalition attribution for an attacker the top rule masks",
            "local-faithfulness",
            faith_sebt,
            "ebt",
            tuple(
                _strengths({"a": 0.3665, "b": 0.5, "c": 1.0})
                + [
                    Contribution("shapley", "b", "a", -0.0377, 1e-4),
                    PrincipleVerdict("local-faithfulness", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-local-faithfulness", "shapley", "a", _V),
                ]
            ),
        )
    )

    # -- counterfactuality counterexamples --------------------------------
    cf_ri_chain = QBAG([("a", 0.8), ("b", 0.0), ("c", 1.0)], attacks=[("b", "a")], supports=[("c", "b")])
    cf_exp: list[Expectation] = []
    for sem, delta in (("qe", -0.16), ("sd-dfquad", -0.2666666667), ("dfquad", -0.8)):
        cf_exp.append(Contribution("intrinsic-removal", "b", "a", 0.0, 1e-12, sem))
        cf_exp.append(Contribution("removal", "b", "a", delta, 1e-9, sem))
        cf_exp.append(PrincipleVerdict("counterfactuality", "intrinsic-removal", "a", _V, sem))
        cf_exp.append(PrincipleVerdict("quantitative-counterfactuality", "intrinsic-removal", "a", _V, sem))
    examples.append(
        Example(
            "cf-ri-chain",
            "intrinsic removal erases a boosted attacker's whole effect",
            "counterfactuality",
            cf_ri_chain,
            "dfquad",
            tuple(cf_exp),
        )
    )

    cf_ri_eb = QBAG(
        [("a", 0.5), ("b", 0.1), ("c", 0.1), ("d", 0.51), ("e", 0.02), ("f", 1.0), ("g", 0.27)],
        attacks=[("b", "a"), ("c", "a"), ("g", "a")],
        supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
    )
    examples.append(
        Example(
            "cf-ri-eb",
            "intrinsic removal flips the sign of a micro-scale removal effect",
            "counterfactuality",
            cf_ri_eb,
            "eb",
            tuple(
                _strengths({"a": 0.5067, "b": 0.1043, "c": 0.1043, "d": 0.5187, "e": 0.0519, "f": 1.0, "g": 0.27})
                + [
                    Contribution("intrinsic-removal", "e", "a", 3.5431e-06, 1e-8),
                    Contribution("removal", "e", "a", -2.5e-06, 1e-8),
                    PrincipleVerdict("counterfactuality", "intrinsic-removal", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "intrinsic-removal", "a", _V),
                ]
            ),
        )
    )

    cf_ri_ebt = QBAG(
        [("a", 0.7), ("b", 0.1), ("c", 1.0), ("d", 0.1)],
        attacks=[("b", "a"), ("d", "a")],
        supports=[("c", "b")],
    )
    examples.append(
        Example(
            "cf-ri-ebt",
            "the top rule re-elects a different argmax after intrinsic removal",
            "counterfactuality",
            cf_ri_ebt,
            "ebt",
            tuple(
                _strengths({"a": 0.6733, "b": 0.2216, "c": 1.0, "d": 0.1})
                + [
                    Contribution("intrinsic-removal", "b", "a", 0.0, 1e-12),
                    Contribution("removal", "b", "a", -0.0145, 1e-4),
                    PrincipleVerdict("counterfactuality", "intrinsic-removal", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "intrinsic-removal", "a", _V),
                ]
            ),
        )
    )

    def fan(taus: dict[str, float]) -> QBAG:
        # f -> e -> {b, c, d}; b, c attack the topic, d supports it
        return QBAG(
            list(taus.items()),
            attacks=[("b", "a"), ("c", "a")],
            supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
        )

    cf_sh_qe = fan({"a": 0.1, "b": 0.15, "c": 0.15, "d": 0.15, "e": 0.495, "f": 1.0})
    examples.append(
        Example(
            "cf-shapley-qe",
            "a tiny positive coalition attribution for an argument whose removal helps",
            "counterfactuality",
            cf_sh_qe,
            "qe",
            tuple(
                _strengths({"a": 0.0829, "b": 0.4547, "c": 0.4547, "d": 0.4547, "e": 0.7475, "f": 1.0})
                + [
                    Contribution("shapley", "e", "a", 4.9326e-05, 1e-8),
                    Contribution("removal", "e", "a", -0.0149, 1e-4),
                    PrincipleVerdict("counterfactuality", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "shapley", "a", _V),
                ]
            ),
        )
    )

    _fan_swap_note = (
        "recomputed; the circulated prose swaps this graph's numbers with its "
        "sibling's (each figure reproduces the other's quoted pair), the "
        "violation holds either way"
    )
    cf_sh_sd = fan({"a": 0.1, "b": 0.15, "c": 0.15, "d": 0.2, "e": 0.495, "f": 1.0})
    examples.append(
        Example(
            "cf-shapley-sd",
            "coalition attribution sign against removal under the 1-max rule",
            "counterfactuality",
            cf_sh_sd,
            "sd-dfquad",
            tuple(
                _strengths({"a": 0.0819, "b": 0.5136, "c": 0.5136, "d": 0.5422, "e": 0.7475, "f": 1.0})
                + [
                    Contribution("shapley", "e", "a", 0.0021298616, 1e-6, note=_fan_swap_note),
                    Contribution("removal", "e", "a", -0.0109209559, 1e-6, note=_fan_swap_note),
                    PrincipleVerdict("counterfactuality", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "shapley", "a", _V),
                ]
            ),
        )
    )

    cf_sh_df = fan({"a": 0.1, "b": 0.15, "c": 0.17, "d": 0.3, "e": 0.495, "f": 1.0})
    examples.append(
        Example(
            "cf-shapley-df",
            "coalition attribution sign against removal with saturated middles",
            "counterfactuality",
            cf_sh_df,
            "dfquad",
            tuple(
                _strengths({"a": 0.1, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0, "f": 1.0}, tol=1e-9)
                + [
                    Contribution("shapley", "e", "a", 0.0026916678, 1e-6, note=_fan_swap_note),
                    Contribution("removal", "e", "a", -0.00495, 1e-9, note=_fan_swap_note),
                    PrincipleVerdict("counterfactuality", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "shapley", "a", _V),
                ]
            ),
        )
    )

    cf_sh_eb = QBAG(
        [("a", 0.3), ("b", 0.11), ("c", 0.1), ("d", 0.54), ("e", 0.025), ("f", 1.0), ("g", 0.4)],
        attacks=[("b", "a"), ("c", "a"), ("g", "a")],
        supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
    )
    examples.append(
        Example(
            "cf-shapley-eb",
            "micro-scale sign flip between coalition attribution and removal",
            "counterfactuality",
            cf_sh_eb,
            "eb",
            tuple(
                _strengths({"a": 0.2888, "b": 0.1158, "c": 0.1054, "d": 0.5505, "e": 0.0642, "f": 1.0, "g": 0.4})
                + [
                    Contribution("shapley", "f", "a", 3.438e-06, 1e-8),
                    Contribution("removal", "f", "a", -7.8369e-05, 1e-8),
                    PrincipleVerdict("counterfactuality", "shapley", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "shapley", "a", _V),
                ]
            ),
        )
    )

    cf_sh_ebt = QBAG(
        [("a", 0.3), ("b", 0.4), ("c", 0.55), ("d", 0.51), ("e", 0.25), ("f", 1.0), ("g", 0.429)],
        attacks=[("b", "a"), ("c", "d"), ("f", "e"), ("g", "a"), ("g", "d")],
        supports=[("d", "a"), ("e", "b"), ("e", "d")],
    )
    examples.append(
        Example(
            "cf-shapley-ebt",
            "an attacker of the source whose removal re-elects the argmax",
            "counterfactuality",
            cf_sh_ebt,
            "ebt",
            (
                FinalStrength("a", 0.3030, 1e-4),
                FinalStrength("b", 0.4250, 1e-4),
                FinalStrength("c", 0.55, 1e-9),
                FinalStrength("d", 0.4474, 1e-4),
                FinalStrength(
                    "e",
                    0.1414598204,
                    1e-7,
                    note=(
                        "recomputed; a circulated label of 0.0141 drops a digit - the "
                        "downstream label 0.4250 requires 0.1415, which the sibling "
                        "graph prints for the identical node"
                    ),
                ),
                FinalStrength("f", 1.0, 1e-9),
                FinalStrength("g", 0.429, 1e-9),
                Contribution("shapley", "f", "a", -2.7043e-05, 1e-8),
                Contribution("removal", "f", "a", 7.3331e-05, 1e-8),
                PrincipleVerdict("counterfactuality", "shapley", "a", _V),
                PrincipleVerdict("quantitative-counterfactuality", "shapley", "a", _V),
            ),
        )
    )

    # cf-gradient-qe: ten mid-layer arguments, five supporting and five
    # attacking, so both the mid-layer aggregate and the topic aggregate are
    # exactly balanced and every gradient through them is exactly zero.
    cs = [(f"c{i}", 0.35) for i in range(10)]
    cf_g_qe = QBAG(
        [("a", 0.5), ("b", 0.2)] + cs + [("d", 0.296), ("e", 0.2)],
        attacks=[(f"c{i}", "b") for i in range(5, 10)] + [("e", "a")],
        supports=[("b", "a")] + [(f"c{i}", "b") for i in range(5)] + [("d", f"c{i}") for i in range(10)],
    )
    examples.append(
        Example(
            "cf-gradient-qe",
            "balanced mid-layer: zero gradients with nonzero removal effects",
            "counterfactuality",
            cf_g_qe,
            "qe",
            tuple(
                _strengths({"a": 0.5, "b": 0.2, "d": 0.296, "e": 0.2}, tol=1e-9)
                + [FinalStrength("c0", 0.4024, 1e-4)]
                + [
                    Contribution("gradient", "d", "a", 0.0, 1e-12),
                    Contribution("gradient", "e", "a", 0.0, 1e-12),
                    Contribution("removal", "e", "a", -0.0192307692, 1e-9),
                    Contribution("removal", "d", "a", 0.0, 1e-12),
                    PrincipleVerdict("counterfactuality", "gradient", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "gradient", "a", _V),
                ]
            ),
            notes=(
                "the schematic drawing leaves the support/attack split of the ten "
                "mid-layer arguments open; the printed node strengths (0.2 -> 0.2, "
                "0.5 -> 0.5) hold only for the balanced five/five split, which is "
                "also the only split that witnesses the violation, so the corpus "
                "instantiates that one; a circulated per-removal delta of -0.0038 "
                "is not reproducible under any ten-argument instantiation",
            ),
        )
    )

    cf_g_sd = QBAG([("a", 0.5), ("b", 0.0), ("c", 1.0)], attacks=[("b", "a"), ("c", "b")])
    examples.append(
        Example(
            "cf-gradient-sd",
            "a dead attacker with a live gradient under the 1-max rule",
            "counterfactuality",
            cf_g_sd,
            "sd-dfquad",
            tuple(
                _strengths({"a": 0.5, "b": 0.0, "c": 1.0}, tol=1e-9)
                + [
                    Contribution("gradient", "b", "a", -0.25, 1e-9),
                    Contribution("removal", "b", "a", 0.0, 1e-12),
                    PrincipleVerdict("counterfactuality", "gradient", "a", _V),
                    PrincipleVerdict("quantitative-counterfactuality", "gradient", "a", _V),
                ]
            ),
        )
    )

    cf_g_eb = QBAG([("a", 0.5), ("b", 0.0), ("c", 1.0)], attacks=[("b", "a")], supports=[("c", "b")])
    cf_g_eb_exp: list[Expectation] = []
    for sem in ("eb", "ebt"):
        cf_g_eb_exp += [
            FinalStrength("a", 0.5, 1e-9, sem),
            FinalStrength("b", 0.0, 1e-9, sem),
            Contribution("gradient", "b", "a", -0.4530, 1e-4, sem),
            Contribution("removal", "b", "a", 0.0, 1e-12, sem),
            PrincipleVerdict("counterfactuality", "gradient", "a", _V, sem),
            PrincipleVerdict("quantitative-counterfactuality", "gradient", "a", _V, sem),
        ]
    examples.append(
        Example(
            "cf-gradient-eb",
            "a zero-strength attacker with a steep gradient",
            "counterfactuality",
            cf_g_eb,
            "eb",
            tuple(cf_g_eb_exp),
        )
    )

    # -- proximity counterexamples ----------------------------------------
    def prox(
        example_id: str,
        description: str,
        graph: QBAG,
        semantics: str,
        method: str,
        nearer: str,
        farther: str,
        near_value: float,
        far_value: float,
        tol: float = 1e-3,
        extra_strengths: dict[str, float] | None = None,
        strength_tol: float = 1e-4,
        notes: tuple[str, ...] = (),
        extra: list[Expectation] | None = None,
    ) -> Example:
        exp: list[Expectation] = []
        if extra_strengths:
            exp += _strengths(extra_strengths, tol=strength_tol)
        exp += [
            Contribution(method, nearer, "a", near_value, tol),
            Contribution(method, farther, "a", far_value, tol),
            PrincipleVerdict("proximity", method, "a", _V),
        ]
        if extra:
            exp += extra
        return Example(example_id, description, "proximity", graph, semantics, tuple(exp), notes)

    att_chain = lambda tb: QBAG(  # noqa: E731 - c -> b -> a pure attack chain
        [("a", 0.5), ("b", tb), ("c", 1.0)], attacks=[("b", "a"), ("c", "b")]
    )
    sup_chain = QBAG([("a", 0.5), ("b", 0.1), ("c", 0.9)], supports=[("b", "a"), ("c", "b")])

    examples.append(
        prox(
            "prox-removal-qe",
            "an attacker so weakened that removing its own attacker matters more",
            att_chain(0.1),
            "qe",
            "removal",
            "b",
            "c",
            -0.0012,
            0.0037,
            extra_strengths={"a": 0.4988, "b": 0.05, "c": 1.0},
        )
    )
    examples.append(
        prox(
            "prox-removal-df",
            "a fully suppressed attacker contributes nothing at all",
            att_chain(0.1),
            "dfquad",
            "removal",
            "b",
            "c",
            0.0,
            0.05,
            tol=1e-9,
            extra_strengths={"a": 0.5, "b": 0.0, "c": 1.0},
            strength_tol=1e-9,
        )
    )
    examples.append(
        prox(
            "prox-removal-sd",
            "a supporter whose suppressor dominates the removal effect",
            QBAG(
                [("a", 0.5), ("b", 0.05), ("c", 1.0), ("d", 1.0)],
                attacks=[("c", "b")],
                supports=[("b", "a"), ("d", "b")],
            ),
            "sd-dfquad",
            "removal",
            "b",
            "c",
            0.0238,
            -0.1483,
            extra_strengths={"a": 0.5238, "b": 0.05, "c": 1.0, "d": 1.0},
        )
    )
    prox_r_eb = prox(
        "prox-removal-eb",
        "attack chain where the indirect endpoint outweighs the direct one",
        att_chain(0.1),
        "eb",
        "removal",
        "b",
        "c",
        -0.0075,
        0.0089,
        extra_strengths={"a": 0.4925, "b": 0.0451, "c": 1.0},
        extra=[
            Contribution("removal", "b", "a", -0.0075, 1e-3, "ebt"),
            Contribution("removal", "c", "a", 0.0089, 1e-3, "ebt"),
            PrincipleVerdict("proximity", "removal", "a", _V, "ebt"),
        ],
    )
    examples.append(prox_r_eb)

    examples.append(
        prox(
            "prox-iremoval-qe",
            "intrinsic removal strips the boost that made the nearer argument count",
            sup_chain,
            "qe",
            "intrinsic-removal",
            "b",
            "c",
            0.005,
            0.0959,
            extra_strengths={"a": 0.6009, "b": 0.5028, "c": 0.9},
        )
    )
    examples.append(
        prox(
            "prox-iremoval-df",
            "support chain; also the gradient counterexample for the linear rule",
            sup_chain,
            "dfquad",
            "intrinsic-removal",
            "b",
            "c",
            0.05,
            0.405,
            tol=1e-9,
            extra_strengths={"a": 0.955, "b": 0.91, "c": 0.9},
            strength_tol=1e-9,
            extra=[
                Contribution("gradient", "b", "a", 0.05, 1e-9),
                Contribution("gradient", "c", "a", 0.45, 1e-9),
                PrincipleVerdict("proximity", "gradient", "a", _V),
            ],
        )
    )
    examples.append(
        prox(
            "prox-iremoval-sd",
            "support chain under the 1-max rule",
            sup_chain,
            "sd-dfquad",
            "intrinsic-removal",
            "b",
            "c",
            0.0454,
            0.127,
            extra_strengths={"a": 0.6724, "b": 0.5263, "c": 0.9},
        )
    )
    examples.append(
        prox(
            "prox-iremoval-eb",
            "support chain under the exponential rule",
            sup_chain,
            "eb",
            "intrinsic-removal",
            "b",
            "c",
            0.0169,
            0.0184,
            extra_strengths={"a": 0.5353, "b": 0.2054, "c": 0.9},
            extra=[
                Contribution("intrinsic-removal", "b", "a", 0.0169, 1e-3, "ebt"),
                Contribution("intrinsic-removal", "c", "a", 0.0184, 1e-3, "ebt"),
                PrincipleVerdict("proximity", "intrinsic-removal", "a", _V, "ebt"),
            ],
        )
    )

    examples.append(
        prox(
            "prox-shapley-qe",
            "fan graph: the gate argument's coalition attribution trails its source's",
            cf_sh_qe,
            "qe",
            "shapley",
            "e",
            "f",
            4.9326e-05,
            -0.00056,
            tol=1e-3,
        )
    )
    prox_sh_df = QBAG(
        [("a", 0.125), ("b", 0.0), ("c", 0.2), ("d", 0.2), ("e", 0.2), ("f", 1.0)],
        attacks=[("b", "a"), ("c", "a")],
        supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
    )
    examples.append(
        prox(
            "prox-shapley-df",
            "saturated fan graph under the linear rule",
            prox_sh_df,
            "dfquad",
            "shapley",
            "e",
            "f",
            0.0037,
            0.0057,
            extra_strengths={"a": 0.125, "b": 1.0, "c": 1.0, "e": 1.0, "f": 1.0},
            strength_tol=1e-9,
            extra=[
                FinalStrength(
                    "d",
                    1.0,
                    1e-9,
                    note=(
                        "recomputed; a circulated label of 0.1 is impossible - d is "
                        "supported by a saturated source, and the topic label 0.125 "
                        "requires sigma(d) = 1"
                    ),
                )
            ],
        )
    )
    prox_sh_sdf = QBAG(
        [
            ("a", 0.3),
            ("b", 0.5),
            ("c", 0.01),
            ("d", 0.4),
            ("e", 0.01),
            ("f", 1.0),
            ("g", 1.0),
            ("h", 1.0),
            ("i", 1.0),
        ],
        attacks=[("b", "a"), ("c", "a"), ("g", "a"), ("i", "d")],
        supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e"), ("h", "b"), ("h", "c")],
    )
    examples.append(
        prox(
            "prox-shapley-sdf",
            "nine-argument fan with saturating helpers under the 1-max rule",
            prox_sh_sdf,
            "sd-dfquad",
            "shapley",
            "e",
            "f",
            0.0022976342,
            0.0023138460,
            tol=1e-6,
            extra_strengths={
                "a": 0.1732,
                "b": 0.75,
                "c": 0.505,
                "d": 0.2676,
                "e": 0.505,
                "f": 1.0,
                "g": 1.0,
                "h": 1.0,
                "i": 1.0,
            },
            notes=(
                "the node strengths printed on this figure pin the drawn topology "
                "(in particular, no support from h to d), and on that graph the "
                "attributions are 0.0022976 < 0.0023138; the circulated pair "
                "0.00065 < 0.00075 matches no topology that is consistent with "
                "the labels, so the corpus pins the recomputed values - the "
                "violation itself reproduces either way",
            ),
        )
    )
    prox_sh_eb = QBAG(
        [("a", 0.5), ("b", 0.1), ("c", 0.1), ("d", 0.51), ("e", 0.25), ("f", 1.0), ("g", 0.27)],
        attacks=[("b", "a"), ("c", "a"), ("g", "a")],
        supports=[("d", "a"), ("e", "b"), ("e", "c"), ("e", "d"), ("f", "e")],
    )
    examples.append(
        prox(
            "prox-shapley-eb",
            "seven-argument fan under the exponential rule",
            prox_sh_eb,
            "eb",
            "shapley",
            "e",
            "f",
            -0.00022,
            -0.00026,
            tol=1e-3,
            extra_strengths={"a": 0.5052, "b": 0.1433, "c": 0.1433, "d": 0.5874, "e": 0.4418, "f": 1.0, "g": 0.27},
        )
    )
    prox_sh_ebt = QBAG(
        [("a", 0.3), ("b", 0.4), ("c", 0.55), ("d", 0.51), ("e", 0.25), ("f", 1.0), ("g", 0.25)],
        attacks=[("b", "a"), ("c", "d"), ("f", "e"), ("g", "a"), ("g", "d")],
        supports=[("d", "a"), ("e", "b"), ("e", "d")],
    )
    examples.append(
        prox(
            "prox-shapley-ebt",
            "seven-argument graph with argmax hand-offs under the top rule",
            prox_sh_ebt,
            "ebt",
            "shapley",
            "e",
            "f",
            -0.000098,
            0.000108,
            tol=1e-3,
            extra_strengths={"a": 0.3036, "b": 0.425, "c": 0.55, "d": 0.4474, "e": 0.1415, "f": 1.0, "g": 0.25},
        )
    )

    prox_g_qe = QBAG(
        [("a", 0.5), ("b", 0.0)] + [(f"c{i}", 0.1) for i in range(5)] + [("d", 0.5)],
        supports=[("b", "a")]
        + [(f"c{i}", "b") for i in range(5)]
        + [("d", f"c{i}") for i in range(5)],
    )
    examples.append(
        prox(
            "prox-gradient-qe",
            "five parallel conduits amplify the far source's gradient",
            prox_g_qe,
            "qe",
            "gradient",
            "b",
            "d",
            0.1081,
            0.2945,
            extra_strengths={"a": 0.6524, "b": 0.6622, "c0": 0.28, "d": 0.5},
        )
    )
    prox_g_sd = QBAG(
        [("a", 0.5), ("b", 1.0)] + [(f"c{i}", 0.1) for i in range(5)] + [("d", 0.01)],
        attacks=[(f"c{i}", "b") for i in range(5)],
        supports=[("b", "a")] + [("d", f"c{i}") for i in range(5)],
    )
    examples.append(
        prox(
            "prox-gradient-sd",
            "five parallel attackers amplify the far source's gradient",
            prox_g_sd,
            "sd-dfquad",
            "gradient",
            "b",
            "d",
            0.121,
            -0.234,
            extra_strengths={"a": 0.7051, "c0": 0.1089, "d": 0.01},
            extra=[
                FinalStrength(
                    "b",
                    0.6953285614,
                    1e-7,
                    note="recomputed; a circulated label of 0.6952 is off in the fourth decimal",
                )
            ],
        )
    )
    prox_g_eb = QBAG(
        [("a", 0.25), ("b", 0.4)] + [(f"c{i}", 0.1) for i in range(35)] + [("d", 0.5)],
        supports=[("b", "a")]
        + [(f"c{i}", "b") for i in range(35)]
        + [("d", f"c{i}") for i in range(35)],
    )
    examples.append(
        prox(
            "prox-gradient-eb",
            "thirty-five parallel conduits under the exponential rule",
            prox_g_eb,
            "eb",
            "gradient",
            "b",
            "d",
            0.0083,
            0.0101,
            extra_strengths={"a": 0.4394, "b": 0.9892, "c0": 0.1501, "d": 0.5},
            notes=(
                "the drawing abbreviates the conduit layer with an ellipsis; the "
                "printed strengths 0.9892 and 0.4394 and both quoted gradients "
                "are consistent only with thirty-five conduits, so the corpus "
                "instantiates that count",
            ),
        )
    )

    registry = {}
    for example in examples:
        if example.id in registry:
            raise ValueError(f"duplicate example id {example.id}")
        registry[example.id] = example
    return registry


_EXAMPLES = _build_examples()

_ALIASES = {
    "fig-cf-shapley-qe": "cf-shapley-qe",
    "fig-table-example": "table-example",
}


def _resolve(example_id: str) -> str:
    if example_id in _EXAMPLES:
        return example_id
    if example_id in _ALIASES:
        return _ALIASES[example_id]
    if example_id.startswith("fig-") and example_id[4:] in _EXAMPLES:
        return example_id[4:]
    raise UnknownExample(f"no example registered under {example_id!r}")


def list_examples() -> list[tuple[str, str, str]]:
    """(id, description, group) for every example, in registration order."""
    return [(e.id, e.description, e.group) for e in _EXAMPLES.values()]


def load_example(example_id: str) -> Example:
    return _EXAMPLES[_resolve(example_id)]


def _check_expectation(
    example: Example,
    expectation: Expectation,
    caches: dict[str, EvaluationCache],
    overrides: CheckConfig | None,
) -> ExpectationResult:
    semantics_name = getattr(expectation, "semantics", None) or example.semantics
    semantics = semantics_by_name(semantics_name)
    cache = caches.get(semantics_name)
    if cache is None:
        cache = EvaluationCache(example.graph, semantics)
        caches[semantics_name] = cache

    if isinstance(expectation, FinalStrength):
        actual = cache.strengths()[example.graph.index_of(expectation.argument)]
        delta = actual - expectation.expected
        return ExpectationResult(expectation, abs(delta) <= expectation.tol, actual, expectation.expected, delta)
    if isinstance(expectation, InitialStrength):
        actual = example.graph.initial_strength(expectation.argument)
        delta = actual - expectation.expected
        return ExpectationResult(expectation, abs(delta) <= expectation.tol, actual, expectation.expected, delta)
    if isinstance(expectation, Contribution):
        method = method_by_name(expectation.method)
        actual = contribution(
            example.graph, semantics, method, expectation.topic, expectation.contributor, cache=cache
        )
        if isinstance(expectation.expected, Undefined) or isinstance(actual, Undefined):
            ok = isinstance(expectation.expected, Undefined) and isinstance(actual, Undefined)
            return ExpectationResult(expectation, ok, actual, expectation.expected, None)
        delta = actual - expectation.expected
        return ExpectationResult(expectation, abs(delta) <= expectation.tol, actual, expectation.expected, delta)
    if isinstance(expectation, PrincipleVerdict):
        report = run_check(
            example.graph,
            semantics,
            method_by_name(expectation.method),
            principle_by_name(expectation.principle),
            expectation.topic,
            overrides,
            cache=cache,
        )
        actual = report.verdict.value
        return ExpectationResult(expectation, actual == expectation.expected, actual, expectation.expected, None)
    if isinstance(expectation, SweepPoint):
        index = example.graph.index_of(expectation.vary)
        actual = cache.strengths_perturbed(index, expectation.epsilon)[
            example.graph.index_of(expectation.topic)
        ]
        delta = actual - expectation.expected
        return ExpectationResult(expectation, abs(delta) <= expectation.tol, actual, expectation.expected, delta)
    raise TypeError(f"unknown expectation {expectation!r}")


def verify_example(example_id: str, overrides: CheckConfig | None = None) -> VerificationReport:
    """Recompute every expectation of one example and report the deltas."""
    example = load_example(example_id)
    caches: dict[str, EvaluationCache] = {}
    results = tuple(_check_expectation(example, exp, caches, overrides) for exp in example.expectations)
    return VerificationReport(example.id, all(r.ok for r in results), results)


def verify_all(overrides: CheckConfig | None = None) -> list[VerificationReport]:
    return [verify_example(example_id, overrides) for example_id, _, _ in list_examples()]


def export_examples(destination: str | Path) -> list[Path]:
    """Write every example as ``<id>.json`` (graph file format) plus an
    ``<id>.expect.json`` sidecar with semantics, notes and expectations."""
    from .graphfile import serialize_graph

    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for example_id, _, _ in list_examples():
        example = load_example(example_id)
        graph_path = destination / f"{example_id}.json"
        graph_path.write_text(serialize_graph(example.graph), encoding="utf-8")
        sidecar = {
            "id": example.id,
            "description": example.description,
            "group": example.group,
            "semantics": example.semantics,
            "notes": list(example.notes),
            "expectations": [
                {"kind": type(exp).__name__, **{k: ("undef" if isinstance(v, Undefined) else v) for k, v in asdict(exp).items()}}
                for exp in example.expectations
            ],
        }
        sidecar_path = destination / f"{example_id}.expect.json"
        sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
        written.extend([graph_path, sidecar_path])
    return written
