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

The examples ship as package data in ``examples/``, the only place they
are defined: one ``<id>.json`` in the CLI graph format per example plus an
``<id>.expect.json`` sidecar carrying its description, group, default
semantics, notes and expectations.  Each sidecar expectation is an object
whose ``kind`` names its class and whose other keys are that class's
fields; a contribution expected to have no value is written ``"undef"``.
An example is read on first use and kept, and ``export_examples`` copies
the files.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Union

from ._frozen import Frozen
from .contributions import UNDEFINED, EvaluationCache, Undefined, contribution, method_by_name
from .errors import UnknownExample
from .graph import QBAG
from .graphfile import load_graph
from .principles import CheckConfig, principle_by_name, run_check
from .semantics import semantics_by_name


class FinalStrength(Frozen):
    argument: str
    expected: float
    tol: float = 1e-4
    semantics: str | None = None
    note: str = ""


class InitialStrength(Frozen):
    argument: str
    expected: float
    tol: float = 1e-12
    semantics: str | None = None
    note: str = ""


class Contribution(Frozen):
    method: str
    contributor: str
    topic: str
    expected: Union[float, Undefined]
    tol: float = 1e-9
    semantics: str | None = None
    note: str = ""


class PrincipleVerdict(Frozen):
    principle: str
    method: str
    topic: str
    expected: str  # "violation" or "satisfied-on-instance"
    semantics: str | None = None
    note: str = ""


class SweepPoint(Frozen):
    topic: str
    vary: str
    epsilon: float
    expected: float
    tol: float = 1e-9
    semantics: str | None = None
    note: str = ""


Expectation = Union[FinalStrength, InitialStrength, Contribution, PrincipleVerdict, SweepPoint]


class Example(Frozen):
    id: str
    description: str
    group: str
    graph: QBAG
    semantics: str
    expectations: tuple[Expectation, ...]
    notes: tuple[str, ...] = ()


class ExpectationResult(Frozen):
    expectation: Expectation
    ok: bool
    actual: object
    expected: object
    delta: float | None


class VerificationReport(Frozen):
    example_id: str
    passed: bool
    results: tuple[ExpectationResult, ...]

    @property
    def failures(self) -> tuple[ExpectationResult, ...]:
        return tuple(r for r in self.results if not r.ok)


# --------------------------------------------------------------------- data

_DATA = Path(__file__).with_name("examples")

# registration order: the order of ``list_examples`` and ``reproduce --all``
_IDS = (
    # the five-argument graph whose middle layer makes an indirect
    # supporter's net effect non-monotonic
    "fig-intro",
    "fig-intro-e02",
    # the three-argument chain behind the reference contribution table
    # (42 expectations: 3 initial and 3 final strengths + 36 cells)
    "table-example",
    # two saturated attackers; removing either changes nothing under
    # product/top aggregation, so nothing "explains" the drop
    "fig-ce-negative",
    "fig-supporters",  # supporters_graph(10)
    "faith-qe", "faith-sd", "faith-df", "faith-eb", "faith-ebt",
    "faith-sqe", "faith-seb", "faith-sebt",
    "cf-ri-chain", "cf-ri-eb", "cf-ri-ebt",
    "cf-shapley-qe", "cf-shapley-sd", "cf-shapley-df", "cf-shapley-eb", "cf-shapley-ebt",
    # ten mid-layer arguments, five supporting and five attacking, so both
    # the mid-layer aggregate and the topic aggregate are exactly balanced
    # and every gradient through them is exactly zero
    "cf-gradient-qe",
    "cf-gradient-sd", "cf-gradient-eb",
    "prox-removal-qe", "prox-removal-df", "prox-removal-sd", "prox-removal-eb",
    "prox-iremoval-qe", "prox-iremoval-df", "prox-iremoval-sd", "prox-iremoval-eb",
    "prox-shapley-qe", "prox-shapley-df", "prox-shapley-sdf", "prox-shapley-eb", "prox-shapley-ebt",
    "prox-gradient-qe", "prox-gradient-sd", "prox-gradient-eb",
)

_KINDS = {kind.__name__: kind for kind in (FinalStrength, InitialStrength, Contribution, PrincipleVerdict, SweepPoint)}


def supporters_graph(n: int, topic_strength: float = 0.5) -> QBAG:
    """One topic plus n unit-strength supporters and no other relations."""
    if n < 1:
        raise ValueError("need at least one supporter")
    args = [("a", topic_strength)] + [(f"b{i}", 1.0) for i in range(1, n + 1)]
    return QBAG(args, supports=[(f"b{i}", "a") for i in range(1, n + 1)])


def _expectation(fields: dict) -> Expectation:
    """One sidecar entry: its ``kind`` names the class, the rest are its
    fields; a contribution expected to be ``"undef"`` is UNDEFINED."""
    kind = _KINDS[fields.pop("kind")]
    if kind is Contribution and fields["expected"] == "undef":
        fields["expected"] = UNDEFINED
    return kind(**fields)


@lru_cache(maxsize=None)
def _load(example_id: str) -> Example:
    """Read one example's graph file and sidecar, once per id."""
    doc = json.loads((_DATA / f"{example_id}.expect.json").read_text(encoding="utf-8"))
    return Example(
        doc["id"],
        doc["description"],
        doc["group"],
        load_graph(_DATA / f"{example_id}.json"),
        doc["semantics"],
        tuple(map(_expectation, doc["expectations"])),
        tuple(doc["notes"]),
    )


def _resolve(example_id: str) -> str:
    if example_id in _IDS:
        return example_id
    if example_id.startswith("fig-") and example_id[4:] in _IDS:
        return example_id[4:]
    raise UnknownExample(f"no example registered under {example_id!r}")


def list_examples() -> list[tuple[str, str, str]]:
    """(id, description, group) for every example, in registration order."""
    return [(e.id, e.description, e.group) for e in map(_load, _IDS)]


def load_example(example_id: str) -> Example:
    return _load(_resolve(example_id))


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
    """Copy every example's ``<id>.json`` graph file and its
    ``<id>.expect.json`` sidecar (semantics, notes and expectations) into
    ``destination``, creating it if needed."""
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for example_id in _IDS:
        for name in (f"{example_id}.json", f"{example_id}.expect.json"):
            path = destination / name
            path.write_bytes((_DATA / name).read_bytes())
            written.append(path)
    return written
