import dataclasses
import json

import pytest

from qbag import (
    QE,
    UNDEFINED,
    CheckConfig,
    ShapleyExact,
    UnknownExample,
    contribution,
    evaluate,
    parse_graph,
    serialize_graph,
)
from qbag.corpus import (
    _DATA,
    _IDS,
    Contribution,
    PrincipleVerdict,
    _check_expectation,
    export_examples,
    list_examples,
    load_example,
    supporters_graph,
    verify_all,
    verify_example,
)


REQUIRED_IDS = {
    "fig-intro",
    "table-example",
    "fig-ce-negative",
    "fig-supporters",
    # the eight faithfulness counterexamples
    "faith-qe",
    "faith-sd",
    "faith-df",
    "faith-eb",
    "faith-ebt",
    "faith-sqe",
    "faith-seb",
    "faith-sebt",
    # counterfactuality counterexamples
    "cf-ri-chain",
    "cf-ri-eb",
    "cf-ri-ebt",
    "cf-shapley-qe",
    "cf-shapley-sd",
    "cf-shapley-df",
    "cf-shapley-eb",
    "cf-shapley-ebt",
    "cf-gradient-qe",
    "cf-gradient-sd",
    "cf-gradient-eb",
    # proximity counterexamples
    "prox-removal-qe",
    "prox-removal-df",
    "prox-removal-sd",
    "prox-removal-eb",
    "prox-iremoval-qe",
    "prox-iremoval-df",
    "prox-iremoval-sd",
    "prox-iremoval-eb",
    "prox-shapley-qe",
    "prox-shapley-df",
    "prox-shapley-sdf",
    "prox-shapley-eb",
    "prox-shapley-ebt",
    "prox-gradient-qe",
    "prox-gradient-sd",
    "prox-gradient-eb",
}


class TestListing:
    def test_contains_required_examples(self):
        ids = {example_id for example_id, _, _ in list_examples()}
        assert REQUIRED_IDS <= ids

    def test_listing_entries_are_descriptive(self):
        for example_id, description, group in list_examples():
            assert example_id and description and group

    def test_load_unknown_example(self):
        with pytest.raises(UnknownExample):
            load_example("nope")

    def test_aliases(self):
        assert load_example("fig-cf-shapley-qe").id == "cf-shapley-qe"
        assert load_example("fig-faith-qe").id == "faith-qe"
        for alias, target in (("fig-cf-shapley-qe", "cf-shapley-qe"), ("fig-table-example", "table-example")):
            assert target in _IDS
            assert load_example(alias).id == target

    def test_examples_are_deeply_immutable(self):
        example = load_example("fig-intro")
        with pytest.raises(dataclasses.FrozenInstanceError):
            example.id = "other"
        assert isinstance(example.expectations, tuple)
        assert load_example("fig-intro") is example


def sidecar_text(example) -> str:
    """The serializer that wrote the shipped sidecars, kept as the loader's
    oracle: the class name as ``kind``, then every field in order, with an
    UNDEFINED contribution written as ``"undef"``."""
    doc = {
        "id": example.id,
        "description": example.description,
        "group": example.group,
        "semantics": example.semantics,
        "notes": list(example.notes),
        "expectations": [
            {
                "kind": type(exp).__name__,
                **{k: ("undef" if v is UNDEFINED else v) for k, v in vars(exp).items()},
            }
            for exp in example.expectations
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


class TestShippedFiles:
    def test_the_files_are_exactly_the_listed_ids(self):
        # unique ids, both files for each, no stray file, and each sidecar
        # names its own id
        assert len(set(_IDS)) == len(_IDS)
        expected = {name for i in _IDS for name in (f"{i}.json", f"{i}.expect.json")}
        assert {path.name for path in _DATA.iterdir()} == expected
        for example_id in _IDS:
            assert json.loads((_DATA / f"{example_id}.expect.json").read_text(encoding="utf-8"))["id"] == example_id

    def test_loaded_examples_serialize_to_the_shipped_bytes(self):
        for example_id in _IDS:
            example = load_example(example_id)
            assert sidecar_text(example).encode() == (_DATA / f"{example_id}.expect.json").read_bytes(), example_id
            assert serialize_graph(example.graph).encode() == (_DATA / f"{example_id}.json").read_bytes(), example_id


class TestVerification:
    def test_every_example_passes(self):
        for report in verify_all():
            assert report.passed, (
                report.example_id,
                [(f.expectation, f.actual, f.delta) for f in report.failures],
            )

    def test_verify_all_forwards_overrides(self, monkeypatch):
        import qbag.corpus as corpus

        seen = []
        monkeypatch.setattr(
            corpus, "verify_example", lambda example_id, overrides=None: seen.append(overrides)
        )
        cfg = CheckConfig(eq_tol=1e-6, grid_points=11)
        verify_all(cfg)
        assert len(seen) == len(list_examples())
        assert all(overrides is cfg for overrides in seen)

    def test_table_example_has_42_expectations(self):
        report = verify_example("table-example")
        assert report.passed
        assert len(report.results) == 42
        undef_cells = [
            r
            for r in report.results
            if isinstance(r.expectation, Contribution) and r.expectation.expected is UNDEFINED
        ]
        assert len(undef_cells) == 9

    def test_tampered_expectation_is_detected(self):
        example = load_example("table-example")
        bad = Contribution("removal", "b", "a", -0.375 + 0.1, 1e-9)
        result = _check_expectation(example, bad, {}, None)
        assert not result.ok
        assert result.delta == pytest.approx(-0.1, abs=1e-9)

    def test_annotated_cells_are_documented(self):
        annotated = []
        for example_id, _, _ in list_examples():
            for exp in load_example(example_id).expectations:
                if getattr(exp, "note", ""):
                    annotated.append((example_id, exp))
        with_notes = {(ex, getattr(e, "argument", getattr(e, "contributor", "?"))) for ex, e in annotated}
        # the five strength-label corrections must be among the documented cells
        assert {
            ("faith-qe", "a"),
            ("faith-sqe", "c"),
            ("cf-shapley-ebt", "e"),
            ("prox-shapley-df", "d"),
            ("prox-gradient-sd", "b"),
        } <= with_notes


class TestTable4Reconstruction:
    """The corpus must witness every violation cell of the principle
    satisfaction table: (semantics, method) pairs per principle."""

    ALL5 = frozenset({"qe", "dfquad", "sd-dfquad", "eb", "ebt"})
    EXPECTED_X_CELLS = {
        "contribution-existence": {
            (sem, m)
            for sem in ("dfquad", "sd-dfquad", "ebt")
            for m in ("removal", "intrinsic-removal", "gradient")
        },
        "quantitative-contribution-existence": {
            (sem, m) for sem in ALL5 for m in ("removal", "intrinsic-removal", "gradient")
        },
        "local-faithfulness": {
            (sem, m) for sem in ALL5 for m in ("removal", "intrinsic-removal", "shapley")
        },
        "quantitative-local-faithfulness": {
            (sem, m) for sem in ALL5 for m in ("removal", "intrinsic-removal", "shapley")
        },
        "counterfactuality": {
            (sem, m) for sem in ALL5 for m in ("intrinsic-removal", "shapley", "gradient")
        },
        "quantitative-counterfactuality": {
            (sem, m) for sem in ALL5 for m in ("intrinsic-removal", "shapley", "gradient")
        },
    }

    def collect_violation_cells(self):
        cells: dict[str, set[tuple[str, str]]] = {}
        for example_id, _, _ in list_examples():
            example = load_example(example_id)
            for exp in example.expectations:
                if isinstance(exp, PrincipleVerdict) and exp.expected == "violation":
                    sem = exp.semantics or example.semantics
                    cells.setdefault(exp.principle, set()).add((sem, exp.method))
        return cells

    def test_every_x_cell_is_witnessed(self):
        cells = self.collect_violation_cells()
        for principle, expected in self.EXPECTED_X_CELLS.items():
            missing = expected - cells.get(principle, set())
            assert not missing, (principle, sorted(missing))

    def test_no_witness_claims_a_satisfied_cell(self):
        # removal satisfies (quantitative) counterfactuality everywhere and
        # shapley satisfies (quantitative) contribution existence everywhere;
        # no corpus entry may expect the opposite.
        cells = self.collect_violation_cells()
        for principle in ("counterfactuality", "quantitative-counterfactuality"):
            assert not {c for c in cells.get(principle, set()) if c[1] == "removal"}
        for principle in ("contribution-existence", "quantitative-contribution-existence"):
            assert not {c for c in cells.get(principle, set()) if c[1] == "shapley"}
        assert not {c for c in cells.get("directionality", set())}
        for principle in ("local-faithfulness", "quantitative-local-faithfulness"):
            assert not {c for c in cells.get(principle, set()) if c[1] == "gradient"}


class TestSupportersFamily:
    def test_shapley_telescopes_to_average_delta(self):
        for n in range(1, 13):
            g = supporters_graph(n)
            sigma = evaluate(g, QE)
            expected = (sigma["a"] - 0.5) / n
            assert contribution(g, QE, ShapleyExact(21), "a", "b1") == pytest.approx(
                expected, abs=1e-12
            )

    def test_separation_at_ten_supporters(self):
        report = verify_example("fig-supporters")
        assert report.passed
        assert load_example("fig-supporters").graph == supporters_graph(10)

    def test_rejects_zero_supporters(self):
        with pytest.raises(ValueError):
            supporters_graph(0)


class TestExport:
    def test_round_trip_and_sidecars(self, tmp_path):
        # a copy of the shipped files, in listing order, into a new directory
        destination = tmp_path / "corpus"
        written = export_examples(destination)
        ids = [example_id for example_id, _, _ in list_examples()]
        names = [name for i in ids for name in (f"{i}.json", f"{i}.expect.json")]
        assert written == [destination / name for name in names]
        assert all(path.read_bytes() == (_DATA / path.name).read_bytes() for path in written)
        for example_id in ids:
            parsed = parse_graph((destination / f"{example_id}.json").read_text(encoding="utf-8"))
            assert parsed == load_example(example_id).graph
