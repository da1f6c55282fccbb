import dataclasses

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
)
from qbag.corpus import (
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

    def test_examples_are_deeply_immutable(self):
        example = load_example("fig-intro")
        with pytest.raises(dataclasses.FrozenInstanceError):
            example.id = "other"
        assert isinstance(example.expectations, tuple)


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

    def test_rejects_zero_supporters(self):
        with pytest.raises(ValueError):
            supporters_graph(0)


class TestExport:
    def test_round_trip_and_sidecars(self, tmp_path):
        written = export_examples(tmp_path)
        ids = [example_id for example_id, _, _ in list_examples()]
        assert len(written) == 2 * len(ids)
        for example_id in ids:
            graph_path = tmp_path / f"{example_id}.json"
            sidecar = tmp_path / f"{example_id}.expect.json"
            assert graph_path.exists() and sidecar.exists()
            parsed = parse_graph(graph_path.read_text(encoding="utf-8"))
            assert parsed == load_example(example_id).graph
