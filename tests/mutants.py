"""A register of source mutants and the tests that must kill them.

Each mutant is one exact snippet of a source file and its replacement.
Every mutant is applied alone to a fresh temporary copy of ``src/`` and
``tests/``, and the tests it names are run there in a subprocess: a
failing run kills it.  The report gives one line per mutant, ``killed``,
``survived``, ``snippet not found`` (the snippet no longer occurs exactly
once, so the mutant is stale) or ``error`` (pytest collected nothing, could
not run or did not finish), and the script exits non-zero unless every
mutant is killed.  The named tests pass on the unmutated tree (Tier-1 runs
them), so a failure is the mutant's.  Pytest does not collect this file.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant can make a loop endless; the slowest listed tests take seconds
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "no-all-parents-gone-rule",
        "src/qbag/semantics.py",
        """            for p in atts + sups:
                if not (removed >> p) & 1:
                    out[i] = value(taus[i], fold(out, atts, sups))
                    break
            else:
                out[i] = taus[i]
""",
        """            out[i] = value(taus[i], fold(out, atts, sups)) if atts or sups else taus[i]
""",
        ("tests/test_evaluation_cache.py::test_cone_reevaluation_is_bit_identical_to_a_full_pass",),
    ),
    Mutant(
        "sampler-keeps-removed-players",
        "src/qbag/contributions.py",
        """            removed |= 1 << i
            out[i] = 0.0
""",
        """            removed |= 1 << i
""",
        (
            "tests/test_evaluation_cache.py::test_shapley_digest_on_a_fixed_fuzz_pool",
            "tests/test_contributions.py::TestShapleySampled::test_estimates_lie_within_five_exact_standard_errors",
        ),
    ),
    Mutant(
        "walk-keeps-removed-ancestor",
        "src/qbag/contributions.py",
        """        out[a] = 0.0
        comp.refold(out, cones[j], removed)
""",
        """        comp.refold(out, cones[j], removed)
""",
        ("tests/test_evaluation_cache.py::test_shapley_digest_on_a_fixed_fuzz_pool",),
    ),
    Mutant(
        "checks-visit-every-other-argument",
        "src/qbag/principles.py",
        """        if _PLANS[self.principle][3]:  # the test visits only non-ancestors
            self.visit = "visit-non-ancestors"
        else:
            self.visit = "visit-others" if self.columns is None else "visit-ancestors"
""",
        """        self.visit = "visit-others"
""",
        ("tests/test_principles.py::test_built_in_checks_read_only_ancestors_and_report_as_a_callable_would",),
    ),
    Mutant(
        "checks-visit-only-ancestors",
        "src/qbag/principles.py",
        """        if _PLANS[self.principle][3]:  # the test visits only non-ancestors
            self.visit = "visit-non-ancestors"
        else:
            self.visit = "visit-others" if self.columns is None else "visit-ancestors"
""",
        """        self.visit = "visit-ancestors"
""",
        ("tests/test_principles.py::test_a_callable_is_still_asked_about_arguments_that_do_not_reach_the_topic",),
    ),
    Mutant(
        "quant-existence-sums-every-other-argument",
        "src/qbag/principles.py",
        """    total = 0.0
    for x in plan.orders[t]:
""",
        """    total = 0.0
    for x in [y for y in range(len(cache.graph)) if y != t]:
""",
        ("tests/test_principles.py::test_built_in_checks_read_only_ancestors_and_report_as_a_callable_would",),
    ),
    Mutant(
        "null-cell-is-negative-zero",
        "src/qbag/contributions.py",
        """                if not (skip >> x) & 1:
                    column[x] = 0.0
            return 0.0
""",
        """                if not (skip >> x) & 1:
                    column[x] = -0.0
            return 0.0
""",
        ("tests/test_evaluation_cache.py::test_every_built_in_method_gives_non_ancestors_an_exact_zero",),
    ),
    Mutant(
        "qlf-reads-past-undefined-probe",
        "src/qbag/principles.py",
        """                raise strength.with_traceback(None)
            probes.append((direction * delta, strength))
""",
        """                break
            probes.append((direction * delta, strength))
""",
        ("tests/test_evaluation_cache.py::test_quantitative_local_faithfulness_raises_where_the_probe_scan_did",),
    ),
    Mutant(
        "qlf-directions-swapped",
        "src/qbag/principles.py",
        """    for direction, start in ((1.0, 0), (-1.0, 1)):
""",
        """    for direction, start in ((1.0, 1), (-1.0, 0)):
""",
        ("tests/test_principles.py::TestQuantLocalFaithfulness::test_gradient_ratio_vanishes",),
    ),
    Mutant(
        "lf-ignores-the-sign",
        "src/qbag/principles.py",
        """            consistent.append(sign * direction * response > eq_tol)
""",
        """            consistent.append(direction * response > eq_tol)
""",
        ("tests/test_reference_checker.py::test_reference_checker_agrees_with_run_check",),
    ),
    Mutant(
        "proximity-compares-signed-values",
        "src/qbag/principles.py",
        """abs(near) + plan.eq_tol < abs(far):
""",
        """near + plan.eq_tol < far:
""",
        ("tests/test_reference_checker.py::test_reference_checker_agrees_with_run_check",),
    ),
    Mutant(
        "qlf-nan-last-ratio-vanishes",
        "src/qbag/principles.py",
        """            and not ratios[-1] <= _RATIO_FLOOR
""",
        """            and ratios[-1] > _RATIO_FLOOR
""",
        ("tests/test_principles.py::TestQuantLocalFaithfulness::test_a_nan_contribution_is_a_witness",),
    ),
    Mutant(
        "config-accepts-a-zero-eq-tol",
        "src/qbag/principles.py",
        """0 < self.eq_tol < math.inf""",
        """0 <= self.eq_tol < math.inf""",
        ("tests/test_principles.py::TestCheckerPlumbing::test_config_validation",),
    ),
    Mutant(
        "config-accepts-a-zero-eps-step",
        "src/qbag/principles.py",
        """all(0 < e < math.inf""",
        """all(0 <= e < math.inf""",
        ("tests/test_principles.py::TestCheckerPlumbing::test_config_validation",),
    ),
    Mutant(
        "config-accepts-a-repeated-eps-step",
        "src/qbag/principles.py",
        """any(b >= a for a, b""",
        """any(b > a for a, b""",
        ("tests/test_principles.py::TestCheckerPlumbing::test_config_validation",),
    ),
    Mutant(
        "config-refuses-two-grid-points",
        "src/qbag/principles.py",
        """not 2 <= _integer(self, "grid_points")""",
        """not 2 < _integer(self, "grid_points")""",
        ("tests/test_principles.py::TestCheckerPlumbing::test_config_validation",),
    ),
    Mutant(
        "ce-witness-lists-only-the-topic",
        "src/qbag/principles.py",
        """        if x != t:
""",
        """        if x == t:
""",
        ("tests/test_principles.py::TestContributionExistence::test_violation_witness_lists_every_other_contribution_as_a_number",),
    ),
    Mutant(
        "ce-witness-keeps-undefined",
        "src/qbag/principles.py",
        """zeros[names[x]] = 0.0 if c is UNDEFINED else c""",
        """zeros[names[x]] = c""",
        ("tests/test_principles.py::TestContributionExistence::test_violation_witness_lists_every_other_contribution_as_a_number",),
    ),
    Mutant(
        "loader-keeps-undef-as-a-string",
        "src/qbag/corpus.py",
        """    if kind is Contribution and fields["expected"] == "undef":
        fields["expected"] = UNDEFINED
""",
        """""",
        ("tests/test_corpus.py::TestVerification::test_table_example_has_42_expectations",),
    ),
    Mutant(
        "loader-drops-the-notes",
        "src/qbag/corpus.py",
        """tuple(doc["notes"]),""",
        """(),""",
        ("tests/test_corpus.py::TestShippedFiles::test_loaded_examples_serialize_to_the_shipped_bytes",),
    ),
    Mutant(
        "loader-rereads-on-every-call",
        "src/qbag/corpus.py",
        """@lru_cache(maxsize=None)
def _load(""",
        """def _load(""",
        ("tests/test_corpus.py::TestListing::test_examples_are_deeply_immutable",),
    ),
    Mutant(
        "record-eq-ignores-the-class",
        "src/qbag/_frozen.py",
        """        if type(other) is type(self):
            return self.__dict__ == other.__dict__
""",
        """        if hasattr(other, "__dict__"):
            return self.__dict__ == other.__dict__
""",
        ("tests/test_frozen.py::test_classes_with_no_fields_are_equal_only_to_their_own",),
    ),
    Mutant(
        "record-init-skips-post-init",
        "src/qbag/_frozen.py",
        """        object.__setattr__(self, "__dict__", values)
        self.__post_init__()
""",
        """        object.__setattr__(self, "__dict__", values)
""",
        ("tests/test_frozen.py::test_post_init_validation_still_runs",),
    ),
)


def run(mutant: Mutant) -> str:
    """Apply one mutant to a temporary copy and run its tests there."""
    with tempfile.TemporaryDirectory(prefix="qbag-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant.path
        source = target.read_text()
        if source.count(mutant.snippet) != 1:
            return "snippet not found"
        target.write_text(source.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error (no result in {TIMEOUT_S} s)"
    # pytest exits 1 when a test failed and 0 when all passed; any other
    # code means it collected nothing or could not run
    return {0: "survived", 1: "killed"}.get(result.returncode, f"error (pytest exit {result.returncode})")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    outcomes = [(m.name, run(m)) for m in MUTANTS if not names or m.name in names]
    width = max(len(name) for name, _ in outcomes)
    for name, outcome in outcomes:
        print(f"{name:<{width}}  {outcome}")
    return 0 if all(outcome == "killed" for _, outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
