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
