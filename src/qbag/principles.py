"""Instance-level checkers for contribution-function principles.

Each checker inspects one (graph, semantics, method, topic) instance and
reports either a violation with a reproducible numeric witness or
"satisfied on this instance".  A principle proper quantifies over all
graphs, so a satisfied verdict never claims more than the absence of a
witness at the checker's numeric resolution; the randomized search in the
fuzz module is the tool for approximating the universal claims.

Sign classification uses ``zero_tol``: values within it count as zero.
Strength comparisons use ``eq_tol``.  Perturbation-based checkers probe the
schedule in ``eps_schedule`` and the uniform grid of ``grid_points`` values;
both are documented knobs of :class:`CheckConfig` rather than hidden
constants, because the underlying definitions quantify over exact reals.

Every principle runs through one checker loop, :func:`run_check`.  A
principle supplies only its own part: either a per-contributor test, which
sees one contributor's index and defined contribution and returns None or
the witness entries beyond the contributor and its contribution, or a
whole-instance rule (the two existence principles and proximity).  The nine ``check_*`` functions are bindings of ``run_check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .contributions import (
    DEFAULT_EXACT_CAP,
    ContributionMethod,
    EvaluationCache,
    UNDEFINED,
    method_name,
)
from .graph import QBAG
from .semantics import GradualSemantics

# e(eps)/eps must end below this for the quantitative-local-faithfulness
# error term to count as vanishing.
_RATIO_FLOOR = 1e-3
# A ratio sequence counts as shrinking toward zero when each refinement at
# least halves it; a first-order-correct contribution shrinks the ratio
# linearly with eps, i.e. ten-fold per schedule step.
_RATIO_DECAY = 0.5
# A faithfulness probe is meaningful only when its expected first-order
# response clears the equality tolerance with an order of magnitude to
# spare; below that, strict comparisons read rounding noise.
_PROBE_HEADROOM = 10.0


class PrincipleId(Enum):
    CONTRIBUTION_EXISTENCE = "contribution-existence"
    QUANT_CONTRIBUTION_EXISTENCE = "quantitative-contribution-existence"
    DIRECTIONALITY = "directionality"
    STRONG_FAITHFULNESS = "strong-faithfulness"
    LOCAL_FAITHFULNESS = "local-faithfulness"
    QUANT_LOCAL_FAITHFULNESS = "quantitative-local-faithfulness"
    COUNTERFACTUALITY = "counterfactuality"
    QUANT_COUNTERFACTUALITY = "quantitative-counterfactuality"
    PROXIMITY = "proximity"


def principle_by_name(name: str) -> PrincipleId:
    key = name.strip().lower()
    for principle in PrincipleId:
        if principle.value == key:
            return principle
    raise ValueError(f"unknown principle {name!r}")


class Verdict(Enum):
    SATISFIED_ON_INSTANCE = "satisfied-on-instance"
    VIOLATION = "violation"


@dataclass(frozen=True)
class CheckConfig:
    """Numeric resolution of the checkers."""

    zero_tol: float = 1e-9
    eq_tol: float = 1e-9
    eps_schedule: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    grid_points: int = 101

    def __post_init__(self):
        if self.zero_tol <= 0 or self.eq_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not self.eps_schedule or any(e <= 0 for e in self.eps_schedule):
            raise ValueError("eps_schedule must contain positive steps")
        if any(b >= a for a, b in zip(self.eps_schedule, self.eps_schedule[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")


_DEFAULT_CONFIG = CheckConfig()


@dataclass(frozen=True)
class PrincipleReport:
    principle: PrincipleId
    verdict: Verdict
    topic: str
    method: str
    semantics: str
    witness: dict = field(default_factory=dict)
    note: str = ""

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED_ON_INSTANCE


def _sign(value: float, tol: float) -> int:
    if value > tol:
        return 1
    if value < -tol:
        return -1
    return 0


def _method_label(method) -> str:
    try:
        return method_name(method)
    except KeyError:
        return getattr(method, "__name__", repr(method))


def _initial(cache: EvaluationCache, x: int) -> float:
    graph = cache.graph
    return graph.initial_strength(graph.arguments[x])


# ------------------------------------------------------- whole-instance rules
#
# rule(cache, cfg, t, base, contrib) -> (violated, witness, note): ``t`` is the
# topic's index, ``base`` its final strength, and ``contrib(x)`` the
# contribution of argument index ``x`` to the topic (None when undefined).


def _contribution_existence(cache, cfg, t, base, contrib):
    """Violated when the topic's final strength moved away from its initial
    strength yet every other argument's contribution is zero."""
    names = cache.graph.arguments
    delta = base - _initial(cache, t)
    if abs(delta) <= cfg.eq_tol:
        return False, {"strength_delta": delta}, "final strength equals initial strength; nothing to explain"
    contribs = {names[x]: contrib(x) for x in range(len(names)) if x != t}
    nonzero = {x: c for x, c in contribs.items() if c is not None and abs(c) > cfg.zero_tol}
    if nonzero:
        return False, {"strength_delta": delta, "nonzero_contributors": sorted(nonzero)}, ""
    zeros = {x: (0.0 if c is None else c) for x, c in contribs.items()}
    return True, {"strength_delta": delta, "contributions": zeros}, ""


def _quant_contribution_existence(cache, cfg, t, base, contrib):
    """Violated when the contributions of all other arguments fail to sum to
    the topic's strength delta."""
    delta = base - _initial(cache, t)
    total = 0.0
    for x in range(len(cache.graph)):
        if x != t:
            c = contrib(x)
            if c is not None:
                total += c
    gap = total - delta
    return abs(gap) > cfg.eq_tol, {"strength_delta": delta, "contribution_sum": total, "gap": gap}, ""


def _proximity(cache, cfg, t, base, contrib):
    """Violated when an argument that sits on every path from a farther
    contributor to the topic nevertheless contributes strictly less in
    magnitude."""
    names = cache.graph.arguments
    magnitudes: dict[int, float | None] = {}

    def magnitude(x: int) -> float | None:
        if x not in magnitudes:
            c = contrib(x)
            magnitudes[x] = None if c is None else abs(c)
        return magnitudes[x]

    for i, j in cache.closer_pairs(t):
        near_mag = magnitude(i)
        far_mag = magnitude(j)
        if near_mag is None or far_mag is None:
            continue
        if near_mag + cfg.eq_tol < far_mag:
            witness = {
                "nearer": names[i],
                "farther": names[j],
                "nearer_magnitude": near_mag,
                "farther_magnitude": far_mag,
            }
            return True, witness, ""
    return False, {}, ""


# ---------------------------------------------------- per-contributor tests
#
# test(cache, cfg, t, base, x, c) -> None, or the witness entries that follow
# the contributor's name and contribution, for a contributor index ``x`` whose
# contribution ``c`` to the topic is defined.


def _directionality(cache, cfg, t, base, x, c):
    """Violated when an argument with no directed path to the topic still has
    a nonzero contribution."""
    return {} if abs(c) > cfg.zero_tol else None


def _counterfactuality(cache, cfg, t, base, x, c):
    """Violated when a contribution's sign disagrees with the sign of the
    strength change caused by actually removing the contributor."""
    delta = cache.removal_delta(x, t)
    if _sign(c, cfg.zero_tol) != _sign(delta, cfg.eq_tol):
        return {"removal_delta": delta}
    return None


def _quant_counterfactuality(cache, cfg, t, base, x, c):
    """Violated when a contribution differs numerically from the strength
    change caused by removing the contributor."""
    delta = cache.removal_delta(x, t)
    if abs(c - delta) > cfg.eq_tol:
        return {"removal_delta": delta, "gap": c - delta}
    return None


_LF_NOTE = (
    "violations are witnessed at the probe schedule's resolution; "
    "a satisfied verdict does not prove the principle"
)


def _local_faithfulness(cache, cfg, t, base, x, c):
    """Violated when some argument with a nonzero contribution fails, at
    every probed radius, to move the topic's strength in the direction its
    sign promises.  Probes leaving [0, 1] are skipped, and so are probe radii
    whose expected first-order response ``|contribution| * radius`` cannot
    clear ``eq_tol``: below that the strict comparisons cannot distinguish a
    genuine plateau from rounding noise, so nothing can be witnessed."""
    sign = _sign(c, cfg.zero_tol)
    if sign == 0:
        return None
    base_tau = _initial(cache, x)
    probed = False
    probes = []
    for delta in cfg.eps_schedule:
        if abs(c) * delta <= _PROBE_HEADROOM * cfg.eq_tol:
            continue  # unresolvable at this radius
        ok = True
        any_direction = False
        for direction in (1.0, -1.0):
            eps = base_tau + direction * delta
            if eps < 0.0 or eps > 1.0:
                continue
            any_direction = True
            response = cache.strengths_perturbed(x, eps)[t] - base
            probes.append((eps, response))
            # positive contribution: strength rises with tau(x); negative: falls
            expected_up = (sign > 0) == (direction > 0)
            if expected_up:
                ok = ok and response > cfg.eq_tol
            else:
                ok = ok and response < -cfg.eq_tol
        if any_direction:
            probed = True
            if ok:
                return None  # consistent at this radius
    return {"probes": probes} if probed else None


def _quant_local_faithfulness(cache, cfg, t, base, x, c):
    """Violated when the linearisation error e(eps) = sigma_perturbed -
    (sigma + eps * contribution) fails to vanish faster than eps: the final
    |e/eps| stays above 1e-3 and the ratios do not keep shrinking as the
    schedule refines.  eps is read as a signed perturbation of the
    contributor's initial strength."""
    base_tau = _initial(cache, x)
    for direction in (1.0, -1.0):
        ratios = []
        for delta in cfg.eps_schedule:
            eps = direction * delta
            if not 0.0 <= base_tau + eps <= 1.0:
                continue
            error = cache.strengths_perturbed(x, base_tau + eps)[t] - (base + eps * c)
            ratios.append(abs(error / eps))
        if not ratios:
            continue
        if ratios[-1] <= _RATIO_FLOOR:
            continue
        shrinking = all(
            later <= _RATIO_DECAY * earlier + 1e-15
            for earlier, later in zip(ratios, ratios[1:])
        )
        if not shrinking:
            return {"direction": direction, "error_ratios": ratios}
    return None


def _strong_faithfulness(cache, cfg, t, base, x, c):
    """Violated when a grid sweep of a contributor's initial strength over
    [0, 1] contradicts the global monotone behaviour its contribution sign
    promises (strictly better below, strictly worse above for positive
    contributions; flat everywhere for zero ones).  The first contradicting
    grid point depends on nothing but the key below, so every method with
    the same sign shares the scan through the cache."""
    sign = _sign(c, cfg.zero_tol)
    points, eq_tol = cfg.grid_points, cfg.eq_tol
    key = ("strong-faithfulness", x, t, sign, points, eq_tol)
    derived = cache.derived
    if key in derived:
        return derived[key]
    found = None
    base_tau = _initial(cache, x)
    last = points - 1
    for j, strength in enumerate(cache.sweep_column(x, t, points)):
        eps = j / last
        if abs(eps - base_tau) <= 1e-12:
            continue
        diff = strength - base
        if sign == 0:
            bad = abs(diff) > eq_tol
        elif sign > 0:
            # want: strength strictly lower for eps < tau, higher above
            bad = diff >= -eq_tol if eps < base_tau else diff <= eq_tol
        else:
            bad = diff <= eq_tol if eps < base_tau else diff >= -eq_tol
        if bad:
            found = {"epsilon": eps, "strength_diff": diff}
            break
    derived[key] = found
    return found


# ------------------------------------------------------------ the one loop

_INSTANCE_RULES = {
    PrincipleId.CONTRIBUTION_EXISTENCE: _contribution_existence,
    PrincipleId.QUANT_CONTRIBUTION_EXISTENCE: _quant_contribution_existence,
    PrincipleId.PROXIMITY: _proximity,
}

# principle -> (test, whether only non-ancestors of the topic are visited, note)
_CONTRIBUTOR_TESTS = {
    PrincipleId.DIRECTIONALITY: (_directionality, True, ""),
    PrincipleId.STRONG_FAITHFULNESS: (_strong_faithfulness, False, ""),
    PrincipleId.LOCAL_FAITHFULNESS: (_local_faithfulness, False, _LF_NOTE),
    PrincipleId.QUANT_LOCAL_FAITHFULNESS: (_quant_local_faithfulness, False, _LF_NOTE),
    PrincipleId.COUNTERFACTUALITY: (_counterfactuality, False, ""),
    PrincipleId.QUANT_COUNTERFACTUALITY: (_quant_counterfactuality, False, ""),
}


def run_check(
    graph: QBAG,
    semantics: GradualSemantics,
    method: ContributionMethod | Callable,
    principle: PrincipleId,
    topic: str,
    cfg: CheckConfig | None = None,
    *,
    cache: EvaluationCache | None = None,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> PrincipleReport:
    """Run one principle checker on one instance.  A per-contributor test
    visits the other arguments in list order and stops at the first
    witness; contributions are requested only for the contributors it
    visits."""
    t = graph.index_of(topic)
    cfg = cfg or _DEFAULT_CONFIG
    cache = cache or EvaluationCache(graph, semantics)
    base = cache.strengths()[t]

    def contrib(x: int) -> float | None:
        value = cache.contribution(method, t, x, exact_cap)
        return None if value is UNDEFINED else float(value)

    rule = _INSTANCE_RULES.get(principle)
    if rule is not None:
        violated, witness, note = rule(cache, cfg, t, base, contrib)
    else:
        test, non_ancestors_only, note = _CONTRIBUTOR_TESTS[principle]
        skip = cache.ancestors(t) if non_ancestors_only else 0
        violated, witness = False, {}
        for x in range(len(graph)):
            if x == t or (skip >> x) & 1:
                continue
            c = contrib(x)
            found = None if c is None else test(cache, cfg, t, base, x, c)
            if found is not None:
                violated, witness = True, {"contributor": graph.arguments[x], "contribution": c, **found}
                break
    verdict = Verdict.VIOLATION if violated else Verdict.SATISFIED_ON_INSTANCE
    return PrincipleReport(principle, verdict, topic, _method_label(method), semantics.label(), witness, note)


def _binding(principle: PrincipleId) -> Callable[..., PrincipleReport]:
    rule = _INSTANCE_RULES.get(principle) or _CONTRIBUTOR_TESTS[principle][0]

    def check(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
        return run_check(graph, semantics, method, principle, topic, cfg, cache=cache, exact_cap=exact_cap)

    check.__name__ = check.__qualname__ = "check" + rule.__name__
    check.__doc__ = rule.__doc__
    return check


check_contribution_existence = _binding(PrincipleId.CONTRIBUTION_EXISTENCE)
check_quant_contribution_existence = _binding(PrincipleId.QUANT_CONTRIBUTION_EXISTENCE)
check_directionality = _binding(PrincipleId.DIRECTIONALITY)
check_strong_faithfulness = _binding(PrincipleId.STRONG_FAITHFULNESS)
check_local_faithfulness = _binding(PrincipleId.LOCAL_FAITHFULNESS)
check_quant_local_faithfulness = _binding(PrincipleId.QUANT_LOCAL_FAITHFULNESS)
check_counterfactuality = _binding(PrincipleId.COUNTERFACTUALITY)
check_quant_counterfactuality = _binding(PrincipleId.QUANT_COUNTERFACTUALITY)
check_proximity = _binding(PrincipleId.PROXIMITY)
