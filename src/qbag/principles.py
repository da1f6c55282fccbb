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
    contribution,
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


class _Session:
    """Shared state for one checker invocation."""

    def __init__(
        self,
        graph: QBAG,
        semantics: GradualSemantics,
        method,
        topic: str,
        cfg: CheckConfig | None,
        cache: EvaluationCache | None,
        exact_cap: int,
    ):
        self.graph = graph
        self.semantics = semantics
        self.method = method
        self.topic = topic
        self.t = graph.index_of(topic)
        self.cfg = cfg or _DEFAULT_CONFIG
        self.cache = cache or EvaluationCache(graph, semantics)
        self.exact_cap = exact_cap
        self.base = self.cache.strengths()[self.t]

    def contrib(self, contributor: str) -> float | None:
        """Contribution of ``contributor`` to the topic; None when undefined."""
        value = contribution(
            self.graph,
            self.semantics,
            self.method,
            self.topic,
            contributor,
            exact_cap=self.exact_cap,
            cache=self.cache,
        )
        return None if value is UNDEFINED else float(value)

    def others(self) -> list[str]:
        return [name for name in self.graph.arguments if name != self.topic]

    def perturbed(self, contributor: str, value: float) -> float:
        return self.cache.strengths_perturbed(self.graph.index_of(contributor), value)[self.t]

    def method_label(self) -> str:
        try:
            return method_name(self.method)
        except KeyError:
            return getattr(self.method, "__name__", repr(self.method))

    def report(self, principle: PrincipleId, verdict: Verdict, witness: dict, note: str = "") -> PrincipleReport:
        return PrincipleReport(
            principle,
            verdict,
            self.topic,
            self.method_label(),
            self.semantics.label(),
            witness,
            note,
        )


def check_contribution_existence(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when the topic's final strength moved away from its initial
    strength yet every other argument's contribution is zero."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    delta = s.base - graph.initial_strength(topic)
    if abs(delta) <= s.cfg.eq_tol:
        return s.report(
            PrincipleId.CONTRIBUTION_EXISTENCE,
            Verdict.SATISFIED_ON_INSTANCE,
            {"strength_delta": delta},
            note="final strength equals initial strength; nothing to explain",
        )
    contribs = {x: s.contrib(x) for x in s.others()}
    nonzero = {x: c for x, c in contribs.items() if c is not None and abs(c) > s.cfg.zero_tol}
    if nonzero:
        return s.report(
            PrincipleId.CONTRIBUTION_EXISTENCE,
            Verdict.SATISFIED_ON_INSTANCE,
            {"strength_delta": delta, "nonzero_contributors": sorted(nonzero)},
        )
    return s.report(
        PrincipleId.CONTRIBUTION_EXISTENCE,
        Verdict.VIOLATION,
        {"strength_delta": delta, "contributions": {x: (0.0 if c is None else c) for x, c in contribs.items()}},
    )


def check_quant_contribution_existence(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when the contributions of all other arguments fail to sum to
    the topic's strength delta."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    delta = s.base - graph.initial_strength(topic)
    total = 0.0
    contribs = {}
    for x in s.others():
        c = s.contrib(x)
        contribs[x] = c
        if c is not None:
            total += c
    gap = total - delta
    verdict = Verdict.VIOLATION if abs(gap) > s.cfg.eq_tol else Verdict.SATISFIED_ON_INSTANCE
    return s.report(
        PrincipleId.QUANT_CONTRIBUTION_EXISTENCE,
        verdict,
        {"strength_delta": delta, "contribution_sum": total, "gap": gap},
    )


def check_directionality(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when an argument with no directed path to the topic still has
    a nonzero contribution."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    ancestors = s.cache.ancestors(s.t)
    for x in s.others():
        if (ancestors >> graph.index_of(x)) & 1:
            continue
        c = s.contrib(x)
        if c is not None and abs(c) > s.cfg.zero_tol:
            return s.report(
                PrincipleId.DIRECTIONALITY,
                Verdict.VIOLATION,
                {"contributor": x, "contribution": c},
            )
    return s.report(PrincipleId.DIRECTIONALITY, Verdict.SATISFIED_ON_INSTANCE, {})


def check_counterfactuality(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when a contribution's sign disagrees with the sign of the
    strength change caused by actually removing the contributor."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    for x in s.others():
        c = s.contrib(x)
        if c is None:
            continue
        delta = s.cache.removal_delta(graph.index_of(x), s.t)
        if _sign(c, s.cfg.zero_tol) != _sign(delta, s.cfg.eq_tol):
            return s.report(
                PrincipleId.COUNTERFACTUALITY,
                Verdict.VIOLATION,
                {"contributor": x, "contribution": c, "removal_delta": delta},
            )
    return s.report(PrincipleId.COUNTERFACTUALITY, Verdict.SATISFIED_ON_INSTANCE, {})


def check_quant_counterfactuality(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when a contribution differs numerically from the strength
    change caused by removing the contributor."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    for x in s.others():
        c = s.contrib(x)
        if c is None:
            continue
        delta = s.cache.removal_delta(graph.index_of(x), s.t)
        if abs(c - delta) > s.cfg.eq_tol:
            return s.report(
                PrincipleId.QUANT_COUNTERFACTUALITY,
                Verdict.VIOLATION,
                {"contributor": x, "contribution": c, "removal_delta": delta, "gap": c - delta},
            )
    return s.report(PrincipleId.QUANT_COUNTERFACTUALITY, Verdict.SATISFIED_ON_INSTANCE, {})


_LF_NOTE = (
    "violations are witnessed at the probe schedule's resolution; "
    "a satisfied verdict does not prove the principle"
)


def check_local_faithfulness(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when some argument with a nonzero contribution fails, at
    every probed radius, to move the topic's strength in the direction its
    sign promises.  Probes leaving [0, 1] are skipped, and so are probe radii
    whose expected first-order response ``|contribution| * radius`` cannot
    clear ``eq_tol``: below that the strict comparisons cannot distinguish a
    genuine plateau from rounding noise, so nothing can be witnessed."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    for x in s.others():
        c = s.contrib(x)
        if c is None:
            continue
        sign = _sign(c, s.cfg.zero_tol)
        if sign == 0:
            continue
        base_tau = graph.initial_strength(x)
        probed = False
        consistent_somewhere = False
        probes = []
        for delta in s.cfg.eps_schedule:
            if abs(c) * delta <= _PROBE_HEADROOM * s.cfg.eq_tol:
                continue  # unresolvable at this radius
            ok = True
            any_direction = False
            for direction in (1.0, -1.0):
                eps = base_tau + direction * delta
                if eps < 0.0 or eps > 1.0:
                    continue
                any_direction = True
                response = s.perturbed(x, eps) - s.base
                probes.append((eps, response))
                # positive contribution: strength rises with tau(x); negative: falls
                expected_up = (sign > 0) == (direction > 0)
                if expected_up:
                    ok = ok and response > s.cfg.eq_tol
                else:
                    ok = ok and response < -s.cfg.eq_tol
            if any_direction:
                probed = True
                if ok:
                    consistent_somewhere = True
                    break
        if probed and not consistent_somewhere:
            return s.report(
                PrincipleId.LOCAL_FAITHFULNESS,
                Verdict.VIOLATION,
                {"contributor": x, "contribution": c, "probes": probes},
                note=_LF_NOTE,
            )
    return s.report(PrincipleId.LOCAL_FAITHFULNESS, Verdict.SATISFIED_ON_INSTANCE, {}, note=_LF_NOTE)


def check_quant_local_faithfulness(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when the linearisation error e(eps) = sigma_perturbed -
    (sigma + eps * contribution) fails to vanish faster than eps: the final
    |e/eps| stays above 1e-3 and the ratios do not keep shrinking as the
    schedule refines.  eps is read as a signed perturbation of the
    contributor's initial strength."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    for x in s.others():
        c = s.contrib(x)
        if c is None:
            continue
        base_tau = graph.initial_strength(x)
        for direction in (1.0, -1.0):
            ratios = []
            for delta in s.cfg.eps_schedule:
                eps = direction * delta
                if not 0.0 <= base_tau + eps <= 1.0:
                    continue
                error = s.perturbed(x, base_tau + eps) - (s.base + eps * c)
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
                return s.report(
                    PrincipleId.QUANT_LOCAL_FAITHFULNESS,
                    Verdict.VIOLATION,
                    {
                        "contributor": x,
                        "contribution": c,
                        "direction": direction,
                        "error_ratios": ratios,
                    },
                    note=_LF_NOTE,
                )
    return s.report(PrincipleId.QUANT_LOCAL_FAITHFULNESS, Verdict.SATISFIED_ON_INSTANCE, {}, note=_LF_NOTE)


def check_strong_faithfulness(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when a grid sweep of a contributor's initial strength over
    [0, 1] contradicts the global monotone behaviour its contribution sign
    promises (strictly better below, strictly worse above for positive
    contributions; flat everywhere for zero ones)."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    for x in s.others():
        c = s.contrib(x)
        if c is None:
            continue
        hit = _first_contradiction(s, x, _sign(c, s.cfg.zero_tol))
        if hit is not None:
            eps, diff = hit
            return s.report(
                PrincipleId.STRONG_FAITHFULNESS,
                Verdict.VIOLATION,
                {"contributor": x, "contribution": c, "epsilon": eps, "strength_diff": diff},
            )
    return s.report(PrincipleId.STRONG_FAITHFULNESS, Verdict.SATISFIED_ON_INSTANCE, {})


def _first_contradiction(s: _Session, contributor: str, sign: int) -> tuple[float, float] | None:
    """First grid point (epsilon, strength change) of the contributor's
    sweep that contradicts ``sign``.  The scan depends on nothing but its
    key, so every method with the same sign shares it through the cache."""
    x = s.graph.index_of(contributor)
    points, eq_tol = s.cfg.grid_points, s.cfg.eq_tol
    key = ("strong-faithfulness", x, s.t, sign, points, eq_tol)
    derived = s.cache.derived
    if key in derived:
        return derived[key]
    found = None
    base_tau = s.graph.initial_strength(contributor)
    last = points - 1
    for j, strength in enumerate(s.cache.sweep_column(x, s.t, points)):
        eps = j / last
        if abs(eps - base_tau) <= 1e-12:
            continue
        diff = strength - s.base
        if sign == 0:
            bad = abs(diff) > eq_tol
        elif sign > 0:
            # want: strength strictly lower for eps < tau, higher above
            bad = diff >= -eq_tol if eps < base_tau else diff <= eq_tol
        else:
            bad = diff <= eq_tol if eps < base_tau else diff >= -eq_tol
        if bad:
            found = (eps, diff)
            break
    derived[key] = found
    return found


def check_proximity(graph, semantics, method, topic, cfg=None, *, cache=None, exact_cap=DEFAULT_EXACT_CAP):
    """Violated when an argument that sits on every path from a farther
    contributor to the topic nevertheless contributes strictly less in
    magnitude."""
    s = _Session(graph, semantics, method, topic, cfg, cache, exact_cap)
    names = graph.arguments
    contribs: dict[str, float | None] = {}

    def magnitude(name: str) -> float | None:
        if name not in contribs:
            contribs[name] = s.contrib(name)
        value = contribs[name]
        return None if value is None else abs(value)

    for i, j in s.cache.closer_pairs(s.t):
        nearer, farther = names[i], names[j]
        near_mag = magnitude(nearer)
        far_mag = magnitude(farther)
        if near_mag is None or far_mag is None:
            continue
        if near_mag + s.cfg.eq_tol < far_mag:
            return s.report(
                PrincipleId.PROXIMITY,
                Verdict.VIOLATION,
                {
                    "nearer": nearer,
                    "farther": farther,
                    "nearer_magnitude": near_mag,
                    "farther_magnitude": far_mag,
                },
            )
    return s.report(PrincipleId.PROXIMITY, Verdict.SATISFIED_ON_INSTANCE, {})


_CHECKERS: dict[PrincipleId, Callable[..., PrincipleReport]] = {
    PrincipleId.CONTRIBUTION_EXISTENCE: check_contribution_existence,
    PrincipleId.QUANT_CONTRIBUTION_EXISTENCE: check_quant_contribution_existence,
    PrincipleId.DIRECTIONALITY: check_directionality,
    PrincipleId.STRONG_FAITHFULNESS: check_strong_faithfulness,
    PrincipleId.LOCAL_FAITHFULNESS: check_local_faithfulness,
    PrincipleId.QUANT_LOCAL_FAITHFULNESS: check_quant_local_faithfulness,
    PrincipleId.COUNTERFACTUALITY: check_counterfactuality,
    PrincipleId.QUANT_COUNTERFACTUALITY: check_quant_counterfactuality,
    PrincipleId.PROXIMITY: check_proximity,
}


def run_check(
    graph: QBAG,
    semantics: GradualSemantics,
    method: ContributionMethod,
    principle: PrincipleId,
    topic: str,
    cfg: CheckConfig | None = None,
    *,
    cache: EvaluationCache | None = None,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> PrincipleReport:
    """Run one principle checker on one instance."""
    return _CHECKERS[principle](graph, semantics, method, topic, cfg, cache=cache, exact_cap=exact_cap)


def is_monotonic_effect_numeric(
    graph: QBAG,
    semantics: GradualSemantics,
    contributor: str,
    topic: str,
    grid_points: int = 101,
    eq_tol: float = 1e-9,
) -> bool:
    """Grid approximation of "the contributor's initial strength has a
    monotone effect on the topic": the swept strengths must be monotone
    non-decreasing or non-increasing up to ``eq_tol``.  Resolution-limited:
    an effect that reverses between grid points goes unnoticed."""
    t = graph.index_of(topic)
    x = graph.index_of(contributor)
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    values = EvaluationCache(graph, semantics).sweep_column(x, t, grid_points)
    non_decreasing = all(b >= a - eq_tol for a, b in zip(values, values[1:]))
    non_increasing = all(b <= a + eq_tol for a, b in zip(values, values[1:]))
    return non_decreasing or non_increasing
