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
whole-instance rule (the two existence principles and proximity).

Directionality holds exactly for every built-in method: an argument with no
path to the topic contributes an exact 0.0, on which no other principle's
test finds a witness.  So under a built-in method every principle but
directionality reads only the topic's ancestors; a callable method is read
at every other argument.

A check resolves its method's cell columns, the visit orders, the
principle's tables, the tolerances, the method name and the semantics label
once into a plan that the cache keeps in a one-entry slot, matched by the
identity of (principle, method, cfg, semantics); per call it reads the
topic's entries of that plan, and the per-contributor test reads plain
lists.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from typing import Callable

from ._frozen import Fresh, Frozen
from .contributions import (
    _UNSET,
    MAX_SWEEP_POINTS,
    UNDEFINED,
    ContributionMethod,
    ContributionValue,
    EvaluationCache,
    Removal,
    _cache_for,
    _integer,
    method_name,
)
from .errors import DomainError
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


_VIOLATION = Verdict.VIOLATION
_SATISFIED = Verdict.SATISFIED_ON_INSTANCE


class CheckConfig(Frozen):
    """Numeric resolution of the checkers."""

    zero_tol: float = 1e-9
    eq_tol: float = 1e-9
    eps_schedule: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    grid_points: int = 101

    def __post_init__(self):
        # a tuple, whatever sequence was given: the schedule keys a memo
        object.__setattr__(self, "eps_schedule", tuple(self.eps_schedule))
        if not (0 < self.zero_tol < math.inf and 0 < self.eq_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not self.eps_schedule or not all(0 < e < math.inf for e in self.eps_schedule):
            raise ValueError("eps_schedule must contain positive finite steps")
        if any(b >= a for a, b in zip(self.eps_schedule, self.eps_schedule[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
        if not 2 <= _integer(self, "grid_points") <= MAX_SWEEP_POINTS:
            raise ValueError(f"grid_points must be between 2 and {MAX_SWEEP_POINTS}")


_DEFAULT_CONFIG = CheckConfig()


class PrincipleReport(Frozen):
    principle: PrincipleId
    verdict: Verdict
    topic: str
    method: str
    semantics: str
    witness: dict = Fresh(dict)
    note: str = ""

    @property
    def satisfied(self) -> bool:
        return self.verdict is _SATISFIED


def _initial(cache: EvaluationCache, x: int) -> float:
    return cache.graph._tau[x]


# ------------------------------------------------------- whole-instance rules
#
# rule(cache, plan, t, base, contrib) -> (violated, witness, note): ``t`` is
# the topic's index, ``base`` its final strength, and ``contrib(x)`` the
# contribution of argument index ``x`` to the topic (possibly UNDEFINED).  The
# rule reads its tolerances from the plan, and ``plan.orders[t]`` holds the
# other arguments whose contributions can be nonzero, in list order: any
# other argument's is an exact 0.0.


def _contribution_existence(cache, plan, t, base, contrib):
    """Violated when the topic's final strength moved away from its initial
    strength yet every other argument's contribution is zero."""
    names = cache.graph.arguments
    delta = base - _initial(cache, t)
    if abs(delta) <= plan.eq_tol:
        return False, {"strength_delta": delta}, "final strength equals initial strength; nothing to explain"
    contribs = {x: contrib(x) for x in plan.orders[t]}
    nonzero = [names[x] for x, c in contribs.items() if c is not UNDEFINED and abs(c) > plan.zero_tol]
    if nonzero:
        return False, {"strength_delta": delta, "nonzero_contributors": sorted(nonzero)}, ""
    zeros = {}
    for x in range(len(names)):
        if x != t:
            c = contribs.get(x, 0.0)  # 0.0 for an argument the order skips
            zeros[names[x]] = 0.0 if c is UNDEFINED else c
    return True, {"strength_delta": delta, "contributions": zeros}, ""


def _quant_contribution_existence(cache, plan, t, base, contrib):
    """Violated when the contributions of all other arguments fail to sum to
    the topic's strength delta."""
    delta = base - _initial(cache, t)
    total = 0.0
    for x in plan.orders[t]:
        c = contrib(x)
        if c is not UNDEFINED:
            total += c
    gap = total - delta
    return abs(gap) > plan.eq_tol, {"strength_delta": delta, "contribution_sum": total, "gap": gap}, ""


def _proximity(cache, plan, t, base, contrib):
    """Violated when an argument that sits on every path from a farther
    contributor to the topic nevertheless contributes strictly less in
    magnitude: |near| + eq_tol < |far| for a strictly-closer pair whose
    contributions are both defined."""
    names = cache.graph.arguments
    for i, j in cache.closer_pairs(t):
        near, far = contrib(i), contrib(j)
        if near is not UNDEFINED and far is not UNDEFINED and abs(near) + plan.eq_tol < abs(far):
            magnitudes = {"nearer_magnitude": abs(near), "farther_magnitude": abs(far)}
            return True, {"nearer": names[i], "farther": names[j], **magnitudes}, ""
    return False, {}, ""


# ---------------------------------------------------- per-contributor tests
#
# test(cache, plan, t, base, x, c) -> None, or the witness entries that
# follow the contributor's name and contribution, for a contributor index
# ``x`` whose contribution ``c`` to topic index ``t`` (final strength
# ``base``) is defined.  The test reads its configuration and its table from
# the plan.
# A sign is (c > tol) - (c < -tol): 1, 0 or -1, where values within tol
# (and nan) count as zero.


def _directionality(cache, plan, t, base, x, c):
    """Violated when an argument with no directed path to the topic still has
    a nonzero contribution."""
    return {} if abs(c) > plan.zero_tol else None


_REMOVAL = Removal()


def _removal_columns(cache, cfg):
    return cache.columns(_REMOVAL)


def _removal_delta(cache, plan, t, x):
    """x's removal cell on topic t: the strength change that removing x causes."""
    column = plan.table[t]
    delta = _UNSET if column is None else column[x]
    return cache.cell(_REMOVAL, t, x) if delta is _UNSET else delta


def _counterfactuality(cache, plan, t, base, x, c):
    """Violated when a contribution's sign disagrees with the sign of the
    strength change caused by actually removing the contributor."""
    delta = _removal_delta(cache, plan, t, x)
    zero_tol, eq_tol = plan.zero_tol, plan.eq_tol
    if (c > zero_tol) - (c < -zero_tol) != (delta > eq_tol) - (delta < -eq_tol):
        return {"removal_delta": delta}
    return None


def _quant_counterfactuality(cache, plan, t, base, x, c):
    """Violated when a contribution differs numerically from the strength
    change caused by removing the contributor."""
    delta = _removal_delta(cache, plan, t, x)
    if abs(c - delta) > plan.eq_tol:
        return {"removal_delta": delta, "gap": c - delta}
    return None


_LF_NOTE = (
    "violations are witnessed at the probe schedule's resolution; "
    "a satisfied verdict does not prove the principle"
)


def _table(cache, key):
    """The checker table ``cache.derived[key]``, n entries that start as None."""
    table = cache.derived.get(key)
    if table is None:
        table = cache.derived[key] = [None] * len(cache.graph)
    return table


def _probe_table(cache, cfg):
    return _table(cache, ("local-faithfulness", cfg.eps_schedule))


def _probe_row(cache, cfg, x):
    """x's entry of the probe table both local-faithfulness checkers read:
    per topic, its final strength at every probe point of x's initial
    strength tau, where position 2k holds tau + eps_schedule[k] and
    position 2k + 1 holds tau - eps_schedule[k].  The points inside [0, 1]
    come from one :meth:`EvaluationCache.sweep`, and a point outside is
    None.  An undefined point holds its error, for the reader to raise: a
    probe that is never read must not fail the check.  A topic x does not
    reach keeps its strength at every point inside [0, 1], as on a grid."""
    table = _probe_table(cache, cfg)
    row = table[x]
    if row is None:
        tau = _initial(cache, x)
        points = [p for d in cfg.eps_schedule for p in (tau + d, tau - d)]
        at = [k for k, p in enumerate(points) if 0.0 <= p <= 1.0]
        columns = cache.sweep(x, tuple([points[k] for k in at]))
        base = cache.strengths()
        row = table[x] = []
        for t in range(len(base)):
            column = columns[t] if t in columns else repeat(base[t])
            padded = [None] * len(points)
            for k, strength in zip(at, column):
                padded[k] = strength
            row.append(tuple(padded))
    return row


def _local_faithfulness(cache, plan, t, base, x, c):
    """Violated when some argument with a nonzero contribution fails, at
    every probed radius, to move the topic's strength in the direction its
    sign promises: ``sign * direction * response > eq_tol`` for every probe
    at tau(x) + direction * radius.  Probes leaving [0, 1] are skipped, and
    so are radii whose expected first-order response ``|contribution| *
    radius`` cannot clear ``eq_tol``: below that the strict comparisons
    cannot tell a plateau from rounding noise.  The witness is every probe
    made, and a check that made none has no witness."""
    zero_tol, eq_tol = plan.zero_tol, plan.eq_tol
    sign = (c > zero_tol) - (c < -zero_tol)
    if sign == 0:
        return None
    columns = plan.table[x]
    column = (_probe_row(cache, plan.cfg, x) if columns is None else columns)[t]
    base_tau = _initial(cache, x)
    probes = []
    for delta, up, down in zip(plan.cfg.eps_schedule, column[::2], column[1::2]):
        if abs(c) * delta <= _PROBE_HEADROOM * eq_tol:
            continue  # unresolvable at this radius
        consistent = []
        for direction, strength in ((1.0, up), (-1.0, down)):
            if strength is None:
                continue  # the probe leaves [0, 1]
            if strength.__class__ is DomainError:
                raise strength.with_traceback(None)
            response = strength - base
            probes.append((base_tau + direction * delta, response))
            consistent.append(sign * direction * response > eq_tol)
        if consistent and all(consistent):
            return None  # consistent at this radius
    return {"probes": probes} if probes else None


def _quant_local_faithfulness(cache, plan, t, base, x, c):
    """Violated when the linearisation error e(eps) = sigma_perturbed -
    (sigma + eps * contribution) fails to vanish faster than eps, in one
    direction of the schedule: the final ratio |e/eps| is not at most 1e-3,
    and some refinement does not at least halve the ratio before it (a nan
    ratio counts as neither).  eps is a signed perturbation of the
    contributor's initial strength, read from :func:`_probe_row` direction +
    then -."""
    columns = plan.table[x]
    column = (_probe_row(cache, plan.cfg, x) if columns is None else columns)[t]
    for direction, start in ((1.0, 0), (-1.0, 1)):
        probes = []
        for delta, strength in zip(plan.cfg.eps_schedule, column[start::2]):
            if strength is None:
                continue  # the probe leaves [0, 1]
            if strength.__class__ is DomainError:
                raise strength.with_traceback(None)
            probes.append((direction * delta, strength))
        ratios = [abs((strength - (base + eps * c)) / eps) for eps, strength in probes]
        if (
            ratios
            and not ratios[-1] <= _RATIO_FLOOR
            and any(not later <= _RATIO_DECAY * earlier + 1e-15 for earlier, later in zip(ratios, ratios[1:]))
        ):
            return {"direction": direction, "error_ratios": ratios}
    return None


def _contradiction_table(cache, cfg):
    return _table(cache, ("strong-faithfulness", cfg.grid_points, cfg.eq_tol))


def _strong_faithfulness(cache, plan, t, base, x, c):
    """Violated when a grid sweep of a contributor's initial strength over
    [0, 1] contradicts the global monotone behaviour its contribution sign
    promises (strictly better below, strictly worse above for positive
    contributions; flat everywhere for zero ones).  The first contradicting
    grid point of every sign depends on nothing but (grid_points, eq_tol,
    topic, contributor), so one scan serves every method through the cache,
    in one table per (grid_points, eq_tol) indexed [topic][contributor]."""
    row = plan.table[t]
    found = None if row is None else row[x]
    if found is None:
        if row is None:
            row = plan.table[t] = [None] * len(plan.table)
        found = row[x] = _first_contradictions(cache, t, base, x, plan.cfg.grid_points, plan.eq_tol)
    zero_tol = plan.zero_tol
    return found[(c > zero_tol) - (c < -zero_tol) + 1]


def _first_contradictions(cache, t, base, x, points, eq_tol):
    """The first grid point contradicting each contribution sign -1, 0, +1
    (as witness entries, None where there is none).  Grid point j sits at
    eps = j / (points - 1); a point within 1e-12 of tau(x) is skipped, and a
    nan difference contradicts nothing.  Below tau, a strictly higher
    strength (diff > eq_tol) contradicts signs 0 and +1, a strictly lower
    one signs 0 and -1, and an equal one (within eq_tol) both nonzero signs;
    above tau, higher and lower swap roles.  Where x does not reach t the
    column is t's base strength at every point, so the first grid point off
    tau contradicts both nonzero signs and nothing contradicts sign 0."""
    last = points - 1
    base_tau = _initial(cache, x)
    # Every grid point but the nearest is at least half a step from tau, so
    # only that one can be skipped: the points before it are below tau and
    # those after it above.
    near = round(base_tau * last)
    skip = abs(near / last - base_tau) <= 1e-12
    below = near + (not skip and near / last < base_tau)
    above = near + (skip or near / last < base_tau)
    column = cache.sweep_column(x, t, points)
    found = [None, None, None]
    for start, stop, higher, lower in ((0, below, 2, 0), (above, points, 0, 2)):
        half = column[start:stop]
        if not half:
            continue
        # strength - base is monotone in strength, so the half's extremes
        # tell which signs it contradicts at all; max and min skip a nan
        # unless it comes first, and then every sign is scanned for
        top = bottom = None
        if half[0] == half[0]:
            top, bottom = max(half) - base, min(half) - base
        if found[higher] is None and (top is None or top >= -eq_tol):
            for j in range(start, stop):
                if column[j] - base >= -eq_tol:
                    found[higher] = {"epsilon": j / last, "strength_diff": column[j] - base}
                    break
        if found[lower] is None and (bottom is None or bottom <= eq_tol):
            for j in range(start, stop):
                if column[j] - base <= eq_tol:
                    found[lower] = {"epsilon": j / last, "strength_diff": column[j] - base}
                    break
        if found[1] is None and (top is None or top > eq_tol or bottom < -eq_tol):
            for j in range(start, stop):
                diff = column[j] - base
                if diff > eq_tol or diff < -eq_tol:
                    found[1] = {"epsilon": j / last, "strength_diff": diff}
                    break
    return found


# ------------------------------------------------------------ the one loop

# principle -> (whole-instance rule, per-contributor test, the test's table
# resolver or None, whether the test visits only non-ancestors of the topic,
# note); exactly one of rule and test is set.  A table resolver maps (cache,
# cfg) to the cache's store the test reads, indexed by topic or contributor.
# Every other part visits the topic's ancestors under a built-in method,
# whose cell of any other argument is an exact 0.0, on which each test finds
# nothing, and every other argument under a callable method.
_PLANS = {
    PrincipleId.CONTRIBUTION_EXISTENCE: (_contribution_existence, None, None, False, ""),
    PrincipleId.QUANT_CONTRIBUTION_EXISTENCE: (_quant_contribution_existence, None, None, False, ""),
    PrincipleId.PROXIMITY: (_proximity, None, None, False, ""),
    PrincipleId.DIRECTIONALITY: (None, _directionality, None, True, ""),
    PrincipleId.STRONG_FAITHFULNESS: (None, _strong_faithfulness, _contradiction_table, False, ""),
    PrincipleId.LOCAL_FAITHFULNESS: (None, _local_faithfulness, _probe_table, False, _LF_NOTE),
    PrincipleId.QUANT_LOCAL_FAITHFULNESS: (None, _quant_local_faithfulness, _probe_table, False, _LF_NOTE),
    PrincipleId.COUNTERFACTUALITY: (None, _counterfactuality, _removal_columns, False, ""),
    PrincipleId.QUANT_COUNTERFACTUALITY: (None, _quant_counterfactuality, _removal_columns, False, ""),
}


class _Plan:
    """What a check resolves once per (cache, principle, cfg, semantics):
    the full-graph strengths, the principle's part and table, and the
    tolerances; and, once per method on top of that, the method's per-topic
    cell columns (the list the cache fills, or None when its cells are never
    memoized), the visit orders, which depend on the method's kind, and the
    report fields that do not depend on the topic.  The cache keeps the last
    plan in a one-entry slot, matched by identity, so a loop with topics
    innermost resolves everything once per (principle, method), and a change
    of method alone re-resolves only the method's part.  A plan holds no
    reference to its cache: the two form no reference cycle, so a dropped
    cache is freed at once, not by the cycle collector."""

    __slots__ = (
        "principle", "cfg", "semantics", "strengths", "visit", "orders", "rule",
        "test", "table", "zero_tol", "eq_tol", "fields", "method", "columns",
    )

    def __init__(self, cache, principle, cfg, semantics):
        # the full graph first: an undefined one fails every call, and no
        # plan is stored for it
        self.strengths = cache.strengths()
        rule, test, table, _, note = _PLANS[principle]
        self.principle = principle
        self.cfg = cfg
        self.semantics = semantics
        self.rule = rule
        self.test = test
        self.table = None if table is None else table(cache, cfg)
        self.zero_tol = cfg.zero_tol
        self.eq_tol = cfg.eq_tol
        # a report's fields in PrincipleReport order; use() sets the method
        # name, and a check copies them and sets the rest
        self.fields = {
            "principle": principle,
            "verdict": None,
            "topic": None,
            "method": None,
            "semantics": semantics.label(),
            "witness": None,
            "note": note,
        }
        self.method = _UNSET  # no method part yet: the first check calls use()

    def use(self, cache, method):
        """Resolve the method's part of the plan."""
        fields = self.fields.copy()
        fields["method"] = method_name(method)
        self.columns = cache.columns(method)
        if _PLANS[self.principle][3]:  # the test visits only non-ancestors
            self.visit = "visit-non-ancestors"
        else:
            self.visit = "visit-others" if self.columns is None else "visit-ancestors"
        self.orders = _table(cache, self.visit)
        self.fields = fields
        self.method = method


_new_object = object.__new__
_set_attribute = object.__setattr__


def _visit_order(cache, t, visit):
    """The contributors a check on topic ``t`` visits, in list order: its
    ancestors ("visit-ancestors"), the other arguments with no path to it
    ("visit-non-ancestors"), or every other argument ("visit-others")."""
    reach = cache.ancestors(t)
    if visit == "visit-ancestors":
        keep = reach
    elif visit == "visit-non-ancestors":
        keep = ~(reach | 1 << t)
    else:
        keep = ~(1 << t)
    return tuple([x for x in range(len(cache.graph)) if (keep >> x) & 1])


def run_check(
    graph: QBAG,
    semantics: GradualSemantics,
    method: ContributionMethod | Callable,
    principle: PrincipleId,
    topic: str,
    cfg: CheckConfig | None = None,
    *,
    cache: EvaluationCache | None = None,
) -> PrincipleReport:
    """Run one principle checker on one instance.  A per-contributor test
    visits contributors in list order and stops at the first witness:
    directionality the arguments with no path to the topic, every other
    test the topic's ancestors under a built-in method and every other
    argument under a callable one.  A built-in method gives any other
    argument an exact 0.0, on which no test finds a witness, so skipping it
    changes no report.  The existence rules likewise read the cells of the
    contributors a test would visit, and count every other one as 0.0.
    Contributions are read from the topic's cell column and computed only
    for the contributors read.  Everything that does not depend on the
    topic is resolved once into the cache's plan slot and reused while
    (principle, cfg, semantics) and the method stay the same objects; an
    exact Shapley method with another cap is another object.  A ``cache``
    must have been built for this graph and semantics: its graph is checked
    on every call, its semantics when the plan is resolved."""
    try:
        t = graph._index[topic]
    except KeyError:
        t = graph.index_of(topic)  # raises UnknownArgument
    cfg = cfg or _DEFAULT_CONFIG
    if cache is None or cache.graph is not graph:
        cache = _cache_for(graph, semantics, cache)
    plan = cache.plan
    if plan is None or plan.principle is not principle or plan.cfg is not cfg or plan.semantics is not semantics:
        plan = cache.plan = _Plan(_cache_for(graph, semantics, cache), principle, cfg, semantics)
    if plan.method is not method:
        plan.use(cache, method)
    base = plan.strengths[t]
    columns = plan.columns
    column = None if columns is None else columns[t]
    if column is None:
        column = cache.column(method, t)
    fields = plan.fields.copy()
    order = plan.orders[t]
    if order is None:
        order = plan.orders[t] = _visit_order(cache, t, plan.visit)
    if plan.rule is not None:

        def contrib(x: int) -> ContributionValue:
            c = column[x]
            return cache.cell(method, t, x) if c is _UNSET else c

        violated, witness, fields["note"] = plan.rule(cache, plan, t, base, contrib)
    else:
        test = plan.test
        violated, witness = False, {}
        for x in order:
            c = column[x]
            if c is _UNSET:
                c = cache.cell(method, t, x)
            found = None if c is UNDEFINED else test(cache, plan, t, base, x, c)
            if found is not None:
                violated, witness = True, {"contributor": graph.arguments[x], "contribution": c, **found}
                break
    fields["verdict"] = _VIOLATION if violated else _SATISFIED
    fields["topic"] = topic
    fields["witness"] = witness
    # The same object PrincipleReport(...) builds, without the constructor's
    # argument binding: the fields are already in order.
    report = _new_object(PrincipleReport)
    _set_attribute(report, "__dict__", fields)
    return report

