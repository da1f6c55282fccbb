"""An independent reference evaluator for the output gates.

It re-derives final strengths from the formulas in the semantics module's
docstring, reading the graph only through its public accessors and using
none of the library's evaluator, cache or bitmask code, so it can tell
whether an optimised evaluator still computes the same numbers.
"""

from __future__ import annotations

import math

from qbag import EulerBased, Linear, PMax


class Reference:
    """Final strengths of one graph, optionally with arguments removed, one
    argument's incoming edges ignored, or initial strengths overridden."""

    def __init__(self, graph):
        self.names = list(graph.arguments)
        self.tau = {n: graph.initial_strength(n) for n in self.names}
        self.attackers = {n: graph.attackers_of(n) for n in self.names}
        self.supporters = {n: graph.supporters_of(n) for n in self.names}
        indegree = {n: len(self.attackers[n]) + len(self.supporters[n]) for n in self.names}
        children: dict[str, list[str]] = {n: [] for n in self.names}
        for n in self.names:
            for p in self.attackers[n] + self.supporters[n]:
                children[p].append(n)
        ready = [n for n in self.names if indegree[n] == 0]
        self.order = []
        while ready:
            n = ready.pop()
            self.order.append(n)
            for c in children[n]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
        if len(self.order) != len(self.names):
            raise ValueError("graph is not acyclic")

    def ancestors(self, topic: str) -> set[str]:
        seen: set[str] = set()
        stack = [topic]
        while stack:
            n = stack.pop()
            for p in self.attackers[n] + self.supporters[n]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def strengths(self, semantics, removed=(), isolate=None, tau=None) -> dict[str, float]:
        removed = set(removed)
        taus = dict(self.tau) if tau is None else tau
        agg = semantics.aggregation.value
        infl = semantics.influence
        sigma: dict[str, float] = {}
        for n in self.order:
            if n in removed:
                continue
            if n == isolate:
                atts, sups = [], []
            else:
                atts = [sigma[p] for p in self.attackers[n] if p not in removed]
                sups = [sigma[p] for p in self.supporters[n] if p not in removed]
            if not atts and not sups:
                sigma[n] = taus[n]
                continue
            if agg == "sum":
                s = sum(sups) - sum(atts)
            elif agg == "product":
                s = math.prod(1.0 - v for v in atts) - math.prod(1.0 - v for v in sups)
            else:
                s = max([0.0] + sups) - max([0.0] + atts)
            sigma[n] = _influence(infl, taus[n], s)
        return sigma


def _influence(infl, w: float, s: float) -> float:
    if isinstance(infl, Linear):
        k = infl.k
        r = w - (w / k) * max(0.0, -s) + ((1.0 - w) / k) * max(0.0, s)
    elif isinstance(infl, EulerBased):
        r = 1.0 - (1.0 - w * w) / (1.0 + w * math.exp(s))
    elif isinstance(infl, PMax):
        def h(x: float) -> float:
            x = max(0.0, x)
            return x**infl.p / (1.0 + x**infl.p)

        r = w - w * h(-s / infl.k) + (1.0 - w) * h(s / infl.k)
    else:
        raise TypeError(f"no reference for influence {infl!r}")
    return min(1.0, max(0.0, r))
