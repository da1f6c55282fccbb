"""Quantitative bipolar argumentation graphs and structural operations.

A graph holds named arguments with initial strengths in [0, 1], plus disjoint
attack and support relations whose union must be acyclic.  Instances are
immutable: every operation returns a fresh graph and never mutates its input,
so values can be shared freely across threads.

Arguments keep their insertion order and that order is the tie-breaker for
everything downstream (topological sorting, iteration, coalition
enumeration), which makes all computations reproducible.  Internally each
argument carries its list position as a stable integer index, so argument
sets can be represented as bitmasks.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator

from .errors import (
    CyclicGraph,
    DuplicateArgument,
    NotDistinct,
    OverlappingRelation,
    StrengthOutOfRange,
    UnknownArgument,
    UnknownEndpoint,
)

Edge = tuple[str, str]


def _check_name(name: object) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError(f"argument name must be a non-empty string, got {name!r}")
    if any(ch.isspace() or ch == "," for ch in name):
        raise ValueError(f"argument name may not contain whitespace or commas: {name!r}")
    return name


class QBAG:
    """Immutable acyclic argument graph.

    Parameters
    ----------
    arguments:
        Iterable of ``(name, initial_strength)`` pairs; order is preserved.
    attacks, supports:
        Iterables of ``(source, target)`` edges.  The two relations must be
        disjoint and their union acyclic.
    """

    __slots__ = (
        "_names",
        "_tau",
        "_index",
        "_attackers",
        "_supporters",
        "_children",
        "_topo",
        "_topo_pos",
        "_attack_edges",
        "_support_edges",
    )

    def __init__(
        self,
        arguments: Iterable[tuple[str, float]],
        attacks: Iterable[Edge] = (),
        supports: Iterable[Edge] = (),
    ):
        names: list[str] = []
        tau: list[float] = []
        index: dict[str, int] = {}
        for name, strength in arguments:
            _check_name(name)
            if name in index:
                raise DuplicateArgument(f"argument {name!r} is declared twice")
            try:
                value = float(strength)
            except OverflowError:  # an integer beyond the float range
                value = math.inf if strength > 0 else -math.inf
            if not 0.0 <= value <= 1.0:
                raise StrengthOutOfRange(
                    f"initial strength of {name!r} must lie in [0, 1], got {value!r}"
                )
            index[name] = len(names)
            names.append(name)
            tau.append(value)

        def edge_set(edges: Iterable[Edge], relation: str) -> set[tuple[int, int]]:
            out: set[tuple[int, int]] = set()
            for src, dst in edges:
                if src not in index:
                    raise UnknownEndpoint(f"{relation} edge references unknown argument {src!r}")
                if dst not in index:
                    raise UnknownEndpoint(f"{relation} edge references unknown argument {dst!r}")
                out.add((index[src], index[dst]))
            return out

        att = edge_set(attacks, "attack")
        sup = edge_set(supports, "support")
        overlap = att & sup
        if overlap:
            i, j = sorted(overlap)[0]
            raise OverlappingRelation(
                f"edge ({names[i]!r}, {names[j]!r}) appears as both attack and support"
            )

        n = len(names)
        attackers: list[list[int]] = [[] for _ in range(n)]
        supporters: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for src, dst in att:
            attackers[dst].append(src)
            children[src].append(dst)
        for src, dst in sup:
            supporters[dst].append(src)
            children[src].append(dst)
        for rows in (attackers, supporters, children):
            for row in rows:
                row.sort()

        # Kahn's algorithm; a min-heap over argument indices makes the order
        # deterministic with ties broken by list position.
        indegree = [len(attackers[i]) + len(supporters[i]) for i in range(n)]
        ready = [i for i in range(n) if indegree[i] == 0]
        heapq.heapify(ready)
        topo: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            topo.append(i)
            for child in children[i]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(topo) != n:
            stuck = [names[i] for i in range(n) if indegree[i] > 0]
            raise CyclicGraph(f"attack/support relation has a cycle through {stuck}")
        topo_pos = [0] * n
        for pos, i in enumerate(topo):
            topo_pos[i] = pos

        self._names = tuple(names)
        self._tau = tuple(tau)
        self._index = index
        self._attackers = tuple(tuple(row) for row in attackers)
        self._supporters = tuple(tuple(row) for row in supporters)
        self._children = tuple(tuple(row) for row in children)
        self._topo = tuple(topo)
        self._topo_pos = tuple(topo_pos)
        self._attack_edges = tuple(
            (names[s], names[d]) for s, d in sorted(att, key=lambda e: (e[1], e[0]))
        )
        self._support_edges = tuple(
            (names[s], names[d]) for s, d in sorted(sup, key=lambda e: (e[1], e[0]))
        )

    # ------------------------------------------------------------------ views

    @property
    def arguments(self) -> tuple[str, ...]:
        return self._names

    @property
    def initial_strengths(self) -> dict[str, float]:
        """Fresh name -> initial strength mapping."""
        return dict(zip(self._names, self._tau))

    @property
    def attacks(self) -> tuple[Edge, ...]:
        return self._attack_edges

    @property
    def supports(self) -> tuple[Edge, ...]:
        return self._support_edges

    def initial_strength(self, name: str) -> float:
        return self._tau[self.index_of(name)]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownArgument(f"unknown argument {name!r}") from None

    def attackers_of(self, name: str) -> tuple[str, ...]:
        return tuple(self._names[i] for i in self._attackers[self.index_of(name)])

    def supporters_of(self, name: str) -> tuple[str, ...]:
        return tuple(self._names[i] for i in self._supporters[self.index_of(name)])

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QBAG):
            return NotImplemented
        return (
            self._names == other._names
            and self._tau == other._tau
            and set(self._attack_edges) == set(other._attack_edges)
            and set(self._support_edges) == set(other._support_edges)
        )

    def __hash__(self) -> int:
        return hash((self._names, self._tau, frozenset(self._attack_edges), frozenset(self._support_edges)))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}={t:g}" for n, t in zip(self._names, self._tau))
        return (
            f"QBAG({parts}; attacks={len(self._attack_edges)}, "
            f"supports={len(self._support_edges)})"
        )


# --------------------------------------------------------------- bitmask sets


def argument_mask(graph: QBAG, names: Iterable[str]) -> int:
    """Bitmask over list positions for a set of argument names."""
    mask = 0
    for name in names:
        mask |= 1 << graph.index_of(name)
    return mask


# ----------------------------------------------------------------- operations


def restrict(graph: QBAG, keep: Iterable[str]) -> QBAG:
    """Subgraph induced on ``keep``: kept arguments with both relations
    intersected with keep x keep.  Argument order is preserved."""
    mask = argument_mask(graph, keep)
    kept = [(n, t) for i, (n, t) in enumerate(zip(graph.arguments, graph._tau)) if (mask >> i) & 1]
    names = {n for n, _ in kept}
    att = [(s, d) for s, d in graph.attacks if s in names and d in names]
    sup = [(s, d) for s, d in graph.supports if s in names and d in names]
    return QBAG(kept, att, sup)


def remove_incoming(graph: QBAG, name: str) -> QBAG:
    """Drop every edge targeting ``name`` from both relations."""
    graph.index_of(name)
    att = [(s, d) for s, d in graph.attacks if d != name]
    sup = [(s, d) for s, d in graph.supports if d != name]
    return QBAG(zip(graph.arguments, graph._tau), att, sup)


def with_initial_strength(graph: QBAG, name: str, value: float) -> QBAG:
    """Copy of the graph with one argument's initial strength replaced."""
    i = graph.index_of(name)
    args = [(n, value if j == i else t) for j, (n, t) in enumerate(zip(graph.arguments, graph._tau))]
    return QBAG(args, graph.attacks, graph.supports)


def topological_order(graph: QBAG) -> list[str]:
    """Every edge source precedes its target; ties broken by list position."""
    return [graph.arguments[i] for i in graph._topo]


def reaches(graph: QBAG, source: str, target: str) -> bool:
    """True iff a directed path of length >= 1 runs from source to target."""
    si = graph.index_of(source)
    ti = graph.index_of(target)
    seen = set()
    stack = list(graph._children[si])
    while stack:
        i = stack.pop()
        if i == ti:
            return True
        if i in seen:
            continue
        seen.add(i)
        stack.extend(graph._children[i])
    return False


def strictly_closer(graph: QBAG, nearer: str, farther: str, topic: str) -> bool:
    """True iff ``farther`` reaches ``topic`` and ``nearer`` lies on every
    directed path between them.  All three arguments must be distinct."""
    if len({nearer, farther, topic}) != 3:
        raise NotDistinct("strictly_closer requires three pairwise distinct arguments")
    for name in (nearer, farther, topic):
        graph.index_of(name)
    if not reaches(graph, farther, topic):
        return False
    without = restrict(graph, [n for n in graph.arguments if n != nearer])
    return not reaches(without, farther, topic)


def ancestor_mask(graph: QBAG, target: int, avoid: int = -1) -> int:
    """Bitmask of the arguments with a directed path to argument index
    ``target`` that does not pass through index ``avoid``; ``avoid`` itself
    is never set."""
    parents = (graph._attackers, graph._supporters)
    seen = 1 << avoid if avoid >= 0 else 0
    stack = [target]
    while stack:
        i = stack.pop()
        for rows in parents:
            for p in rows[i]:
                if not (seen >> p) & 1:
                    seen |= 1 << p
                    stack.append(p)
    return seen & ~(1 << avoid) if avoid >= 0 else seen


def strictly_closer_pairs(graph: QBAG, topic: int) -> list[tuple[int, int]]:
    """Every (nearer, farther) index pair for which :func:`strictly_closer`
    holds toward argument index ``topic``, in the order of a double loop over
    the argument list.  One reverse reachability from the topic per nearer
    argument replaces a restricted graph per pair."""
    ancestors = ancestor_mask(graph, topic)
    n = len(graph)
    pairs = []
    for nearer in range(n):
        if not (ancestors >> nearer) & 1:
            continue  # off every path to the topic, so closer than nothing
        cut = ancestors & ~ancestor_mask(graph, topic, nearer) & ~(1 << nearer)
        pairs.extend((nearer, farther) for farther in range(n) if (cut >> farther) & 1)
    return pairs


def descendant_cone(graph: QBAG, index: int) -> tuple[int, ...]:
    """Argument index ``index`` and every argument it reaches, in
    topological order: the arguments whose final strength can depend on its
    initial strength or its incoming edges."""
    children = graph._children
    cone = {index}
    stack = [index]
    while stack:
        for child in children[stack.pop()]:
            if child not in cone:
                cone.add(child)
                stack.append(child)
    return tuple(sorted(cone, key=graph._topo_pos.__getitem__))
