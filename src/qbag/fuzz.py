"""Randomized search for principle violations on seeded random graphs.

Generation recipe for trial ``t`` of a run with seed ``s`` (one SplitMix64
stream per trial, so any trial can be replayed in isolation):

1. argument count n uniform in [2, max_args];
2. a uniform random permutation of the n arguments fixes a topological
   order; the argument *list* stays in name order, so list order and
   topological order differ, which exercises the ordering code;
3. each forward pair (earlier, later) in that order becomes an edge with
   probability ``edge_prob``; each edge is an attack or a support by a fair
   coin (always a support in ``support_only`` mode);
4. initial strengths are drawn uniformly from the multiples of
   ``strength_grid`` inside [0, 1].

The search runs one principle checker for every topic of every generated
graph and stops at the first violation, reporting the graph, the topic and
the checker's witness.  Identical configurations produce identical output.
A graph on which the semantics is undefined (a custom linear influence whose
aggregate leaves [-k, k]) ends the search with a :class:`DomainError` that
names its trial and topic, so the graph can be regenerated with
:func:`random_qbag`.
"""

from __future__ import annotations

from ._frozen import Frozen
from .contributions import ContributionMethod, EvaluationCache, _integer
from .errors import DomainError, TooLarge
from .graph import QBAG
from .principles import CheckConfig, PrincipleId, PrincipleReport, run_check
from .rng import SplitMix64
from .semantics import GradualSemantics

DEFAULT_MAX_ARGS = 7
# A trial materialises a graph of up to max_args arguments in memory.
_MAX_ARGS_LIMIT = 1000
DEFAULT_EDGE_PROB = 0.35
DEFAULT_STRENGTH_GRID = 0.05


class FuzzConfig(Frozen):
    seed: int
    trials: int
    max_args: int = DEFAULT_MAX_ARGS
    edge_prob: float = DEFAULT_EDGE_PROB
    strength_grid: float = DEFAULT_STRENGTH_GRID
    support_only: bool = False

    def __post_init__(self):
        if not 0 <= _integer(self, "seed") < 1 << 64:
            raise ValueError("seed must lie in [0, 2**64)")
        if _integer(self, "trials") < 1:
            raise ValueError("trials must be positive")
        if not 2 <= _integer(self, "max_args") <= _MAX_ARGS_LIMIT:
            raise ValueError(f"max_args must lie in [2, {_MAX_ARGS_LIMIT}]")
        if not 0.0 < self.edge_prob < 1.0:
            raise ValueError("edge_prob must lie strictly between 0 and 1")
        if not 0.0 < self.strength_grid <= 1.0:
            raise ValueError("strength_grid must lie in (0, 1]")
        # round(1 / strength_grid) + 1 bounds a 64-bit draw
        if not 1.0 / self.strength_grid < 2.0**64:
            raise ValueError("1 / strength_grid must be below 2**64")


def _argument_names(n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(letters):
        return [letters[i] for i in range(n)]
    return [f"a{i}" for i in range(n)]


def random_qbag(config: FuzzConfig, trial: int) -> QBAG:
    """The graph of one trial; deterministic in (config.seed, trial)."""
    rng = SplitMix64.for_trial(config.seed, trial)
    n = 2 + rng.below(config.max_args - 1)
    names = _argument_names(n)
    order = list(range(n))
    rng.shuffle(order)
    attacks: list[tuple[str, str]] = []
    supports: list[tuple[str, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= config.edge_prob:
                continue
            edge = (names[order[i]], names[order[j]])
            if config.support_only or rng.random() < 0.5:
                supports.append(edge)
            else:
                attacks.append(edge)
    levels = round(1.0 / config.strength_grid)
    arguments = []
    for name in names:
        strength = min(1.0, round(rng.below(levels + 1) * config.strength_grid, 12))
        arguments.append((name, strength))
    return QBAG(arguments, attacks, supports)


class FuzzWitness(Frozen):
    trial: int
    topic: str
    graph: QBAG
    report: PrincipleReport


def search_violation(
    config: FuzzConfig,
    semantics: GradualSemantics,
    method: ContributionMethod,
    principle: PrincipleId,
    check_cfg: CheckConfig | None = None,
) -> FuzzWitness | None:
    """First violation across trials (lowest trial index, then topic order),
    or None when every instance checks out."""
    for trial in range(config.trials):
        graph = random_qbag(config, trial)
        cache = EvaluationCache(graph, semantics)
        for topic in graph.arguments:
            try:
                report = run_check(graph, semantics, method, principle, topic, check_cfg, cache=cache)
            except (DomainError, TooLarge) as exc:
                raise type(exc)(f"trial {trial}, topic {topic}: {exc}") from exc
            if not report.satisfied:
                return FuzzWitness(trial, topic, graph, report)
    return None
