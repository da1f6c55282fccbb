"""shapley-table: exact Shapley contribution tables on 14-argument graphs.

The only workload where the coalition sweep and the kept-set cache's
memory dominate.  Two graph shapes of the same size: a fuzz-recipe random
DAG with mixed ancestry (the first seeded trial with 14 arguments) and the
corpus' supporters graph, where every argument is an ancestor of one topic
and of nothing else.  A pass computes the table under QE and DFQuAD on
both, each with a fresh EvaluationCache.  op = one table.
"""

from __future__ import annotations

import tracemalloc

from qbag import (
    DFQUAD,
    QE,
    UNDEFINED,
    EvaluationCache,
    FuzzConfig,
    ShapleyExact,
    contribution_table,
    evaluate,
    random_qbag,
)
from qbag.corpus import supporters_graph

from ..oracle import Reference

NAME = "shapley-table"
ARGS = 14
SEMANTICS = {"qe": QE, "dfquad": DFQUAD}


def setup(seed: int) -> dict:
    config = FuzzConfig(seed=seed, trials=1, max_args=ARGS)
    trial = 0
    while len(random_qbag(config, trial)) != ARGS:
        trial += 1
    graphs = {"random": random_qbag(config, trial), "supporters": supporters_graph(ARGS - 1)}
    contribution_table(supporters_graph(5), QE, ShapleyExact())  # warm-up
    return {"graphs": graphs, "trial": trial}


def _table(graph, sem):
    return contribution_table(graph, sem, ShapleyExact(), cache=EvaluationCache(graph, sem))


def one_pass(state: dict, runner) -> dict:
    tables = {}
    for gname, graph in state["graphs"].items():
        for sname, sem in SEMANTICS.items():
            ok, table = runner.op("contributions.shapley_table", {"graph": gname, "preset": sname},
                                  _table, graph, sem)
            tables[gname, sname] = table if ok else None
    return {"tables": tables}


def _row_sums(table) -> list[float]:
    return [sum(v for v in row if v is not UNDEFINED) for row in table.cells]


def fingerprint(outputs: dict) -> dict:
    """Row sums of the random graph's tables (the supporters tables are
    checked against their closed form instead)."""
    return {
        f"random|{s}": None if outputs["tables"]["random", s] is None
        else [round(v, 12) for v in _row_sums(outputs["tables"]["random", s])]
        for s in SEMANTICS
    }


def match_pin(got: dict, pinned: dict) -> list[str]:
    problems = []
    for key, want in pinned.items():
        have = got.get(key)
        if have is None or len(have) != len(want) or any(abs(a - b) > 1e-9 for a, b in zip(have, want)):
            problems.append(f"{key}: row sums differ from the pinned ones")
    return problems


def check(state: dict, outputs: dict) -> list[str]:
    """Efficiency (each column sums to the topic's strength delta within
    1e-9), null players (non-ancestors contribute exactly 0), and the closed
    form of the supporters table: by symmetry each supporter's share of the
    topic's delta is equal, and nothing else contributes to anything."""
    problems = []
    for (gname, sname), table in outputs["tables"].items():
        if table is None:
            continue  # counted as a failed op
        graph = state["graphs"][gname]
        sem = SEMANTICS[sname]
        sigma = evaluate(graph, sem)
        ref = Reference(graph)
        names = list(graph.arguments)
        for c, topic in enumerate(names):
            column = [table.cells[r][c] for r in range(len(names)) if r != c]
            delta = sigma[topic] - graph.initial_strength(topic)
            gap = abs(sum(column) - delta)
            if gap > 1e-9:
                problems.append(f"{gname}/{sname}: efficiency gap {gap:.3g} on topic {topic}")
            ancestors = ref.ancestors(topic)
            for r, contributor in enumerate(names):
                if r != c and contributor not in ancestors and table.cells[r][c] != 0.0:
                    problems.append(f"{gname}/{sname}: non-ancestor {contributor} contributes to {topic}")
        if gname == "supporters":
            share = (sigma["a"] - graph.initial_strength("a")) / (len(names) - 1)
            for r, contributor in enumerate(names):
                for c, topic in enumerate(names):
                    if r == c:
                        continue
                    want = share if topic == "a" else 0.0
                    if abs(table.cells[r][c] - want) > 1e-9:
                        problems.append(f"supporters/{sname}: cell ({contributor}, {topic}) is not {want}")
    return problems


def layer_metrics(state: dict, runner, passes: int, outputs: dict) -> dict:
    """Mean table time and marginals per second; a marginal is one term of
    one cell, so a table has n(n-1) * 2^(n-2) of them (computed, not
    counted)."""
    total_ns = 0
    tables = 0
    for span, self_ns in runner.self_times():
        if span.name == "contributions.shapley_table" and span.attrs["ok"]:
            total_ns += self_ns
            tables += 1
    marginals = ARGS * (ARGS - 1) * 2 ** (ARGS - 2)
    return {
        "contributions.shapley_table_s": total_ns / tables / 1e9,
        "contributions.marginals_per_s": marginals * tables / (total_ns / 1e9),
    }


def traced_extras(state: dict, runner) -> tuple[dict, list[str]]:
    """Peak bytes allocated while one table is computed (the supporters
    graph under QE), under tracemalloc, outside the timed region because
    tracemalloc slows every allocation."""
    tracemalloc.start()
    try:
        _table(state["graphs"]["supporters"], QE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"contributions.table_alloc_peak_mb": peak / 2**20}, []
