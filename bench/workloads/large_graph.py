"""large-graph: single passes and single-argument re-evaluation on 20k arguments.

The only workload where the forward and reverse passes and re-evaluation
after changing one argument dominate, and where cached vectors are large.
One seeded DAG with 20,000 arguments and 60,000 edges: a random
topological order, HUBS hub arguments with several hundred parents each,
and uniformly drawn forward edges for the rest; every edge is an attack or
a support by a fair coin and initial strengths lie on the fuzzer's 0.05
grid.  The topic is the last argument in topological order and has every
hub among its parents, so its gradient walks through the hubs.

A pass: build the graph from its lists, serialize it, parse the JSON back,
build one QE EvaluationCache, then evaluate and take the topic's gradient
under every preset, compute removal and intrinsic-removal cells toward the
topic for CONTRIBUTORS sampled ancestors, and sweep the first of them over
SWEEP_POINTS initial strengths (the ``qbag sweep`` path), with the sweep
points spread among the other calls.
op = one such call.
"""

from __future__ import annotations

from qbag import (
    PRESETS,
    QBAG,
    QE,
    EvaluationCache,
    contrib_intrinsic_removal,
    contrib_removal,
    evaluate,
    gradient_of_topic,
    parse_graph,
    serialize_graph,
)
from qbag.rng import SplitMix64

from ..oracle import Reference

NAME = "large-graph"
ARGUMENTS = 20_000
EDGES = 60_000
HUBS = 8
HUB_PARENTS = (300, 600)
STRENGTH_GRID = 0.05
CONTRIBUTORS = 20
SWEEP_POINTS = 101
FD_STEP = 1e-6
FD_PRESETS = ("qe", "eb")
FD_CONTRIBUTORS = 3


def generate(seed: int, n: int = ARGUMENTS, edge_count: int = EDGES, hubs: int = HUBS):
    """(arguments, attacks, supports, topic) of the seeded graph."""
    rng = SplitMix64(seed)
    names = [f"x{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    levels = round(1.0 / STRENGTH_GRID)
    arguments = [(name, min(1.0, round(rng.below(levels + 1) * STRENGTH_GRID, 12))) for name in names]
    attacks, supports, edges = [], [], set()

    def add(i: int, j: int) -> None:  # positions in the topological order, i < j
        if (i, j) not in edges:
            edges.add((i, j))
            (supports if rng.below(2) else attacks).append((names[order[i]], names[order[j]]))

    topic = n - 1
    for h in range(hubs):
        hub = n - 2 - h * (n // (2 * hubs))
        for _ in range(HUB_PARENTS[0] + rng.below(HUB_PARENTS[1] - HUB_PARENTS[0] + 1)):
            add(rng.below(hub), hub)
        add(hub, topic)
    while len(edges) < edge_count:
        j = 1 + rng.below(n - 1)
        add(rng.below(j), j)
    return arguments, attacks, supports, names[order[topic]]


def setup(seed: int) -> dict:
    arguments, attacks, supports, topic = generate(seed)
    graph = QBAG(arguments, attacks, supports)
    text = serialize_graph(graph)
    ancestors = sorted(Reference(graph).ancestors(topic), key=graph.index_of)
    rng = SplitMix64(seed ^ 0x5EED)
    sample = []
    while len(sample) < CONTRIBUTORS:
        x = ancestors[rng.below(len(ancestors))]
        if x not in sample:
            sample.append(x)
    evaluate(graph, QE)  # warm-up
    return {"lists": (arguments, attacks, supports), "graph": graph, "text": text,
            "topic": topic, "contributors": sample, "schedule": _schedule(sample)}


def _schedule(contributors: list[str]) -> list[tuple[str, object]]:
    """The order of a pass' calls once the cache is built: the sweep points
    spread evenly among the other calls.  Most ops are sweep points, so the
    median latency is one; spread out, they sample the whole pass' window of
    machine speed and not a few seconds of it."""
    others = [("evaluate", p) for p in PRESETS] + [("gradient", p) for p in PRESETS]
    others += [(kind, x) for x in contributors for kind in ("removal", "intrinsic")]
    schedule = []
    for i in range(SWEEP_POINTS):
        schedule.append(("sweep", i))
        schedule += others[i * len(others) // SWEEP_POINTS:(i + 1) * len(others) // SWEEP_POINTS]
    return schedule


def one_pass(state: dict, runner) -> dict:
    graph, topic = state["graph"], state["topic"]
    out: dict = {"sigma": {}, "gradient": {}, "removal": {}, "intrinsic": {}, "sweep": []}
    op = runner.op
    _, out["built"] = op("graph.build", None, QBAG, *state["lists"])
    _, out["text"] = op("graphfile.serialize", None, serialize_graph, graph)
    _, out["parsed"] = op("graphfile.parse", None, parse_graph, state["text"])
    ok, cache = op("contributions.cache_build", None, _cache, graph)
    if not ok:
        return out
    vary, t = graph.index_of(state["contributors"][0]), graph.index_of(topic)
    for kind, key in state["schedule"]:
        if kind == "sweep":
            ok, res = op("contributions.sweep_point", None, cache.strengths_perturbed,
                         vary, key / (SWEEP_POINTS - 1))
            out["sweep"].append(res[t] if ok else None)
        elif kind == "evaluate":
            ok, res = op("semantics.evaluate", {"preset": key}, evaluate, graph, PRESETS[key])
            out["sigma"][key] = res if ok else None
        elif kind == "gradient":
            ok, res = op("semantics.gradient", {"preset": key}, gradient_of_topic, graph, PRESETS[key], topic)
            out["gradient"][key] = res if ok else None
        elif kind == "removal":
            ok, res = op("contributions.removal_cell", None, contrib_removal, graph, QE, topic, key, cache=cache)
            out["removal"][key] = res if ok else None
        else:
            ok, res = op("contributions.intrinsic_cell", None, contrib_intrinsic_removal,
                         graph, QE, topic, key, cache=cache)
            out["intrinsic"][key] = res if ok else None
    return out


def _cache(graph) -> EvaluationCache:
    cache = EvaluationCache(graph, QE)
    cache.strengths()
    return cache


def fingerprint(outputs: dict) -> dict:
    def r(v):
        return None if v is None else round(v, 12)

    sigma = outputs.get("sigma", {})
    return {
        "sigma_sum": {p: r(sum(s.sigma.values())) if s else None for p, s in sigma.items()},
        "gradient_sum": {p: r(sum(g.partials.values())) if g else None
                         for p, g in outputs.get("gradient", {}).items()},
        "removal": [r(v) for v in outputs.get("removal", {}).values()],
        "intrinsic": [r(v) for v in outputs.get("intrinsic", {}).values()],
        "sweep": [r(v) for v in outputs.get("sweep", [])],
    }


def match_pin(got: dict, pinned: dict) -> list[str]:
    def flat(d):
        if isinstance(d, dict):
            return [v for k in sorted(d) for v in flat(d[k])]
        if isinstance(d, list):
            return [v for x in d for v in flat(x)]
        return [d]

    problems = []
    for key in pinned:
        a, b = flat(got.get(key)), flat(pinned[key])
        if len(a) != len(b) or any(x is None or y is None or abs(x - y) > 1e-9 for x, y in zip(a, b)):
            problems.append(f"{key} differs from the pinned values")
    return problems


def check(state: dict, outputs: dict) -> list[str]:
    """Round trip, final strengths against the reference evaluator, the
    gradient against central finite differences (within 1e-5), one removal
    and one intrinsic cell against the reference, and the sweep point at the
    contributor's own strength against the unperturbed strength."""
    graph, topic = state["graph"], state["topic"]
    problems = []
    if outputs.get("built") != graph or outputs.get("parsed") != graph:
        problems.append("build or parse(serialize(graph)) does not reproduce the graph")
    if outputs.get("text") != state["text"]:
        problems.append("serialize is not deterministic")
    ref = Reference(graph)
    base = {}
    for preset, sem in PRESETS.items():
        res = outputs["sigma"].get(preset)
        if res is None:
            continue
        want = ref.strengths(sem)
        base[preset] = want
        worst = max(abs(res.sigma[n] - want[n]) for n in graph.arguments)
        if worst > 1e-9:
            problems.append(f"{preset}: final strengths differ from the reference by {worst:.3g}")
    for preset in FD_PRESETS:
        grad = outputs["gradient"].get(preset)
        if grad is None or preset not in base:
            continue
        sem = PRESETS[preset]
        for x in state["contributors"][:FD_CONTRIBUTORS]:
            tau = dict(ref.tau)
            w = tau[x]
            if not FD_STEP <= w <= 1.0 - FD_STEP:
                continue
            tau[x] = w + FD_STEP
            up = ref.strengths(sem, tau=tau)[topic]
            tau[x] = w - FD_STEP
            down = ref.strengths(sem, tau=tau)[topic]
            fd = (up - down) / (2 * FD_STEP)
            if abs(grad.partials[x] - fd) > 1e-5:
                problems.append(f"{preset}: gradient wrt {x} is {grad.partials[x]!r}, finite difference {fd!r}")
    if "qe" in base and outputs.get("removal"):
        x = state["contributors"][0]
        sigma = base["qe"][topic]
        removal = sigma - ref.strengths(QE, removed=[x])[topic]
        intrinsic = ref.strengths(QE, isolate=x)[topic] - (sigma - removal)
        for label, got, want in (("removal", outputs["removal"][x], removal),
                                 ("intrinsic", outputs["intrinsic"][x], intrinsic)):
            if got is not None and abs(got - want) > 1e-9:
                problems.append(f"{label} cell of {x} is {got!r}, reference {want!r}")
        own = round(graph.initial_strength(x) * (SWEEP_POINTS - 1))
        point = outputs["sweep"][own]
        if abs(own / (SWEEP_POINTS - 1) - graph.initial_strength(x)) < 1e-12 and point is not None \
                and abs(point - sigma) > 1e-9:
            problems.append(f"sweep at the contributor's own strength gives {point!r}, not {sigma!r}")
    return problems


def layer_metrics(state: dict, runner, passes: int, outputs: dict) -> dict:
    """Mean self time per call of each layer function."""
    sums: dict[str, list[int]] = {}
    for span, self_ns in runner.self_times():
        if span.name == "pass" or not span.attrs.get("ok"):
            continue
        key = span.name
        if "preset" in span.attrs:
            key = f"{key}.{span.attrs['preset']}"
        acc = sums.setdefault(key, [0, 0])
        acc[0] += self_ns
        acc[1] += 1

    names = {f"{key}.{preset}": f"semantics.{key[10:]}_ms.{preset}"
             for key in ("semantics.evaluate", "semantics.gradient") for preset in PRESETS}
    names.update({key: key + "_ms" for key in (
        "graph.build", "graphfile.serialize", "graphfile.parse", "contributions.cache_build",
        "contributions.removal_cell", "contributions.intrinsic_cell", "contributions.sweep_point")})
    return {names[key]: total / count / 1e6 for key, (total, count) in sums.items()}
