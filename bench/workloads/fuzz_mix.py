"""fuzz-mix: every principle x method x topic on a pool of small fuzz graphs.

This is the traffic of ``qbag fuzz`` and of the fuzzing acceptance
criterion: thousands of cheap checks on graphs of at most seven arguments,
where checker loops, per-call overhead and coalition re-enumeration
dominate and the forward pass is tiny.

The pool is stratified by size: the first GRAPHS_PER_SIZE trials of the
seeded fuzz recipe (``max_args=7``, default edge probability and strength
grid) that have n arguments, for every n in 2..7.  A fixed size mix keeps
the work of one pass comparable across seeds.  For every graph and preset
one EvaluationCache and one kink margin are computed; then every
principle x method x topic runs as one ``run_check``.  op = one run_check.
"""

from __future__ import annotations

from qbag import (
    PRESETS,
    EvaluationCache,
    FuzzConfig,
    Gradient,
    IntrinsicRemoval,
    PrincipleId,
    Removal,
    ShapleyExact,
    kink_margin,
    random_qbag,
    run_check,
)

from ..harness import Runner, pinned, plain
from ..oracle import Reference
from . import shapley_table

NAME = "fuzz-mix"
MAX_ARGS = 7
GRAPHS_PER_SIZE = 12
WARM_UP_ARGS = 4
METHODS = {
    "removal": Removal(),
    "intrinsic-removal": IntrinsicRemoval(),
    "shapley": ShapleyExact(),
    "gradient": Gradient(),
}
PRINCIPLES = [p.value for p in PrincipleId]


def setup(seed: int) -> dict:
    config = FuzzConfig(seed=seed, trials=1, max_args=MAX_ARGS)
    wanted = {n: GRAPHS_PER_SIZE for n in range(2, MAX_ARGS + 1)}
    trials = []
    warm_up = None
    trial = 0
    while any(wanted.values()):
        n = len(random_qbag(config, trial))
        if wanted[n]:
            wanted[n] -= 1
            trials.append(trial)
        if warm_up is None and n == WARM_UP_ARGS:
            warm_up = trial
        trial += 1
    # warm-up: one graph of a fixed size through every preset, principle and
    # method, so that its cost does not depend on the seed
    g = random_qbag(config, warm_up)
    for sem in PRESETS.values():
        cache = EvaluationCache(g, sem)
        for principle in PrincipleId:
            for method in METHODS.values():
                run_check(g, sem, method, principle, g.arguments[0], cache=cache)
    return {"config": config, "trials": sorted(trials)}


def one_pass(state: dict, runner) -> dict:
    """Run the pool once; returns violations per (principle, method, preset)
    and the op count."""
    config = state["config"]
    violations: dict[str, int] = {}
    ops = 0
    attrs = {(p, m): {"principle": p.value, "method": m} for p in PrincipleId for m in METHODS}
    for trial in state["trials"]:
        g = runner.call("fuzz.random_qbag", None, random_qbag, config, trial)
        for preset, sem in PRESETS.items():
            sattrs = {"preset": preset}
            cache = runner.call("contributions.cache_build", sattrs, EvaluationCache, g, sem)
            runner.call("semantics.kink_margin", sattrs, kink_margin, g, sem)
            for principle in PrincipleId:
                for mname, method in METHODS.items():
                    key = f"{principle.value}|{mname}|{preset}"
                    a = attrs[principle, mname]
                    for topic in g.arguments:
                        ok, report = runner.op(
                            "principles.run_check", a, run_check,
                            g, sem, method, principle, topic, cache=cache,
                        )
                        ops += 1
                        if ok and not report.satisfied:
                            violations[key] = violations.get(key, 0) + 1
    return {"ops": ops, "violations": violations}


def _keys() -> list[str]:
    return [f"{p}|{m}|{s}" for p in PRINCIPLES for m in METHODS for s in PRESETS]


def fingerprint(outputs: dict) -> dict:
    """The op count and the violation counts in (principle, method, preset)
    order."""
    return {"ops": outputs["ops"], "violations": [outputs["violations"].get(k, 0) for k in _keys()]}


def check(state: dict, outputs: dict) -> list[str]:
    """Independent gate: every pool graph's final strengths under every
    preset agree with the reference evaluator."""
    problems = []
    for trial in state["trials"]:
        g = random_qbag(state["config"], trial)
        ref = Reference(g)
        for preset, sem in PRESETS.items():
            got = EvaluationCache(g, sem).strengths()
            want = ref.strengths(sem)
            worst = max(abs(got[g.index_of(n)] - want[n]) for n in g.arguments)
            if worst > 1e-12:
                problems.append(f"trial {trial} {preset}: strengths differ from reference by {worst:.3g}")
    return problems


def match_pin(got: dict, pinned: dict) -> list[str]:
    if got == pinned:
        return []
    cells = [k for k, a, b in zip(_keys(), got["violations"], pinned["violations"]) if a != b]
    return [f"verdict counts differ from the pinned ones (ops {got['ops']} vs {pinned['ops']}; cells {cells[:5]})"]


def layer_metrics(state: dict, runner, passes: int, outputs: dict) -> dict:
    """Per-pass busy time, calls and violations per principle, per-pass busy
    time per method, and the mean cost of graph generation, cache creation
    and the kink margin."""
    out: dict[str, float] = {}
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    method_busy: dict[str, float] = {m: 0.0 for m in METHODS}
    sums: dict[str, list] = {}
    for span, self_ns in runner.self_times():
        if span.name == "principles.run_check":
            p = span.attrs["principle"]
            busy[p] = busy.get(p, 0.0) + self_ns / 1e9
            calls[p] = calls.get(p, 0) + 1
            method_busy[span.attrs["method"]] += self_ns / 1e9
        elif span.name in ("fuzz.random_qbag", "contributions.cache_build", "semantics.kink_margin"):
            acc = sums.setdefault(span.name, [0, 0])
            acc[0] += self_ns
            acc[1] += 1
    for p in PRINCIPLES:
        out[f"principles.{p}.busy_s"] = busy.get(p, 0.0) / passes
        out[f"principles.{p}.calls"] = calls.get(p, 0) / passes
    for m, v in method_busy.items():
        out[f"principles.method.{m}.busy_s"] = v / passes
    out["fuzz.random_qbag_us"] = sums["fuzz.random_qbag"][0] / sums["fuzz.random_qbag"][1] / 1e3
    out["fuzz.graphs"] = sums["fuzz.random_qbag"][1] / passes
    out["contributions.cache_build_ms"] = (
        sums["contributions.cache_build"][0] / sums["contributions.cache_build"][1] / 1e6
    )
    out["semantics.kink_margin_us"] = (
        sums["semantics.kink_margin"][0] / sums["semantics.kink_margin"][1] / 1e3
    )
    per_principle = {p: 0 for p in PRINCIPLES}
    for key, count in outputs["violations"].items():
        per_principle[key.split("|")[0]] += count
    for p, count in per_principle.items():
        out[f"principles.{p}.violations"] = count
    return out


def traced_extras(state: dict, runner) -> tuple[dict, list[str]]:
    """The exact Shapley table figures, from one pass of the shapley-table
    workload's tables on this seed, outside the timed region: that workload
    is not in BENCHMARK.json (its run-to-run spread exceeds any allowed
    bound), and this is the workload whose shapley-method checks the
    tables' sweep serves.  The tables go through that workload's gates."""
    seed = state["config"].seed
    tables = shapley_table.setup(seed)
    table_runner = Runner(trace=True)
    outputs = shapley_table.one_pass(tables, table_runner)
    problems = [f"shapley table failed: {kind} x{count}" for kind, count in table_runner.failures.items()]
    problems += shapley_table.check(tables, outputs)
    pin = pinned(shapley_table.NAME, seed)
    if pin is not None:
        problems += shapley_table.match_pin(plain(shapley_table.fingerprint(outputs)), pin)
    out = shapley_table.layer_metrics(tables, table_runner, 1, outputs) if not table_runner.failed else {}
    extras, extra_problems = shapley_table.traced_extras(tables, table_runner)
    out.update(extras)
    return out, [f"shapley-table: {p}" for p in problems + extra_problems]
