"""cli: sequential ``python -m qbag.cli`` processes.

The only workload where interpreter start, imports, argument parsing and
file I/O dominate, so a change that adds import-time cost shows here and
nowhere else.  One pass runs INVOCATIONS processes one after another:
``reproduce --all``; ``eval``/``contrib``/``check``/``sweep`` on seeded
picks from the exported corpus and on one seeded 2,000-argument file (a
single ``contrib`` cell there: a full column recomputes the gradient once
per contributor, which under a product aggregation takes tens of seconds
and would swamp the start-up costs this workload is for); a
short ``fuzz``; and ``eval`` on a truncated (malformed) graph file, which
must exit 2 with a one-line ``error: <QBAGError subclass>: ...`` message.
op = one invocation.

Gates: ``reproduce --all`` reports every corpus expectation met, every
``eval`` prints the final strengths of the reference evaluator, and on
pinned seeds the exit codes and stdout digests match the pinned ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import sys
import time

from qbag import DEFAULT_EXACT_CAP, PRESETS, QBAG, corpus, load_graph, save_graph
from qbag import cli as qbag_cli
from qbag.errors import QBAGError
from qbag.rng import SplitMix64

from ..harness import OUT, Runner, interpreter_and_import_s, pinned, plain, run_child
from ..oracle import Reference
from . import large_graph

NAME = "cli"
RSS_OF_CHILDREN = True  # the work happens in the child processes
BIG_ARGUMENTS = 2_000
BIG_EDGES = 6_000
FUZZ_TRIALS = 200
REPRODUCE_SUMMARY = "summary: 40 examples, 458 expectations, 0 failures"
ERROR_LINE = re.compile(r"^error: ([A-Za-z]+): .+\n\Z")
EVAL_TOLERANCE = 1e-6  # eval prints six decimals
PRINCIPLES = ("counterfactuality", "directionality", "contribution-existence",
              "quantitative-contribution-existence", "local-faithfulness")
FUZZ_PRINCIPLES = ("counterfactuality", "directionality", "contribution-existence")


class UnexpectedExit(Exception):
    """A command exited with a code its invocation does not allow."""


def setup(seed: int) -> dict:
    work = OUT / f"cli-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = work / "corpus"
    corpus.export_examples(corpus_dir)
    rng = SplitMix64(seed)
    examples = sorted(p for p in corpus_dir.glob("*.json") if not p.name.endswith(".expect.json"))

    def pick(seq):
        return seq[rng.below(len(seq))]

    def graph_and_topic():
        path = pick(examples)
        graph = load_graph(path)
        return str(path), graph, pick(graph.arguments)

    presets = sorted(PRESETS)
    arguments, attacks, supports, topic = large_graph.generate(seed, BIG_ARGUMENTS, BIG_EDGES, hubs=2)
    big = work / "big.json"
    save_graph(QBAG(arguments, attacks, supports), big)
    big_graph = load_graph(big)
    big_vary = pick([a for a in big_graph.arguments if a != topic])
    malformed = work / "malformed.json"
    text = big.read_text(encoding="utf-8")
    malformed.write_text(text[: len(text) // 2 + rng.below(len(text) // 4)], encoding="utf-8")

    calls = [("reproduce", ["reproduce", "--all"])]
    for _ in range(3):
        path, _, _ = graph_and_topic()
        calls.append(("eval", ["eval", path, "--semantics", pick(presets)]))
    for method in ("shapley", "removal"):
        path, graph, t = graph_and_topic()
        while method == "shapley" and len(graph) > DEFAULT_EXACT_CAP:
            path, graph, t = graph_and_topic()  # exact Shapley refuses larger graphs by design
        calls.append(("contrib", ["contrib", path, "--semantics", pick(presets), "--method", method, "--topic", t]))
    for method in ("removal", "gradient"):
        path, _, t = graph_and_topic()
        calls.append(("check", ["check", path, "--semantics", pick(presets), "--method", method,
                                "--principle", pick(PRINCIPLES), "--topic", t]))
    path, graph, t = graph_and_topic()
    vary = pick([a for a in graph.arguments if a != t] or [t])
    calls.append(("sweep", ["sweep", path, "--semantics", pick(presets), "--topic", t, "--vary", vary]))
    calls.append(("eval", ["eval", str(big), "--semantics", pick(presets)]))
    calls.append(("contrib", ["contrib", str(big), "--semantics", pick(presets), "--method", "gradient",
                              "--topic", topic, "--contributor", big_vary]))
    calls.append(("check", ["check", str(big), "--semantics", pick(presets), "--method", "gradient",
                            "--principle", "contribution-existence", "--topic", topic]))
    calls.append(("sweep", ["sweep", str(big), "--semantics", pick(presets), "--topic", topic, "--vary", big_vary]))
    calls.append(("fuzz", ["fuzz", "--semantics", pick(presets), "--method", "removal",
                           "--principle", pick(FUZZ_PRINCIPLES), "--seed", str(seed),
                           "--trials", str(FUZZ_TRIALS)]))
    calls.append(("malformed", ["eval", str(malformed), "--semantics", "qe"]))
    _invoke("warm-up", ["reproduce", "--example", "fig-intro"])
    return {"calls": calls, "work": work, "seed": seed}


def teardown(state: dict) -> None:
    shutil.rmtree(state["work"], ignore_errors=True)


def _allowed(command: str) -> tuple[int, ...]:
    return {"check": (0, 1), "fuzz": (0, 1), "malformed": (2,)}.get(command, (0,))


def _error_types(cls=QBAGError) -> set[str]:
    return {cls.__name__}.union(*(_error_types(sub) for sub in cls.__subclasses__()))


def _invoke(command: str, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout digest, stdout) of one process."""
    code, stdout, stderr = run_child([sys.executable, "-m", "qbag.cli", *argv], capture=True)
    if code not in _allowed(command):
        raise UnexpectedExit(f"{command} exited {code}: {stderr[-200:]}")
    if command == "malformed":
        message = ERROR_LINE.match(stderr)
        if not message or message.group(1) not in _error_types():
            raise UnexpectedExit(f"malformed file gave no one-line QBAGError message: {stderr[-200:]}")
    return code, hashlib.sha256(stdout.encode()).hexdigest(), stdout


def one_pass(state: dict, runner) -> dict:
    results = []
    for command, argv in state["calls"]:
        ok, res = runner.op("cli.process", {"command": command}, _invoke, command, argv)
        results.append(res if ok else None)
    return {"results": results}


def fingerprint(outputs: dict) -> dict:
    return {"results": [list(r[:2]) if r else None for r in outputs["results"]]}


def match_pin(got: dict, pinned: dict) -> list[str]:
    return [] if got == pinned else ["exit codes or stdout digests differ from the pinned ones"]


def _eval_problems(argv: list[str], stdout: str) -> list[str]:
    """``eval FILE --semantics P`` must print every argument once, with its
    initial and final strength, as the reference evaluator computes them."""
    graph = load_graph(argv[1])
    want = Reference(graph).strengths(PRESETS[argv[3]])
    seen = set()
    for line in stdout.splitlines():
        name, tau, sigma = line.split()
        seen.add(name)
        if abs(float(tau) - graph.initial_strength(name)) > EVAL_TOLERANCE \
                or abs(float(sigma) - want[name]) > EVAL_TOLERANCE:
            return [f"eval {argv[1]} {argv[3]}: {line!r}, reference strength {want[name]!r}"]
    if seen != set(graph.arguments):
        return [f"eval {argv[1]} {argv[3]}: printed {len(seen)} of {len(graph)} arguments"]
    return []


def check(state: dict, outputs: dict) -> list[str]:
    """``reproduce --all`` reports every corpus expectation met, and every
    ``eval`` agrees with the reference evaluator."""
    problems = []
    for (command, argv), got in zip(state["calls"], outputs["results"]):
        if got is None:
            continue  # counted as a failed op
        stdout = got[2]
        if command == "reproduce" and REPRODUCE_SUMMARY not in stdout.splitlines():
            problems.append(f"reproduce --all did not report '{REPRODUCE_SUMMARY}'")
        if command == "eval":
            try:
                problems += _eval_problems(argv, stdout)
            except (ValueError, KeyError) as exc:
                problems.append(f"eval {argv[1]}: unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _main_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qbag_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def layer_metrics(state: dict, runner, passes: int, outputs: dict) -> dict:
    sums: dict[str, list[int]] = {}
    for span, self_ns in runner.self_times():
        if span.name == "cli.process" and span.attrs["ok"]:
            acc = sums.setdefault(span.attrs["command"], [0, 0])
            acc[0] += self_ns
            acc[1] += 1
    return {f"cli.process_ms.{c}": total / count / 1e6 for c, (total, count) in sums.items()}


def traced_extras(state: dict, runner) -> tuple[dict, list[str]]:
    """Start-up split (bare interpreter, then the import), each command's
    ``cli.main`` run in this process, ``corpus.verify_all``, and one pass
    of the large-graph workload."""
    out = {}
    bare, with_import = interpreter_and_import_s()
    out["cli.interpreter_ms"] = bare * 1e3
    out["cli.import_ms"] = (with_import - bare) * 1e3
    sums: dict[str, list[float]] = {}
    for command, argv in state["calls"]:
        start = time.perf_counter()
        runner.call("cli.main", {"command": command}, _main_in_process, argv)
        acc = sums.setdefault(command, [0.0, 0])
        acc[0] += time.perf_counter() - start
        acc[1] += 1
    for command, (total, count) in sums.items():
        out[f"cli.main_ms.{command}"] = total / count * 1e3
    start = time.perf_counter()
    reports = runner.call("corpus.verify_all", None, corpus.verify_all)
    out["corpus.verify_all_ms"] = (time.perf_counter() - start) * 1e3
    out["corpus.expectations"] = sum(len(r.results) for r in reports)
    problems = [f"corpus example {r.example_id}: {len(r.failures)} expectations failed"
                for r in reports if not r.passed]
    extras, extra_problems = _large_graph_pass(state["seed"])
    out.update(extras)
    return out, problems + extra_problems


def _large_graph_pass(seed: int) -> tuple[dict, list[str]]:
    """The graph, graphfile, semantics and contribution-cell figures, from
    one traced pass of the large-graph workload on this seed, outside the
    timed region, with that workload's gates.  large-graph is not in
    BENCHMARK.json (its run-to-run spread exceeded the bounds on the
    machine used), and this workload's 2,000-argument file runs the same
    layers through the command line."""
    state = large_graph.setup(seed)
    runner = Runner(trace=True)
    outputs = large_graph.one_pass(state, runner)
    problems = [f"large-graph call failed: {kind} x{count}" for kind, count in runner.failures.items()]
    problems += large_graph.check(state, outputs)
    pin = pinned(large_graph.NAME, seed)
    if pin is not None:
        problems += large_graph.match_pin(plain(large_graph.fingerprint(outputs)), pin)
    values = large_graph.layer_metrics(state, runner, 1, outputs)
    return values, [f"large-graph: {p}" for p in problems]
