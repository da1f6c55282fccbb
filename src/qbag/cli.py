"""Command line front end.

Subcommands: ``eval`` (final strengths), ``contrib`` (contribution column or
cell), ``sweep`` (CSV of final strength against one initial strength),
``check`` (one principle on one instance), ``reproduce`` (replay built-in
examples), ``fuzz`` (randomized violation search), and ``export-examples``
(write the built-in corpus to disk).

Exit codes: 0 success (for ``check``/``fuzz``: no violation), 1 violation
found, 2 usage or input error.  The environment variable ``QBAG_EXACT_CAP``
overrides the cap on a topic and its ancestors for exact coalition
enumeration.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from typing import Sequence

from .contributions import (
    DEFAULT_PERMUTATIONS,
    MAX_SWEEP_POINTS,
    UNDEFINED,
    EvaluationCache,
    ShapleyExact,
    contribution,
    method_by_name,
)
from .errors import QBAGError, TooLarge
from .fuzz import (
    DEFAULT_EDGE_PROB,
    DEFAULT_MAX_ARGS,
    DEFAULT_STRENGTH_GRID,
    FuzzConfig,
    _MAX_ARGS_LIMIT,
    search_violation,
)
from .graphfile import load_graph, serialize_graph
from .principles import CheckConfig, principle_by_name, run_check
from .semantics import (
    Aggregation,
    EulerBased,
    GradualSemantics,
    Linear,
    PMax,
    evaluate,
    semantics_by_name,
)


def _with_exact_cap(method):
    """``method``, with an exact Shapley method rebuilt under the cap that
    ``QBAG_EXACT_CAP`` sets.  The variable is read whatever the method, so
    a bad value fails every command that reads it."""
    raw = os.environ.get("QBAG_EXACT_CAP")
    if raw is None:
        return method
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"QBAG_EXACT_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError("QBAG_EXACT_CAP must be positive")
    return ShapleyExact(cap) if isinstance(method, ShapleyExact) else method


# Flag groups shared by several subcommands, each declared once: (flag,
# add_argument options).  The fuzz replay hint is built from the same tables.
_SEMANTICS_FLAGS = (
    ("--semantics", {"help": "preset name: qe, dfquad, sd-dfquad, eb, ebt"}),
    ("--aggregation", {"choices": ["sum", "product", "top"], "help": "custom aggregation"}),
    ("--influence", {"choices": ["linear", "euler-based", "p-max"], "help": "custom influence"}),
    ("--k", {"type": float, "help": "k parameter for --influence linear / p-max (default 1.0)"}),
    ("--p", {"type": int, "help": "p parameter for --influence p-max (default 2)"}),
)
_METHOD_FLAGS = (
    ("--method", {"required": True, "help": "removal | intrinsic-removal | shapley | shapley-sampled | gradient"}),
    ("--permutations", {"type": int, "default": DEFAULT_PERMUTATIONS, "help": "samples for shapley-sampled"}),
    ("--sample-seed", {"type": int, "default": 0, "help": "seed for shapley-sampled"}),
)
_CHECK_FLAGS = (
    ("--principle", {"required": True}),
    ("--zero-tol", {"type": float}),
    ("--eq-tol", {"type": float}),
    ("--eps-schedule", {"help": "comma separated, strictly decreasing"}),
    ("--grid-points", {"type": int, "help": f"strong-faithfulness grid size, 2 to {MAX_SWEEP_POINTS}"}),
)


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for flag, options in flags:
        parser.add_argument(flag, **options)


def _resolve_semantics(args: argparse.Namespace) -> GradualSemantics:
    if args.semantics and (args.aggregation or args.influence):
        raise ValueError("--semantics and --aggregation/--influence are mutually exclusive")
    if args.k is not None and args.influence not in ("linear", "p-max"):
        raise ValueError("--k applies only to --influence linear or p-max")
    if args.p is not None and args.influence != "p-max":
        raise ValueError("--p applies only to --influence p-max")
    if args.semantics:
        return semantics_by_name(args.semantics)
    if args.aggregation and args.influence:
        k = 1.0 if args.k is None else args.k
        if args.influence == "linear":
            influence = Linear(k)
        elif args.influence == "euler-based":
            influence = EulerBased()
        else:
            influence = PMax(2 if args.p is None else args.p, k)
        return GradualSemantics(Aggregation(args.aggregation), influence)
    raise ValueError("pass --semantics NAME or both --aggregation and --influence")


def _resolve_method(args: argparse.Namespace):
    return method_by_name(args.method, permutations=args.permutations, seed=args.sample_seed)


def _check_config(args: argparse.Namespace) -> CheckConfig | None:
    fields = {}
    if args.zero_tol is not None:
        fields["zero_tol"] = args.zero_tol
    if args.eq_tol is not None:
        fields["eq_tol"] = args.eq_tol
    if args.eps_schedule is not None:
        fields["eps_schedule"] = tuple(float(v) for v in args.eps_schedule.split(","))
    if args.grid_points is not None:
        fields["grid_points"] = args.grid_points
    return CheckConfig(**fields) if fields else None


def _replay_command(args: argparse.Namespace, semantics: GradualSemantics, topic: str) -> str:
    """The ``qbag check`` command that replays a fuzz witness: the fuzz run's
    semantics (with its ``--k``/``--p`` where its influence uses them), every
    required method and check flag, and every other one whose value differs
    from its default.  A set ``QBAG_EXACT_CAP`` is carried as a prefix: it
    decides whether an exact Shapley check runs at all."""
    if args.semantics:
        words = ["--semantics", args.semantics]
    else:
        words = ["--aggregation", args.aggregation, "--influence", args.influence]
        if args.influence in ("linear", "p-max"):
            words += ["--k", str(semantics.influence.k)]
        if args.influence == "p-max":
            words += ["--p", str(semantics.influence.p)]
    for flag, options in _METHOD_FLAGS + _CHECK_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if options.get("required") or value != options.get("default"):
            words += [flag, str(value)]
    command = shlex.join(["qbag", "check", "GRAPH.json", *words, "--topic", topic])
    cap = os.environ.get("QBAG_EXACT_CAP")
    return command if cap is None else f"QBAG_EXACT_CAP={shlex.quote(cap)} {command}"


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"


# ------------------------------------------------------------------ commands


def cmd_eval(args: argparse.Namespace) -> int:
    graph = load_graph(args.file)
    semantics = _resolve_semantics(args)
    assignment = evaluate(graph, semantics)
    for name in assignment.order:
        print(f"{name} {_fmt(graph.initial_strength(name))} {_fmt(assignment[name])}")
    return 0


def cmd_contrib(args: argparse.Namespace) -> int:
    graph = load_graph(args.file)
    semantics = _resolve_semantics(args)
    method = _with_exact_cap(_resolve_method(args))
    cache = EvaluationCache(graph, semantics)

    def cell(contributor: str) -> str:
        value = contribution(graph, semantics, method, args.topic, contributor, cache=cache)
        return "undef" if value is UNDEFINED else _fmt(value)

    if args.contributor is not None:
        print(cell(args.contributor))
    else:
        graph.index_of(args.topic)
        for contributor in graph.arguments:
            print(f"{contributor}: {cell(contributor)}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 2 <= args.steps <= MAX_SWEEP_POINTS:
        raise ValueError(f"--steps must be between 2 and {MAX_SWEEP_POINTS}")
    graph = load_graph(args.file)
    semantics = _resolve_semantics(args)
    topic = graph.index_of(args.topic)
    vary = graph.index_of(args.vary)
    cache = EvaluationCache(graph, semantics)
    out = sys.stdout
    out.write("epsilon,final_strength\n")
    last = args.steps - 1
    for i, sigma in enumerate(cache.sweep_column(vary, topic, args.steps)):
        out.write(f"{_fmt(i / last)},{_fmt(sigma)}\n")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    graph = load_graph(args.file)
    semantics = _resolve_semantics(args)
    method = _resolve_method(args)
    principle = principle_by_name(args.principle)
    cfg = _check_config(args)
    report = run_check(graph, semantics, _with_exact_cap(method), principle, args.topic, cfg)
    print(f"principle: {report.principle.value}")
    print(f"semantics: {report.semantics}")
    print(f"method: {report.method}")
    print(f"topic: {report.topic}")
    print(f"verdict: {report.verdict.value}")
    for key in sorted(report.witness):
        print(f"  {key}: {report.witness[key]}")
    if report.note:
        print(f"note: {report.note}")
    return 0 if report.satisfied else 1


def cmd_reproduce(args: argparse.Namespace) -> int:
    # imported here, as in cmd_export_examples: no other command needs the
    # corpus, so none pays for its import
    from . import corpus

    if args.example:
        reports = [corpus.verify_example(args.example)]
    else:
        reports = corpus.verify_all()
    all_ok = True
    for report in reports:
        if report.passed:
            print(f"PASS {report.example_id} ({len(report.results)} expectations)")
        else:
            all_ok = False
            print(f"FAIL {report.example_id} ({len(report.failures)} of {len(report.results)} expectations)")
            for failure in report.failures:
                print(
                    f"  {failure.expectation}: expected {failure.expected}, "
                    f"actual {failure.actual}, delta {failure.delta}"
                )
    total = sum(len(r.results) for r in reports)
    failed = sum(len(r.failures) for r in reports)
    print(f"summary: {len(reports)} examples, {total} expectations, {failed} failures")
    return 0 if all_ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        max_args=args.max_args,
        edge_prob=args.edge_prob,
        strength_grid=args.strength_grid,
        support_only=args.support_only,
    )
    semantics = _resolve_semantics(args)
    method = _resolve_method(args)
    principle = principle_by_name(args.principle)
    cfg = _check_config(args)
    witness = search_violation(config, semantics, _with_exact_cap(method), principle, cfg)
    if witness is None:
        print(f"no violation in {config.trials} trials (seed {config.seed})")
        return 0
    print(f"violation at trial {witness.trial}, topic {witness.topic}")
    for key in sorted(witness.report.witness):
        print(f"  {key}: {witness.report.witness[key]}")
    print("graph file:")
    print(serialize_graph(witness.graph), end="")
    print(f"reproduce: save the graph above and run `{_replay_command(args, semantics, witness.topic)}`")
    return 1


def cmd_export_examples(args: argparse.Namespace) -> int:
    from . import corpus

    written = corpus.export_examples(args.dest)
    print(f"wrote {len(written)} files to {args.dest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbag",
        description="Reason over acyclic quantitative bipolar argumentation graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print initial and final strengths in topological order")
    p.add_argument("file", help="graph file (JSON)")
    _add_flags(p, _SEMANTICS_FLAGS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("contrib", help="print contributions toward one topic argument")
    p.add_argument("file")
    _add_flags(p, _SEMANTICS_FLAGS + _METHOD_FLAGS)
    p.add_argument("--topic", required=True)
    p.add_argument("--contributor", help="print a single cell instead of the full column")
    p.set_defaults(func=cmd_contrib)

    p = sub.add_parser("sweep", help="CSV of the topic's final strength as one initial strength sweeps [0, 1]")
    p.add_argument("file")
    _add_flags(p, _SEMANTICS_FLAGS)
    p.add_argument("--topic", required=True)
    p.add_argument("--vary", required=True)
    p.add_argument("--steps", type=int, default=101, help=f"grid points, 2 to {MAX_SWEEP_POINTS} (default 101)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="check one principle on one instance")
    p.add_argument("file")
    _add_flags(p, _SEMANTICS_FLAGS + _METHOD_FLAGS + _CHECK_FLAGS)
    p.add_argument("--topic", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reproduce", help="replay built-in examples against their expected values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", help="example id (see export-examples or the README)")
    group.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("fuzz", help="search seeded random graphs for a principle violation")
    _add_flags(p, _SEMANTICS_FLAGS + _METHOD_FLAGS + _CHECK_FLAGS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-args", type=int, default=DEFAULT_MAX_ARGS, dest="max_args",
                   help=f"largest graph size, 2 to {_MAX_ARGS_LIMIT} arguments (default {DEFAULT_MAX_ARGS})")
    p.add_argument("--edge-prob", type=float, default=DEFAULT_EDGE_PROB, dest="edge_prob")
    p.add_argument("--strength-grid", type=float, default=DEFAULT_STRENGTH_GRID, dest="strength_grid")
    p.add_argument("--support-only", action="store_true", dest="support_only")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("export-examples", help="write the built-in corpus to a directory")
    p.add_argument("dest")
    p.set_defaults(func=cmd_export_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: TooLarge: {exc} (use --method shapley-sampled)", file=sys.stderr)
        return 2
    except (QBAGError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
