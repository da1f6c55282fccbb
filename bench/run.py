"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qbag is imported from its ``src``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the run record (seed, interpreter,
CPUs, load, op counts, failures by type, tail latency, set-up split,
correctness problems).  A human-readable table goes to standard error.

With ``--trace 1`` the workload first runs untraced, then traced for the
same time; per-layer metrics come from the traced spans and the tracing
overhead is the ratio of the two op rates.

``--setup-probe`` only sets the workload up, prints ``ready`` and exits;
the set-up time of a run is measured on such fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

TRACE_NOTE = ("waiting time is not reported: every workload is one thread in a closed loop "
              "with no queue, so no operation ever waits for another")


def _import_qbag():
    """qbag must come from this checkout's src, never from elsewhere."""
    import qbag

    if Path(qbag.__file__).resolve().parent != ROOT / "src" / "qbag":
        raise ImportError(f"qbag was imported from {qbag.__file__}, not from {ROOT / 'src'}")
    return qbag


def _timed_region(workload, state, runner, seconds):
    """Run passes; returns (passes, wall seconds, first pass' outputs,
    fingerprints of every pass, peak RSS in MB at the end of the first
    pass).  The peak is read before anything else, because later passes
    run while the first pass' outputs are still held for the gates."""
    from bench.harness import peak_rss_mb, plain, run_passes

    first = []
    prints = []
    rss = []

    def consume(outputs):
        if not first:
            rss.append(peak_rss_mb(children=getattr(workload, "RSS_OF_CHILDREN", False)))
            first.append(outputs)
        prints.append(plain(workload.fingerprint(outputs)))

    passes, wall = run_passes(runner, seconds, lambda: workload.one_pass(state, runner), consume)
    return passes, wall, first[0], prints, rss[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        _import_qbag()
    except (OSError, ValueError, ImportError) as exc:
        print(f"bench: cannot run here: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    from bench import harness
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        state = workload.setup(args.seed)
        print("ready", flush=True)
        if hasattr(workload, "teardown"):
            workload.teardown(state)
        return 0
    load_before = os.getloadavg()

    # Set-up probes bracket the timed region, so that their median spans the
    # run's whole window of machine speed.  Traced runs report no set-up time.
    probes = [] if args.trace else harness.setup_probes(workload.NAME, args.seed)
    state = workload.setup(args.seed)
    runner = harness.Runner(trace=False)
    passes, wall, outputs, prints, rss_mb = _timed_region(workload, state, runner, args.seconds)
    ok_ops = runner.attempted - runner.failed
    ops_per_s = ok_ops / wall
    latencies = sorted(runner.latencies_ns)

    problems = []
    if any(p != prints[0] for p in prints):
        problems.append("passes of one run produced different outputs")
    problems += workload.check(state, outputs)
    pinned = harness.pinned(workload.NAME, args.seed)
    if pinned is not None:
        problems += workload.match_pin(prints[0], pinned)

    record = {
        "workload": workload.NAME,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": harness.nproc(),
        "loadavg_before": load_before,
        "passes": passes,
        "timed_s": wall,
        "ops_attempted": runner.attempted,
        "ops_failed": runner.failed,
        "failed_op_share": runner.failed / runner.attempted,
        "failures_by_type": runner.failures,
        "op_p50_samples": len(latencies),
        "op_tail": harness.tail(latencies),
        "pinned_seed": pinned is not None,
    }

    if args.trace:
        traced = harness.Runner(trace=True)
        t_passes, t_wall, t_outputs, t_prints, _ = _timed_region(workload, state, traced, args.seconds)
        if any(p != prints[0] for p in t_prints):
            problems.append("traced passes produced different outputs than untraced ones")
        traced_ops_per_s = (traced.attempted - traced.failed) / t_wall
        values = workload.layer_metrics(state, traced, t_passes, t_outputs)
        if hasattr(workload, "traced_extras"):
            extras, extra_problems = workload.traced_extras(state, traced)
            values.update(extras)
            problems += extra_problems
        values["trace.ops_per_s_untraced"] = ops_per_s
        values["trace.ops_per_s_traced"] = traced_ops_per_s
        values["trace.overhead_ratio"] = ops_per_s / traced_ops_per_s
        trace_file = harness.OUT / "trace" / f"{workload.NAME}-seed{args.seed}.jsonl.gz"
        traced.write_trace(trace_file)
        metrics, not_exercised = {}, []
        for m in spec["per_layer"]:
            if m["name"] in values:
                metrics[m["name"]] = harness.metric(values[m["name"]], m["unit"])
            else:
                metrics[m["name"]] = harness.metric(0, m["unit"])
                not_exercised.append(m["name"])
        record.update({
            "traced_passes": t_passes,
            "traced_timed_s": t_wall,
            "trace_spans": len(traced.spans),
            "trace_file": str(trace_file.relative_to(ROOT)),
            "not_exercised": not_exercised,
            "note": TRACE_NOTE,
        })

    if hasattr(workload, "teardown"):
        workload.teardown(state)
    if not args.trace:
        probes += harness.setup_probes(workload.NAME, args.seed)
        record["setup_probes_s"] = probes
        values = {
            "setup_s": statistics.median(probes),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies) / 1e6 if latencies else 0.0,
            "peak_rss_mb": rss_mb,
        }
        metrics = {m["name"]: harness.metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    record["loadavg_after"] = os.getloadavg()
    record["problems"] = problems[:20]
    for name, m in metrics.items():
        print(f"{workload.NAME:14} {name:48} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"{workload.NAME:14} INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
