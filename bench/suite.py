"""Commands over the whole benchmark.

    python3 bench/suite.py all [--seed N] [--seconds S] [--trace] [--workload W ...]
        Run each workload of BENCHMARK.json (or the named ones) once and
        print every metric by name with its unit, plus correctness, op
        counts, failed-op share and the tail latency.
    python3 bench/suite.py steady [--runs 10] [--first-seed 1] [--seconds S] [--workload W ...]
        Run two sets of --runs runs of the same code, the same --runs
        consecutive seeds from --first-seed in each set, alternating
        between the sets run by run, and report median and quartiles per
        (metric, workload).  A pair is flagged when a set's spread (third
        minus first quartile, over the median) exceeds the metric's bound,
        when the second median is worse than the first by more than the
        bound, or when failed-op shares or counts differ between sets.
        Exits 1 when anything is flagged.
    python3 bench/suite.py pin --seeds 0-12
        Recompute the pinned outputs of bench/pins.json for those seeds.

Run from the root of a checkout.  Results of ``all`` and ``steady`` are
also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECOND_SEED = 7919  # the "claim holds on a seed not used while writing the change" check


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(record, result) of one run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def cmd_all(args) -> int:
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    out = {}
    bad = False
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        record, result = run_once(name, args.seed, seconds, args.trace)
        out[name] = {"record": record, "result": result}
        bad |= not result["correct"]
        print(f"== {name} (seed {args.seed})")
        print(f"   correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              f"failed_op_share={record['failed_op_share']:.6g} passes={record['passes']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:48} {m['value']:>16.6g} {m['unit']}")
        tail = record.get("op_tail")
        if not args.trace:
            print(f"   {'op_tail_ms':48} "
                  + (f"{tail['value_ms']:>16.6g} ms (p{tail['percentile']}, "
                     f"{tail['samples_beyond']} samples beyond)" if tail
                     else f"{'-':>16} (fewer than 11 ops: no percentile has 10 samples beyond)"))
        for p in record["problems"]:
            print(f"   INCORRECT: {p}")
    _save("all-trace" if args.trace else "all", out)
    return 1 if bad else 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cmd_steady(args) -> int:
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    # The sets alternate run by run, so that a drift of the machine's speed
    # over the minutes the runs take shows in both sets' spreads alike and
    # not as a difference between their medians.
    sets: list[dict] = [{}, {}]
    for name in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for s, runs in enumerate(sets):
                record, result = run_once(name, seed, seconds, False)
                runs.setdefault(name, []).append({"seed": seed, "record": record, "result": result})
                print(f"set {s + 1} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                      + f" correct={result['correct']} failed={result['failed']}", flush=True)
    flagged = 0
    print(f"\n{'workload':14} {'metric':12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    report = []
    for name in workloads:
        for m in spec["end_to_end"]:
            medians = []
            for i, runs in enumerate(sets):
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[name]]
                q1, med, q3 = _quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = spread > m["bound"]
                flagged += flag
                report.append({"workload": name, "metric": m["name"], "set": i + 1, "median": med,
                               "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"], "flag": flag})
                print(f"{name:14} {m['name']:12} {i + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {m['bound']:>6}" + ("  SPREAD > BOUND" if flag else ""))
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            if worse > m["bound"]:
                flagged += 1
                print(f"{name:14} {m['name']:12} second median worse than the first by {worse:.4f}  FLAG")
        shares = [[r["record"]["failed_op_share"] for r in runs[name]] for runs in sets]
        failed = [sum(r["result"]["failed"] for r in runs[name]) for runs in sets]
        incorrect = sum(not r["result"]["correct"] for runs in sets for r in runs[name])
        if shares[0] != shares[1] or failed[0] != failed[1] or incorrect:
            flagged += 1
            print(f"{name:14} failed ops {failed[0]} vs {failed[1]}, shares {shares[0]} vs {shares[1]}, "
                  f"{incorrect} runs incorrect  FLAG")
        else:
            print(f"{name:14} failed ops identical in both sets: {failed[0]}, shares {shares[0]}")
    _save("steady", {"report": report, "sets": sets})
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


def cmd_pin(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from bench.harness import Runner
    from bench.workloads import WORKLOADS

    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1)) + [SECOND_SEED]
    path = ROOT / "bench" / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            state = workload.setup(seed)
            runner = Runner(trace=False)
            outputs = workload.one_pass(state, runner)
            problems = workload.check(state, outputs)
            if problems or runner.failed:
                print(f"{name} seed {seed}: not pinned, {runner.failures} {problems[:3]}")
                continue
            pins.setdefault(name, {})[str(seed)] = json.loads(json.dumps(workload.fingerprint(outputs)))
            print(f"{name} seed {seed}: pinned", flush=True)
            path.write_text(_pins_text(pins), encoding="utf-8")
    return 0


def _pins_text(pins: dict) -> str:
    """One line per (workload, seed), so a diff shows which pins changed."""
    blocks = []
    for name in sorted(pins):
        rows = [f"  {json.dumps(seed)}: {json.dumps(pins[name][seed], sort_keys=True)}"
                for seed in sorted(pins[name], key=int)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _save(name: str, data) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--workload", action="append", help="default: the workloads of BENCHMARK.json")
    p.set_defaults(func=cmd_all)
    p = sub.add_parser("steady")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--workload", action="append")
    p.set_defaults(func=cmd_steady)
    p = sub.add_parser("pin")
    p.add_argument("--seeds", default="0-12")
    p.set_defaults(func=cmd_pin)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
