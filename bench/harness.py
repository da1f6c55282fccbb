"""Timing, tracing and reporting shared by every workload.

A workload is a closed loop with one client: the next operation starts
only after the previous one returned.  The loop runs whole *passes* over a
fixed, seed-derived list of operations, so every pass of a run does the
same work and the figures of a run do not depend on where the clock
stopped.  Each operation is timed on its own; an exception is counted as a
failed operation, tallied by type, and never timed.

With tracing on, the runner also keeps one span per call into the library
(name, start, end, parent span, op id, attributes) in memory, writes them
to ``.bench_out/trace`` when the run ends, and derives the per-layer
metrics from their self times (span minus the time its child spans cover).
"""

from __future__ import annotations

import gzip
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Latency percentiles tried for the tail, highest first; the tail is the
# highest one with at least ten samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
PROBES_MIN = 5  # set-up probes (fresh processes) on each side of the timed region,
PROBE_SECONDS = 3.0  # and more until this many seconds have passed on that side
PROBE_REPEATS = 5  # fresh interpreters for the cli start-up split, cheap and noisy

_child_peak_kib = 0  # largest ru_maxrss of the children run_child has reaped


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, id, name, start, end, parent, op, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs


class Runner:
    """Times operations, tallies failures and optionally records spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.latencies_ns = array("q")  # compact, so peak RSS barely depends on the op count
        self.failures: dict[str, int] = {}
        self.attempted = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """A span around benchmark code that is not itself an operation (a
        pass, or set-up work inside the timed region).  No-op untraced."""
        if not self.trace:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(sid, name, time.perf_counter_ns(), 0, parent, self._op, attrs)
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter_ns()

    def call(self, name: str, attrs: dict | None, fn, *args, **kwargs):
        """One library call that is not counted as an operation; traced as a
        span, exceptions propagate."""
        if not self.trace:
            return fn(*args, **kwargs)
        with self.span(name, **(attrs or {})):
            return fn(*args, **kwargs)

    def op(self, name: str, attrs: dict | None, fn, *args, **kwargs):
        """One operation: timed, failure-counted, traced as a span with the
        given attributes.  Returns ``(ok, result)``; a failed operation
        returns its exception as the result."""
        self.attempted += 1
        if self.trace:
            self._op = self.attempted
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = Span(sid, name, 0, 0, parent, self._op, None)
            self.spans.append(record)
            self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must keep running; tallied below
            end = time.perf_counter_ns()
            kind = type(exc).__name__
            self.failures[kind] = self.failures.get(kind, 0) + 1
            ok, result = False, exc
        else:
            end = time.perf_counter_ns()
            self.latencies_ns.append(end - start)
            ok = True
        if self.trace:
            self._stack.pop()
            record.start, record.end = start, end
            record.attrs = dict(attrs or {}, ok=ok)
            self._op = -1
        return ok, result

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    # -- spans to per-layer figures ---------------------------------------

    def self_times(self) -> list[tuple[Span, int]]:
        """Every span with its self time in ns: its duration minus the union
        of its children's intervals (children never overlap here, one
        thread, so the union is their sum)."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return [(s, (s.end - s.start) - covered[s.id]) for s in self.spans]

    def write_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.op, s.attrs]) + "\n")


def run_passes(runner: Runner, seconds: float, one_pass, consume) -> tuple[int, float]:
    """Run whole passes until ``seconds`` are (about) used: another pass
    starts only while at least half a pass' time remains, and at least one
    pass always runs.  ``consume`` receives each pass' outputs outside the
    timed region.  Returns (passes, timed seconds)."""
    passes = 0
    timed = 0.0
    while True:
        with runner.span("pass", index=passes):
            start = time.perf_counter()
            outputs = one_pass()
            timed += time.perf_counter() - start
        consume(outputs)
        passes += 1
        if seconds - timed < 0.5 * timed / passes:
            return passes, timed


# ------------------------------------------------------------------ set-up


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv: list[str], capture: bool = False, timeout: float = 120.0):
    """Run one child process to completion; returns (exit code, stdout,
    stderr).  Output goes to files under OUT rather than to pipes, so the
    child can be reaped with wait4: the wait blocks instead of polling (a
    wait with a timeout polls in steps of up to 50 ms, which would quantise
    the timings) and yields the child's own peak RSS, kept for
    ``peak_rss_mb(children=True)``.  A timer kills a child that outlives
    ``timeout``."""
    global _child_peak_kib
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        sinks = (out, err) if capture else (subprocess.DEVNULL, subprocess.DEVNULL)
        proc = subprocess.Popen(argv, env=python_env(), cwd=ROOT, stdout=sinks[0], stderr=sinks[1])
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _child_peak_kib = max(_child_peak_kib, usage.ru_maxrss)
        if not capture:
            return proc.returncode, None, None
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode()


def time_process(argv: list[str]) -> float:
    """Wall seconds of one child process, which must succeed."""
    start = time.perf_counter()
    code, _, _ = run_child(argv, timeout=60.0)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return elapsed


def interpreter_and_import_s() -> tuple[float, float]:
    """Median wall seconds of a bare interpreter and of one that imports
    qbag, over PROBE_REPEATS fresh processes each."""
    bare = statistics.median(time_process([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS))
    with_import = statistics.median(
        time_process([sys.executable, "-c", "import qbag"]) for _ in range(PROBE_REPEATS)
    )
    return bare, with_import


def time_to_ready(argv: list[str], timeout: float = 120.0) -> float:
    """Wall seconds from starting a child process until it writes its first
    line to standard output; then waits for the child to exit, which it
    must do with code 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=python_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    finally:
        killer.cancel()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv} exited {proc.returncode} before set-up was ready: {err[-500:]}")
    return elapsed


def setup_probes(workload: str, seed: int) -> list[float]:
    """Set-up times as a user of the workload pays them, from process start
    to the first timed operation: interpreter start, ``import qbag``, input
    generation and warm-up.  Each sample is a fresh process running
    ``bench/run.py --setup-probe``, which sets the workload up, says it is
    ready and exits.  At least PROBES_MIN samples, and more until
    PROBE_SECONDS have passed, so a cheap set-up gets more of them."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times: list[float] = []
    while len(times) < PROBES_MIN or sum(times) < PROBE_SECONDS:
        times.append(time_to_ready(argv))
    return times


# --------------------------------------------------------------- reporting


def tail(sorted_ns: list[int]) -> dict | None:
    """Latency at the highest ladder percentile with >= 10 samples beyond
    it, or None when there are too few samples for any."""
    n = len(sorted_ns)
    for q in TAIL_LADDER:
        idx = max(0, math.ceil(q / 100.0 * n) - 1)
        beyond = n - idx - 1
        if beyond >= 10:
            return {"percentile": q, "value_ms": sorted_ns[idx] / 1e6, "samples_beyond": beyond}
    return None


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, or with ``children`` the largest of the
    children run through ``run_child`` (not the set-up probes)."""
    if children:
        return _child_peak_kib / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def plain(value):
    """``value`` as it reads back from JSON (tuples become lists), the form
    in which outputs are compared with each other and with the pins."""
    return json.loads(json.dumps(value))


def pinned(workload: str, seed: int):
    """The pinned outputs of one workload on one seed, or None."""
    pins = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
