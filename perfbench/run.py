#!/usr/bin/env python3
"""End-to-end benchmark of the KubeFence request path.

One run measures one workload for ``--seconds`` and prints, as the last
line of standard output, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``::

    python3 perfbench/run.py --workload reconcile-inproc --seed 1 --seconds 30 --trace 0

``--all`` runs every workload, each in its own process, prints every
end-to-end metric by name and unit, and exits non-zero if any
correctness check fails or any request failed::

    python3 perfbench/run.py --all --seed 1 --seconds 30

Workloads (closed loop, chart ``sonarqube``, durable store with WAL):

- ``reconcile-http``: client -> HttpKubeFenceProxy -> HttpApiServer ->
  store + WAL over loopback TCP, 2 keep-alive connections with one
  caller thread each; ~70% PUT, ~25% GET, ~5% denied attack PUT.
- ``reconcile-inproc``: the same seeded requests through
  ``KubeFenceProxy.submit``, one caller thread.
- ``fuzz-churn``: in-process, one caller; distinct denied fuzz bodies,
  creates and deletes of fresh releases, a few GETs.

The program is imported from ``src/`` next to this directory, never
from anywhere else; without it the benchmark exits with status 2.
Results and traced spans go to ``perfbench/_out/``, the durable
stores to ``perfbench/_work/`` (removed at the end of each run).
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("reconcile-http", "reconcile-inproc", "fuzz-churn")
#: The default seed, and one held out for checking claimed gains.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

#: Set-ups timed before and after the measured window (the last one
#: before is the one measured); ``setup_s`` is their median.  Spreading
#: them over the run keeps one burst of machine noise from deciding it.
SETUPS_BEFORE = 4
SETUPS_AFTER = 4
WARMUP_S = {"reconcile-http": 2.0, "reconcile-inproc": 1.0, "fuzz-churn": 1.0}
#: Requests in the fixed-length count pass of a traced run.
COUNT_PASS = {"reconcile-http": 64, "reconcile-inproc": 2048, "fuzz-churn": 2048}
#: Per-layer counts that two same-seed count passes must repeat exactly.
EXACT_COUNTS = ("validator.calls", "cache.hits", "cache.misses", "wal.appends",
                "store.copies_per_request", "store.compactions")
#: Spans written to the trace file of a traced run.
SPAN_DUMP_LIMIT = 20000
#: A run still going after this long dumps every thread's stack and
#: exits non-zero (a C-level timer, so it fires even if the
#: interpreter is deadlocked).
WATCHDOG_S = 170

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("deny_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (metric, unit, span name, field) -- µs per request from the traced
#: windows; field is wall, self, cpu ("busy") or wait (wall - cpu).
SPAN_METRICS = (
    ("client.wall_us", "client.request", "wall"),
    ("proxy.http.wall_us", "proxy.http", "wall"),
    ("proxy.http.self_us", "proxy.http", "self"),
    ("proxy.http.busy_us", "proxy.http", "cpu"),
    ("proxy.http.wait_us", "proxy.http", "wait"),
    ("proxy.upstream_us", "proxy.upstream", "wall"),
    ("proxy.upstream.wait_us", "proxy.upstream", "wait"),
    ("apiserver.http.wall_us", "apiserver.http", "wall"),
    ("apiserver.http.self_us", "apiserver.http", "self"),
    ("apiserver.http.busy_us", "apiserver.http", "cpu"),
    ("apiserver.http.wait_us", "apiserver.http", "wait"),
    ("proxy.submit.self_us", "proxy.submit", "self"),
    ("gate.check.self_us", "gate.check", "self"),
    ("cache.get_us", "cache.get", "wall"),
    ("validator.validate_us", "validator.validate", "wall"),
    ("apiserver.handle.self_us", "apiserver.handle", "self"),
    ("store.write.self_us", "store.write", "self"),
    ("store.read.self_us", "store.read", "self"),
    ("object.copy_us", "object.copy", "wall"),
    ("store.compact_us", "store.compact", "wall"),
    ("wal.append_us", "wal.append", "wall"),
    ("audit.record_us", "audit.record", "wall"),
    ("events.publish_us", "events.publish", "wall"),
)

PER_LAYER = tuple((name, "us") for name, _span, _field in SPAN_METRICS) + (
    ("hop.client_proxy_us", "us"),
    ("hop.proxy_apiserver_us", "us"),
    ("proxy.conn_reuse_ratio", "ratio"),
    ("gate.checks", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("validator.calls", "count"),
    ("store.copies_per_request", "count"),
    ("store.compactions", "count"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_write", "B"),
    ("audit.retained", "count"),
    ("proxy.denials_retained", "count"),
    ("events.published", "count"),
    ("trace.untraced_rps", "1/s"),
    ("trace.traced_rps", "1/s"),
    ("trace.overhead", "ratio"),
)


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro; nothing to measure\n")
        sys.exit(2)
    # The program's sampling profiler (started by the HTTP servers at
    # 67 Hz by default) walks sys._current_frames(); on CPython 3.11
    # that can deadlock against the garbage collector (CPython
    # gh-106883): about one reconcile-http run in four hung on a 2-vCPU
    # KVM guest with CPython 3.11.7.  It stays off unless the caller
    # sets REPRO_PROFILE_HZ explicitly.
    os.environ.setdefault("REPRO_PROFILE_HZ", "0")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        sys.exit(2)


def _percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))])


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git
    (a benchmark checkout is usually not a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(workload: str, seed: int, seconds: int, trace: int, stack: Any) -> dict[str, Any]:
    from repro.bench import environment_metadata

    from inputs import CHART

    policy = json.dumps(stack.validator.to_dict(), sort_keys=True).encode()
    meta = environment_metadata()
    meta.update({
        "workload": workload,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "chart": CHART,
        "policy_revision": stack.validator.policy_revision,
        "policy_sha256": hashlib.sha256(policy).hexdigest(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python_version": sys.version.split()[0],
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "wal_fsync": stack.store.wal.fsync_policy if stack.store.wal is not None else None,
        "durable_store": stack.store.durable,
    })
    return meta


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: int):
        import inputs

        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = BENCH_DIR / "_work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
        self.out = BENCH_DIR / "_out"
        self.inputs = inputs.build(workload, seed)
        # The generated inputs live as long as the run; keep them out of
        # the program's garbage collections so they do not inflate them.
        gc.collect()
        gc.freeze()
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.notes: list[str] = []
        self.forbidden: list[str] = []
        self.correct = True

    # -- phases --------------------------------------------------------------

    def setup(self, count: int, keep_last: bool) -> Any:
        """*count* timed set-ups; returns the last one if *keep_last*."""
        from stack import new_stack

        stack = None
        for _ in range(count):
            if stack is not None:
                stack.close()
            stack = new_stack(self.inputs, self.work, f"setup{len(self.setup_times)}")
            self.setup_times.append(stack.setup_s)
        if keep_last:
            return stack
        stack.close()
        return None

    def tally(self, window: Any) -> None:
        self.attempted += window.attempted
        self.failed += window.failed
        self.notes.extend(window.mismatches[:5])
        if window.forbidden:
            self.correct = False
            self.forbidden.append(
                f"{window.forbidden} writes the oracle denies were acknowledged by the program")

    def verify(self, stack: Any, executed: int) -> None:
        """Store and recovery gates; closes *stack*."""
        from checks import check_recovery, check_store

        forbidden, mismatches = check_store(self.inputs, stack.store, executed)
        self.forbidden.extend(forbidden)
        stack.stop_servers()
        stack.store.close()
        mismatches += check_recovery(stack.store, stack.data_dir)
        # Each mismatch is one failed check, counted as attempted too so
        # that failed never exceeds attempted.
        self.attempted += len(mismatches)
        self.failed += len(mismatches)
        self.notes.extend(mismatches[:10])
        stack.close()
        if forbidden:
            self.correct = False

    def execute(self) -> dict[str, float]:
        from stack import Caller

        stack = self.setup(SETUPS_BEFORE, keep_last=True)
        self.provenance = _provenance(self.workload, self.seed, self.seconds, self.trace, stack)
        caller = Caller(self.inputs, stack)
        try:
            self.tally(caller.run(seconds=WARMUP_S[self.workload], record=False))
            if self.trace:
                metrics = self.traced_windows(stack, caller)
            else:
                window = caller.run(seconds=self.seconds)
                self.tally(window)
                metrics = self.end_to_end(window)
        finally:
            caller.close()
        self.verify(stack, caller.executed)
        if self.trace:
            metrics.update(self.count_passes())
        else:
            self.setup(SETUPS_AFTER, keep_last=False)
            metrics["setup_s"] = statistics.median(self.setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics

    def end_to_end(self, window: Any) -> dict[str, float]:
        from inputs import DENY, READ, WRITE

        lat = window.latency
        metrics = {
            "throughput_rps": window.attempted / window.elapsed_s,
            "latency_p50_us": _percentile(lat["all"], 0.50) / 1e3,
            "latency_p99_us": _percentile(lat["all"], 0.99) / 1e3,
            "write_p50_us": _percentile(lat[WRITE], 0.50) / 1e3,
            "read_p50_us": _percentile(lat[READ], 0.50) / 1e3,
            "deny_p50_us": _percentile(lat[DENY], 0.50) / 1e3,
        }
        self.samples = {name: len(values) for name, values in lat.items()}
        return metrics

    def traced_windows(self, stack: Any, caller: Any) -> dict[str, float]:
        """``--seconds`` split into eight slices, untraced and traced in
        the order ABBAABBA, so both arms see the same drift in machine
        speed; per-layer µs per request from the traced half."""
        from tracer import Instrumentation, Tracer, aggregate

        tracer = Tracer()
        plain, traced = [], []
        for arm in "ABBAABBA":
            if arm == "A":
                plain.append(caller.run(seconds=self.seconds / 8))
                continue
            instrumentation = Instrumentation(tracer, stack, caller)
            try:
                traced.append(caller.run(seconds=self.seconds / 8))
            finally:
                instrumentation.remove()
        for window in plain + traced:
            self.tally(window)
        requests = sum(w.attempted for w in traced)
        totals = aggregate(tracer)
        metrics: dict[str, float] = {}
        for metric, span, field in SPAN_METRICS:
            entry = totals.get(span)
            if entry is None:
                metrics[metric] = 0.0
                continue
            if field == "wait":
                value = entry["wall_ns"] - entry["cpu_ns"]
            else:
                value = entry[f"{field}_ns"]
            metrics[metric] = value / requests / 1e3
        if stack.http:
            metrics["hop.client_proxy_us"] = metrics["client.wall_us"] - metrics["proxy.http.wall_us"]
            metrics["hop.proxy_apiserver_us"] = (
                metrics["proxy.upstream_us"] - metrics["apiserver.http.wall_us"])
            stats = stack.front.stats
            reused = stats.connections_reused
            opened = stats.connections_opened
            metrics["proxy.conn_reuse_ratio"] = reused / (reused + opened) if reused + opened else 0.0
        else:
            metrics["hop.client_proxy_us"] = 0.0
            metrics["hop.proxy_apiserver_us"] = 0.0
            metrics["proxy.conn_reuse_ratio"] = 0.0
        untraced_rps = sum(w.attempted for w in plain) / sum(w.elapsed_s for w in plain)
        traced_rps = requests / sum(w.elapsed_s for w in traced)
        metrics["trace.untraced_rps"] = untraced_rps
        metrics["trace.traced_rps"] = traced_rps
        metrics["trace.overhead"] = 1.0 - traced_rps / untraced_rps
        self.traced_requests = requests
        self.spans_written = tracer.dump(
            self.out / f"trace-{self.workload}-s{self.seed}.jsonl", SPAN_DUMP_LIMIT)
        self.spans_recorded = len(tracer.spans)
        return metrics

    def count_pass(self, label: str) -> dict[str, float]:
        """A fresh set-up driven for a fixed number of requests with
        every wrapper installed: per-layer counts that repeat exactly
        for a seed (single caller, no timing dependence)."""
        from stack import Caller, new_stack
        from tracer import Instrumentation, Tracer, aggregate

        stack = new_stack(self.inputs, self.work, label)
        # One HTTP connection, so the counts do not depend on interleaving.
        caller = Caller(self.inputs, stack, connections=1)
        tracer = Tracer()
        buses = {id(b): b for b in (stack.api.event_bus, stack.front.events)}.values()
        published = sum(getattr(b, "published", 0) for b in buses)
        compactions = stack.store.compactions
        requests = COUNT_PASS[self.workload]
        instrumentation = Instrumentation(tracer, stack, caller, count_bytes=True)
        try:
            window = caller.run(count=requests, record=False)
        finally:
            instrumentation.remove()
            caller.close()
        self.tally(window)
        calls = {name: entry["calls"] for name, entry in aggregate(tracer).items()}
        hits = len(tracer.cache_hits)
        appends = calls.get("wal.append", 0)
        counts = {
            "gate.checks": calls.get("gate.check", 0),
            "cache.hits": hits,
            "cache.misses": calls.get("cache.get", 0) - hits,
            "cache.hit_ratio": hits / calls["cache.get"] if calls.get("cache.get") else 0.0,
            "validator.calls": calls.get("validator.validate", 0),
            "store.copies_per_request": calls.get("object.copy", 0) / window.attempted,
            "store.compactions": stack.store.compactions - compactions,
            "wal.appends": appends,
            "wal.fsyncs": len(tracer.fsyncs),
            "wal.bytes_per_write": sum(tracer.wal_bytes) / appends if appends else 0.0,
            "audit.retained": len(stack.api.audit_log),
            "proxy.denials_retained": len(stack.front.denials),
            "events.published": sum(getattr(b, "published", 0) for b in buses) - published,
        }
        self.verify(stack, caller.executed)
        return counts

    def count_passes(self) -> dict[str, float]:
        first = self.count_pass("count1")
        if self.workload == "reconcile-http":
            return first
        second = self.count_pass("count2")
        differing = [k for k in EXACT_COUNTS if first[k] != second[k]]
        if differing:
            self.correct = False
            self.notes.append(
                "same-seed count passes disagree on " + ", ".join(
                    f"{k} ({first[k]} vs {second[k]})" for k in differing))
        return first

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _print_metrics(title: str, metrics: dict[str, float],
                   order: tuple[tuple[str, str], ...]) -> None:
    print(title)
    for name, unit in order:
        print(f"  {name:28s} {metrics[name]:14.3f} {unit}")


def _print_http_attribution(metrics: dict[str, float], requests: int) -> None:
    """Where a reconcile-http request's wall time goes, per frontend."""
    rows = (
        ("client-observed wall", "client.wall_us", 0),
        ("outside proxy handler (client<->proxy hop)", "hop.client_proxy_us", 1),
        ("proxy handler busy (thread CPU)", "proxy.http.busy_us", 1),
        ("proxy handler wait (wall - CPU)", "proxy.http.wait_us", 1),
        ("upstream http.client calls (wall)", "proxy.upstream_us", 2),
        ("upstream calls waiting (wall - CPU)", "proxy.upstream.wait_us", 3),
        ("outside apiserver handler (proxy<->apiserver hop)", "hop.proxy_apiserver_us", 3),
        ("apiserver handler busy (thread CPU)", "apiserver.http.busy_us", 3),
        ("apiserver handler wait (wall - CPU)", "apiserver.http.wait_us", 3),
    )
    print(f"reconcile-http per-request wall attribution (mean over {requests} traced requests):")
    for label, name, depth in rows:
        print(f"  {'  ' * depth}{label:{52 - 2 * depth}s} {metrics[name] / 1e3:9.3f} ms")


def run_one(args: argparse.Namespace) -> int:
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    _bootstrap()
    sys.path.insert(0, str(BENCH_DIR))
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    try:
        metrics = run.execute()
    finally:
        run.cleanup()
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    if args.trace:
        units = dict(PER_LAYER)
        reported = {name: metrics[name] for name, _unit in PER_LAYER}
        _print_metrics(f"{run.workload} per-layer metrics (traced run, seed {run.seed}):",
                       reported, PER_LAYER)
        print(f"tracing overhead: untraced {metrics['trace.untraced_rps']:.1f} rps, traced "
              f"{metrics['trace.traced_rps']:.1f} rps ({100 * metrics['trace.overhead']:.1f}% lower)")
        print(f"spans: {run.spans_recorded} recorded over {run.traced_requests} requests, "
              f"{run.spans_written} written to perfbench/_out/")
        if run.workload == "reconcile-http":
            _print_http_attribution(metrics, run.traced_requests)
    else:
        units = dict(END_TO_END)
        reported = {name: metrics[name] for name, _unit in END_TO_END}
        _print_metrics(f"{run.workload} end-to-end metrics (seed {run.seed}):",
                       reported, END_TO_END)
        print(f"  {'error_rate':28s} {error_rate:14.6f} ratio")
        print("  samples: " + ", ".join(f"{k}={v}" for k, v in run.samples.items()))
    for note in run.forbidden[:10] + run.notes[:20]:
        print(f"  ! {note}")
    print("provenance: " + json.dumps(run.provenance, sort_keys=True))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }
    run.out.mkdir(parents=True, exist_ok=True)
    (run.out / f"result-{run.workload}-s{run.seed}-t{run.trace}.json").write_text(json.dumps(
        dict(result, error_rate=error_rate, forbidden=run.forbidden, notes=run.notes,
             provenance=run.provenance, all_metrics=metrics), indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if run.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (``peak_rss_mb`` is per
    process); non-zero if any run is incorrect or has failures."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
            print(f"FAIL {workload}: exit {proc.returncode}, "
                  f"result {'missing' if result is None else 'incorrect or with failed requests'}")
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
