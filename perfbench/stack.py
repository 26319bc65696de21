"""Set-up of the program under test and the closed-loop callers.

The program is driven only through its public API:
``generate_policy`` -> ``Cluster(data_dir=...)`` (durable store, WAL on,
default ``batch`` fsync and compaction) -> ``KubeFenceProxy.submit`` for
the in-process workloads, or ``HttpApiServer`` + ``HttpKubeFenceProxy``
over loopback TCP for ``reconcile-http``.
"""

from __future__ import annotations

import http.client
import itertools
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import Cluster, KubeFenceProxy, generate_policy, get_chart
from repro.core.proxy import HttpKubeFenceProxy
from repro.k8s.http import HttpApiServer

from inputs import CHART, DELETE, DENY, HTTP_HEADERS, READ, WRITE, Inputs

#: Keep-alive client connections (one caller thread each) on HTTP.
HTTP_CALLERS = 2
HTTP_TIMEOUT_S = 10.0


class Stack:
    """One set-up of the program: policy, durable cluster, preload and,
    for HTTP, both servers.  :attr:`setup_s` is its wall time."""

    def __init__(self, inputs: Inputs, data_dir: Path, http: bool):
        self.data_dir = data_dir
        self.http = http
        started = time.perf_counter()
        self.validator = generate_policy(get_chart(CHART))
        self.validator.compiled()
        self.cluster = Cluster(data_dir=data_dir)
        for manifest in inputs.preload:
            response = self.cluster.apply(manifest)
            if not response.ok:
                raise RuntimeError(f"preload failed: {response.code} {response.body}")
        self.server: HttpApiServer | None = None
        self.http_proxy: HttpKubeFenceProxy | None = None
        self.proxy: KubeFenceProxy | None = None
        if http:
            self.server = HttpApiServer(self.cluster.api).start()
            self.http_proxy = HttpKubeFenceProxy(self.server.base_url, self.validator).start()
        else:
            self.proxy = KubeFenceProxy(self.cluster.api, self.validator)
        self.setup_s = time.perf_counter() - started

    @property
    def api(self) -> Any:
        return self.cluster.api

    @property
    def store(self) -> Any:
        return self.cluster.store

    @property
    def front(self) -> Any:
        """The proxy object the callers talk to."""
        return self.http_proxy if self.http else self.proxy

    def stop_servers(self) -> None:
        if self.http_proxy is not None:
            self.http_proxy.stop()
            self.http_proxy = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self.stop_servers()
        self.cluster.store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


@dataclass
class Window:
    """What one closed-loop phase observed."""

    attempted: int = 0
    failed: int = 0
    #: Writes the oracle denies that the program acknowledged (2xx):
    #: a forbidden write reached the store.
    forbidden: int = 0
    elapsed_s: float = 0.0
    #: Latencies in ns by category, plus "all".
    latency: dict[str, list[int]] = field(
        default_factory=lambda: {WRITE: [], READ: [], DENY: [], DELETE: [], "all": []}
    )
    mismatches: list[str] = field(default_factory=list)

    def merge(self, other: "Window") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.forbidden += other.forbidden
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)
        for name, values in other.latency.items():
            self.latency[name].extend(values)
        self.mismatches.extend(other.mismatches[: max(0, 20 - len(self.mismatches))])


class Caller:
    """Replays a workload's op cycle against one stack, closed loop:
    each caller waits for its reply before sending the next request.

    The cycle position is shared by all callers and persists across
    phases, so warm-up, timed windows and count passes continue the
    same seeded sequence.
    """

    def __init__(self, inputs: Inputs, stack: Stack, connections: int = HTTP_CALLERS):
        self.ops = inputs.ops
        self.stack = stack
        self._position = itertools.count()
        #: Requests sent so far (the in-process cycle position).
        self.executed = 0
        self._conns: list[http.client.HTTPConnection] = []
        if stack.http:
            host, port = stack.http_proxy.base_url.split("//", 1)[1].split(":")  # type: ignore[union-attr]
            self._conns = [
                http.client.HTTPConnection(host, int(port), timeout=HTTP_TIMEOUT_S)
                for _ in range(connections)
            ]
        #: Replaced by the tracer to wrap each request in a root span.
        self.exchange: Callable[..., int] = _exchange
        #: When set, each HTTP request carries a per-request X-Trace-Id.
        self.tag_requests = False

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    def run(self, seconds: float | None = None, count: int | None = None,
            record: bool = True) -> Window:
        """One phase: until *seconds* have passed or *count* requests
        were sent (whichever is given)."""
        if not self.stack.http:
            window = self._run_inproc(seconds, count, record)
        else:
            window = self._run_http_callers(seconds, count, record)
        self.executed += window.attempted
        return window

    def _run_http_callers(self, seconds: float | None, count: int | None,
                          record: bool) -> Window:
        conns = self._conns
        quotas = [None] * len(conns)
        if count is not None:
            # A fixed-count pass splits its requests over the callers.
            quotas = [count // len(conns) + (i < count % len(conns)) for i in range(len(conns))]
        windows = [Window() for _ in conns]
        started = time.perf_counter_ns()
        deadline = started + int(seconds * 1e9) if seconds is not None else None
        threads = [
            threading.Thread(target=self._run_http,
                             args=(i, windows[i], deadline, quotas[i], record))
            for i in range(len(conns))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=HTTP_TIMEOUT_S * 4 + (seconds or 0))
            if thread.is_alive():
                raise RuntimeError("HTTP caller thread did not finish")
        total = Window()
        for window in windows:
            total.merge(window)
        total.elapsed_s = (time.perf_counter_ns() - started) / 1e9
        return total

    def _run_inproc(self, seconds: float | None, count: int | None, record: bool) -> Window:
        window = Window()
        ops = self.ops
        cycle = len(ops)
        submit = self.stack.proxy.submit  # type: ignore[union-attr]
        clock = time.perf_counter_ns
        lat_all = window.latency["all"]
        by_cat = window.latency
        position = self._position
        started = clock()
        deadline = started + int(seconds * 1e9) if seconds is not None else None
        remaining = count if count is not None else -1
        attempted = failed = 0
        now = started
        while remaining != 0 and (deadline is None or now < deadline):
            op = ops[next(position) % cycle]
            begin = clock()
            response = submit(op.request)
            now = clock()
            attempted += 1
            remaining -= 1
            if response.code != op.expect:
                failed += 1
                if op.expect == 403 and response.ok:
                    window.forbidden += 1
                if len(window.mismatches) < 20:
                    window.mismatches.append(
                        f"{op.verb} {op.key}: got {response.code}, oracle expects {op.expect}"
                    )
            if record:
                lat_all.append(now - begin)
                by_cat[op.category].append(now - begin)
        window.attempted = attempted
        window.failed = failed
        window.elapsed_s = (now - started) / 1e9
        return window

    def _run_http(self, index: int, window: Window, deadline: int | None,
                  quota: int | None, record: bool) -> None:
        conn = self._conns[index]
        ops = self.ops
        cycle = len(ops)
        clock = time.perf_counter_ns
        position = self._position
        exchange = self.exchange
        tag = self.tag_requests
        host, port = conn.host, conn.port
        attempted = failed = 0
        while (deadline is None or clock() < deadline) and quota != 0:
            seq = next(position)
            if quota is not None:
                quota -= 1
            op = ops[seq % cycle]
            headers = HTTP_HEADERS
            if tag:
                headers = {**HTTP_HEADERS, "X-Trace-Id": f"bench-{seq:x}"}
            begin = clock()
            try:
                status = exchange(conn, op.method, op.path, op.payload, headers)
            except (OSError, http.client.HTTPException) as err:
                status = -1
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
                self._conns[index] = conn
                if len(window.mismatches) < 20:
                    window.mismatches.append(f"{op.method} {op.path}: {type(err).__name__}: {err}")
            end = clock()
            attempted += 1
            if status != op.expect:
                failed += 1
                if op.expect == 403 and 200 <= status < 300:
                    window.forbidden += 1
                if status != -1 and len(window.mismatches) < 20:
                    window.mismatches.append(
                        f"{op.method} {op.path}: got {status}, oracle expects {op.expect}"
                    )
            if record:
                window.latency["all"].append(end - begin)
                window.latency[op.category].append(end - begin)
        window.attempted = attempted
        window.failed = failed


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              payload: bytes | None, headers: dict[str, str]) -> int:
    """One request/response on a keep-alive connection."""
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    response.read()
    return response.status


def new_stack(inputs: Inputs, work: Path, label: str) -> Stack:
    data_dir = work / label
    shutil.rmtree(data_dir, ignore_errors=True)
    return Stack(inputs, data_dir, http=inputs.workload == "reconcile-http")
