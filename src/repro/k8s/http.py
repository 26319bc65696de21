"""Real-HTTP transport for the mini API server (stdlib only).

The paper deploys mitmproxy between real HTTP clients and the K8s API
server.  For the overhead experiment we support the same topology: the
API server (and the KubeFence proxy) can be exposed over genuine TCP
sockets so round-trip-time measurements include real network and
serialization costs.

The wire protocol mirrors Kubernetes REST conventions:

- ``POST   /api/v1/namespaces/{ns}/pods``          -> create
- ``GET    /apis/apps/v1/namespaces/{ns}/deployments[/name]`` -> list/get
- ``PUT    .../{name}``                            -> update
- ``DELETE .../{name}``                            -> delete

Bodies are JSON; failures return Kubernetes ``Status`` objects.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from typing import Any, Callable
from urllib import request as urllib_request
from urllib.error import HTTPError

from repro.core.shards import shards_enabled
from repro.k8s.apiserver import APIServer, ApiRequest, ApiResponse, User
from repro.k8s.errors import ApiError
from repro.k8s.gvk import ResourceRegistry, registry as default_registry
from repro.k8s.wal import crashpoint
from repro.obs import PROFILER, TimeSeriesRing, obs_endpoint, trace

#: Worker threads in the bounded frontend pool.  A worker serves one
#: TCP connection at a time (HTTP/1.1 keep-alive loops inside
#: finish_request), so the pool bounds *concurrent connections*, not
#: in-flight requests; size it above the expected client fan-in.
HTTP_WORKERS_ENV = "REPRO_HTTP_WORKERS"
DEFAULT_HTTP_WORKERS = 32

#: Accepted connections parked while every worker is busy.  Beyond
#: this, new connections get an immediate 503 instead of silently
#: growing an unbounded queue (accept-queue backpressure).
HTTP_QUEUE_ENV = "REPRO_HTTP_QUEUE"
DEFAULT_HTTP_QUEUE = 64

#: Explicit listen(2) backlog for every frontend (kernel-side accept
#: queue, distinct from the worker pool's).
LISTEN_BACKLOG = 128


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        value = int(raw) if raw else default
    except ValueError:
        return default
    return value if value > 0 else default


def parse_rest_path(path: str, reg: ResourceRegistry) -> tuple[str, str | None, str | None]:
    """Parse a Kubernetes REST path into (kind, namespace, name).

    Raises :class:`ValueError` for unroutable paths.
    """
    parts = [p for p in path.split("/") if p]
    # /api/v1/... or /apis/{group}/{version}/...
    if not parts or parts[0] not in ("api", "apis"):
        raise ValueError(f"unroutable path: {path!r}")
    idx = 2 if parts[0] == "api" else 3
    rest = parts[idx:]
    namespace: str | None = None
    if len(rest) >= 2 and rest[0] == "namespaces":
        namespace = rest[1]
        rest = rest[2:]
    if not rest:
        raise ValueError(f"no resource in path: {path!r}")
    plural = rest[0]
    name = rest[1] if len(rest) > 1 else None
    kind = reg.by_plural(plural).kind
    return kind, namespace, name


_METHOD_VERBS = {"POST": "create", "PUT": "update", "PATCH": "patch", "DELETE": "delete"}


def rest_verb(method: str, name: str | None) -> str:
    """The API verb an HTTP method maps to (a GET is a ``get`` when it
    names an object, a ``list`` otherwise)."""
    if method == "GET":
        return "get" if name else "list"
    return _METHOD_VERBS[method]


class _QuietErrorsMixin:
    """Swallow connection-level failures instead of spraying
    tracebacks.

    Clients that time out and hang up mid-reply (the KubeFence proxy
    under a tight deadline, chaos clients, load balancers) produce
    ``BrokenPipeError``/``ConnectionResetError`` in the worker thread;
    injected faults (:mod:`repro.faults`) abort connections on
    purpose.  Those are routine under load and are swallowed here --
    genuine handler bugs still get the default traceback.
    """

    def handle_error(self, request: Any, client_address: Any) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError, BrokenPipeError)):
            return
        if isinstance(exc, OSError) and exc.errno in (9, 32, 104):  # EBADF/EPIPE/ECONNRESET
            return
        super().handle_error(request, client_address)  # type: ignore[misc]


class QuietThreadingHTTPServer(_QuietErrorsMixin, ThreadingHTTPServer):
    """The legacy unbounded thread-per-connection frontend (one daemon
    thread per accepted socket), kept as the ``REPRO_NO_SHARDS=1``
    arm and for fault-injection topologies."""

    #: Workers must not block interpreter shutdown.
    daemon_threads = True
    #: Explicit lifecycle knobs: rebind a just-closed port immediately
    #: (start/stop cycles in tests) and a deterministic accept backlog.
    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG


#: Raw saturation reply, prebuilt: sent on the accept path without a
#: handler (there is no worker to run one).  ``Connection: close`` so
#: keep-alive clients do not retry on the dead socket.
_SATURATED_BODY = (
    b'{"kind":"Status","apiVersion":"v1","status":"Failure",'
    b'"message":"server saturated: worker pool and accept queue full",'
    b'"reason":"ServerSaturated","code":503}'
)
_SATURATED_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_SATURATED_BODY)).encode() + b"\r\n"
    b"Connection: close\r\n"
    b"\r\n" + _SATURATED_BODY
)


class WorkerPoolHTTPServer(_QuietErrorsMixin, HTTPServer):
    """Bounded worker-pool frontend (the sharded data plane's default).

    ``ThreadingHTTPServer`` spawns one thread per connection with no
    ceiling: under saturation the thread count, memory, and scheduler
    load grow with offered load and latency collapses.  This frontend
    accepts on one thread and hands sockets to a **fixed pool**:

    - ``workers`` threads (``REPRO_HTTP_WORKERS``, default 32) each
      serve one connection to completion, keep-alive included;
    - a bounded hand-off queue (``REPRO_HTTP_QUEUE``, default 64)
      absorbs bursts;
    - when the queue is full the connection is answered immediately
      with a prebuilt ``503 ServerSaturated`` and closed -- explicit
      backpressure instead of silent queue growth
      (:attr:`saturation_rejects` counts these).
    """

    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(
        self,
        server_address: tuple[str, int],
        RequestHandlerClass: Any,
        workers: int | None = None,
        queue_size: int | None = None,
    ):
        super().__init__(server_address, RequestHandlerClass)
        self.workers = workers or _env_int(HTTP_WORKERS_ENV, DEFAULT_HTTP_WORKERS)
        self._queue: "queue.Queue[tuple[Any, Any] | None]" = queue.Queue(
            maxsize=queue_size or _env_int(HTTP_QUEUE_ENV, DEFAULT_HTTP_QUEUE)
        )
        self._threads: list[threading.Thread] = []
        self._pool_lock = threading.Lock()
        #: Connections refused with the prebuilt 503.
        self.saturation_rejects = 0

    def _ensure_pool(self) -> None:
        if self._threads:
            return
        with self._pool_lock:
            if self._threads:
                return
            threads = []
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"http-pool-{self.server_address[1]}-{index}",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
            self._threads = threads

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - mirror ThreadingMixIn
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def process_request(self, request: Any, client_address: Any) -> None:
        """Accept-path hand-off: enqueue or reject, never block."""
        self._ensure_pool()
        try:
            self._queue.put_nowait((request, client_address))
        except queue.Full:
            self.saturation_rejects += 1
            try:
                request.sendall(_SATURATED_RESPONSE)
            except OSError:
                pass
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._pool_lock:
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout=5)


def new_http_server(
    address: tuple[str, int],
    handler: Any,
    workers: int | None = None,
    queue_size: int | None = None,
) -> "WorkerPoolHTTPServer | QuietThreadingHTTPServer":
    """The HTTP frontend for one server: the bounded worker pool on
    the sharded data plane, thread-per-connection under
    ``REPRO_NO_SHARDS=1`` (chosen at bind time, like the decision
    cache)."""
    if not shards_enabled():
        return QuietThreadingHTTPServer(address, handler)
    return WorkerPoolHTTPServer(address, handler, workers=workers, queue_size=queue_size)


class RestHandler(BaseHTTPRequestHandler):
    """The plumbing both HTTP frontends (this API server and the
    KubeFence proxy) share: HTTP/1.1 keep-alive, the observability
    surfaces served before REST routing, and the method dispatch.
    Subclasses provide :meth:`_obs` and :meth:`_handle`."""

    #: HTTP/1.1 so pooled clients (notably the KubeFence proxy's
    #: keep-alive upstream connections) can reuse the TCP socket; every
    #: response path sends an explicit Content-Length.
    protocol_version = "HTTP/1.1"

    # Silence the default stderr request logging; access logs are not
    # discarded, though -- each frontend's log_request() routes them
    # into its metrics registry as http_requests_total{method,code}.
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        pass

    def _obs(self) -> tuple[int, str, bytes] | None:
        """This frontend's :func:`repro.obs.obs_endpoint` answer for
        ``self.path`` (None: not an observability path)."""
        raise NotImplementedError

    def _handle(self, method: str) -> None:
        raise NotImplementedError

    def _serve_obs(self, head: bool = False) -> bool:
        """Observability surfaces: /metrics, /healthz, /readyz,
        /obs/traces and friends (served before REST routing)."""
        served = self._obs()
        if served is None:
            return False
        status, content_type, body = served
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if not head:
            self.wfile.write(body)
        return True

    def do_GET(self) -> None:
        if self._serve_obs():
            return
        self._handle("GET")

    def do_HEAD(self) -> None:
        # HEAD on the observability surfaces: full headers (correct
        # Content-Length), no body.  REST paths answer 405 -- the mini
        # API has no HEAD semantics.
        if self._serve_obs(head=True):
            return
        self.send_response(405)
        self.send_header("Allow", "GET, POST, PUT, PATCH, DELETE")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_POST(self) -> None:
        self._handle("POST")

    def do_PUT(self) -> None:
        self._handle("PUT")

    def do_PATCH(self) -> None:
        self._handle("PATCH")

    def do_DELETE(self) -> None:
        self._handle("DELETE")


class _Handler(RestHandler):
    server_version = "MiniKubeApiServer/1.0"
    api: APIServer  # injected by serve()
    #: Optional :class:`repro.obs.analytics.slo.SloEngine` served at
    #: ``/obs/slo``; injected by :class:`HttpApiServer` when wired.
    slo: Any = None
    #: Optional :class:`repro.obs.refine.RefineController` served at
    #: ``/obs/refine``; injected by :class:`HttpApiServer` when wired.
    refine: Any = None
    #: Optional :class:`repro.scan.CVEScanner` served at ``/obs/scan``;
    #: injected by :class:`HttpApiServer` when wired.
    scanner: Any = None
    #: Optional :class:`repro.faults.FaultInjector` applied at the wire
    #: level (after the body drain, before routing).  ``None`` in the
    #: normal, fault-free topology.
    faults: Any = None
    #: Optional :class:`repro.obs.TimeSeriesRing` served at
    #: ``/obs/timeseries``; injected by :class:`HttpApiServer`.
    timeseries: Any = None

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        self.api.count_http_request(getattr(self, "command", "?") or "?", code)

    def _user(self) -> User:
        username = self.headers.get("X-Remote-User", "kubernetes-admin")
        groups = tuple(
            g for g in self.headers.get("X-Remote-Groups", "system:masters").split(",") if g
        )
        return User(username, groups + ("system:authenticated",))

    def _respond(self, response: ApiResponse) -> None:
        phases = self.api.phases
        started = time.perf_counter_ns() if phases.enabled else 0
        payload = json.dumps(response.body if response.body is not None else {}).encode()
        self.send_response(response.code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        if started:
            phases.serialization(time.perf_counter_ns() - started)

    def _obs(self) -> tuple[int, str, bytes] | None:
        bus = getattr(self.api, "event_bus", None)
        return obs_endpoint(
            self.path,
            self.api.metrics,
            component="mini-apiserver",
            ready_checks={"store": lambda: self.api.store is not None},
            event_bus=bus if (bus is not None and bus.enabled) else None,
            slo=self.slo,
            refine=self.refine,
            scanner=self.scanner,
            profiler=PROFILER,
            timeseries=self.timeseries,
            accept=self.headers.get("Accept", ""),
        )

    def _handle(self, method: str) -> None:
        # Wall-clock denominator for the phase breakdown
        # (kubefence_request_wall_ns_total): stamped here, at HTTP
        # ingress, so the serialization shares recorded below are
        # inside the total.
        phases = self.api.phases
        if not phases.enabled:
            self._handle_timed(method)
            return
        wall_started = time.perf_counter_ns()
        self._handle_timed(method)
        phases.wall(time.perf_counter_ns() - wall_started)

    def _handle_timed(self, method: str) -> None:
        # Drain the request body before any early reply: with HTTP/1.1
        # keep-alive, unread body bytes would corrupt the next request
        # on the same connection.  The drain is wire deserialization --
        # it counts toward the serialization phase share.
        phases = self.api.phases
        attributed = phases.enabled
        drain_started = time.perf_counter_ns() if attributed else 0
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        # `mark` threads through the method: everything between the
        # stamped regions (fault checks, REST-path routing, ApiRequest
        # construction with identity extraction) is attributed to authn
        # so the coverage denominator holds >=90% on validated writes.
        mark = time.perf_counter_ns() if attributed else 0
        if attributed and raw:
            phases.serialization(mark - drain_started)

        # Wire-level chaos: the injector may 5xx, stall, truncate, or
        # RST this request.  It runs after the body drain (keep-alive
        # hygiene) and never touches the observability surfaces, so
        # /metrics stays scrapeable mid-scenario.
        faults = self.faults
        if faults is not None and faults.apply_http(self):
            return

        try:
            kind, namespace, name = parse_rest_path(self.path, self.api.registry)
        except (ValueError, KeyError) as exc:
            payload = json.dumps(
                {"kind": "Status", "status": "Failure", "message": str(exc), "code": 404}
            ).encode()
            self.send_response(404)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return

        body: dict | None = None
        if raw:
            parse_started = time.perf_counter_ns() if attributed else 0
            if attributed:
                phases.authn(parse_started - mark)
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError):
                self._respond(
                    ApiResponse.from_error(
                        ApiError.bad_request("request body is not valid JSON")
                    )
                )
                return
            if parse_started:
                mark = time.perf_counter_ns()
                phases.serialization(mark - parse_started)

        verb = rest_verb(method, name)
        request = ApiRequest(
            verb=verb,
            kind=kind,
            user=self._user(),
            namespace=namespace or "default",
            name=name,
            body=body,
            source_ip=self.client_address[0],
        )
        if attributed:
            now = time.perf_counter_ns()
            phases.authn(now - mark)
            mark = now
        # Join the caller's trace when the KubeFence proxy forwarded an
        # X-Trace-Id, so the audit event correlates with the proxy-side
        # trace; otherwise open a fresh server-side trace.
        incoming = self.headers.get("X-Trace-Id") or None
        with trace("apiserver.request", trace_id=incoming):
            response = self.api.handle(request)
        if attributed:
            # Everything in this bracket outside handle()'s own span is
            # tracer bookkeeping (trace open, span record under the
            # buffer lock) -- telemetry, and the largest unstamped gap
            # on the server path when a scrape holds that lock.
            phases.telemetry(
                time.perf_counter_ns() - mark
                - getattr(response, "handle_ns", 0)
            )
        self._respond(response)
        # Commit point 3: the response bytes for a successful write are
        # on the socket (wfile is unbuffered) — the client will observe
        # this write as acknowledged.  No-op outside the chaos child.
        if response.ok and verb in ("create", "update", "patch", "delete"):
            crashpoint("post-ack")


class HttpApiServer:
    """Serve an :class:`APIServer` over a real TCP socket."""

    def __init__(self, api: APIServer, host: str = "127.0.0.1", port: int = 0,
                 fault_injector: Any | None = None, slo: Any | None = None,
                 refine: Any | None = None, scanner: Any | None = None,
                 workers: int | None = None, queue_size: int | None = None):
        #: in-process metrics ring (served at /obs/timeseries, the
        #: ``repro top`` data source); ticking starts with the server.
        self.timeseries = TimeSeriesRing(api.metrics)
        handler = type(
            "BoundHandler", (_Handler,),
            {"api": api, "faults": fault_injector, "slo": slo,
             "refine": refine, "scanner": scanner,
             "timeseries": self.timeseries},
        )
        self._httpd = new_http_server(
            (host, port), handler, workers=workers, queue_size=queue_size
        )
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HttpApiServer":
        # Refcounted: the profiler thread is shared process-wide and
        # stops with the last component that acquired it.
        PROFILER.acquire()
        self.timeseries.start()
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                raise RuntimeError(
                    "HttpApiServer serve thread failed to stop within 5s"
                )
            self._thread = None
            self.timeseries.stop()
            PROFILER.release()

    def __enter__(self) -> "HttpApiServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class HttpClient:
    """A minimal kubectl-like HTTP client for the mini API."""

    def __init__(self, base_url: str, username: str = "kubernetes-admin",
                 groups: tuple[str, ...] = ("system:masters",),
                 reg: ResourceRegistry | None = None):
        self.base_url = base_url.rstrip("/")
        self.username = username
        self.groups = groups
        self.registry = reg if reg is not None else default_registry

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, Any]:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib_request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={
                "Content-Type": "application/json",
                "X-Remote-User": self.username,
                "X-Remote-Groups": ",".join(self.groups),
            },
        )
        try:
            with urllib_request.urlopen(req) as resp:
                return resp.status, json.loads(resp.read() or b"{}")
        except HTTPError as err:
            return err.code, json.loads(err.read() or b"{}")

    def create(self, manifest: dict) -> tuple[int, Any]:
        kind = manifest.get("kind", "")
        rt = self.registry.by_kind(kind)
        ns = manifest.get("metadata", {}).get("namespace", "default")
        return self._request("POST", rt.url_path(ns if rt.namespaced else None), manifest)

    def apply(self, manifest: dict) -> tuple[int, Any]:
        """create-or-update, like ``kubectl apply``."""
        kind = manifest.get("kind", "")
        rt = self.registry.by_kind(kind)
        meta = manifest.get("metadata", {})
        ns = meta.get("namespace", "default")
        name = meta.get("name", "")
        status, body = self._request(
            "GET", rt.url_path(ns if rt.namespaced else None, name)
        )
        if status == 200:
            return self._request(
                "PUT", rt.url_path(ns if rt.namespaced else None, name), manifest
            )
        return self._request(
            "POST", rt.url_path(ns if rt.namespaced else None), manifest
        )

    def get(self, kind: str, name: str, namespace: str = "default") -> tuple[int, Any]:
        rt = self.registry.by_kind(kind)
        return self._request("GET", rt.url_path(namespace if rt.namespaced else None, name))

    def delete(self, kind: str, name: str, namespace: str = "default") -> tuple[int, Any]:
        rt = self.registry.by_kind(kind)
        return self._request(
            "DELETE", rt.url_path(namespace if rt.namespaced else None, name)
        )
