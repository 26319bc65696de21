"""Span recording around the program's public entry points.

The benchmark instruments the program from its own files: it swaps a
timing wrapper in for a method on one object (or, for the HTTP handler
classes, ``K8sObject.copy`` and the stdlib ``http.client`` calls, on a
class) and restores the original on :meth:`Instrumentation.remove`.
Each span records its name, start, end, parent span and the thread CPU
time it used (HTTP frontends and the upstream hop only); a layer's self
time is its duration minus its children's.  HTTP spans also carry the
request's ``X-Trace-Id``, which the proxy forwards upstream, so the
spans of one request share an id across threads.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import repro.k8s.store as store_module
from repro.k8s.objects import K8sObject
from repro.k8s.wal import encode_record

#: Span tuple fields, in order.  A span's tag is ``id * 64 + name
#: code``, so the innermost open span's name is known from the tag
#: alone; ``parent`` is the enclosing span's tag (0 for a root).
FIELDS = ("tag", "start_ns", "end_ns", "parent", "cpu_ns")
_CODE_BITS = 6


class Tracer:
    """Per-thread span stacks feeding one in-memory span list.

    Spans are tuples of ints, which the garbage collector stops
    tracking after its first pass, so a growing trace does not make
    every collection slower.  Self time is derived in :func:`aggregate`
    from the parent links instead of being accumulated per call, which
    keeps the wrapper small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        #: Request id (X-Trace-Id) by span tag, for spans that carry one.
        self.keys: dict[int, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1 << _CODE_BITS, 1 << _CODE_BITS)
        #: One entry per decision-cache hit, per ``os.fsync`` call and
        #: per WAL frame's byte size (list appends are atomic, so HTTP
        #: worker threads may record concurrently).
        self.cache_hits: list[None] = []
        self.fsyncs: list[None] = []
        self.wal_bytes: list[int] = []

    def name_of(self, tag: int) -> str:
        return self.names[tag & ((1 << _CODE_BITS) - 1)]

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, name: str, fn: Callable, cpu: bool = False,
             key: Callable[[tuple], Any] | None = None,
             under: str | None = None) -> Callable:
        """A timing wrapper for *fn*.  ``cpu`` also reads thread CPU
        time; ``key`` extracts a request id from the call's arguments;
        ``under`` records only when the innermost open span has that
        name (the call passes through untimed otherwise)."""
        code = self._code(name)
        under_code = self._code(under) if under is not None else -1
        mask = (1 << _CODE_BITS) - 1
        local = self._local
        new_stack = self._stack
        ids = self._ids
        record = self.spans.append
        keys = self.keys
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = new_stack()
            parent = stack[-1] if stack else 0
            if under is not None and parent & mask != under_code:
                return fn(*args, **kwargs)
            tag = next(ids) + code
            stack.append(tag)
            cpu0 = cpu_clock() if cpu else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((tag, start, end, parent, cpu_clock() - cpu0 if cpu else 0))
                if key is not None:
                    keys[tag] = key(args)

        return traced

    def dump(self, path: Path, limit: int) -> int:
        """Write the first *limit* spans as JSON lines; returns the
        number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans[:limit]
        with open(path, "w") as out:
            for tag, start, end, parent, cpu_ns in spans:
                out.write(json.dumps({
                    "id": tag, "name": self.name_of(tag), "start_ns": start,
                    "end_ns": end, "parent": parent, "cpu_ns": cpu_ns,
                    "key": self.keys.get(tag),
                }) + "\n")
        return len(spans)


def aggregate(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, and total wall, self and CPU ns (self =
    duration minus the durations of the span's direct children)."""
    covered: dict[int, int] = defaultdict(int)
    for _tag, start, end, parent, _cpu in tracer.spans:
        if parent:
            covered[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "wall_ns": 0, "self_ns": 0, "cpu_ns": 0}
    )
    for tag, start, end, _parent, cpu_ns in tracer.spans:
        entry = totals[tracer.name_of(tag)]
        entry["calls"] += 1
        entry["wall_ns"] += end - start
        entry["self_ns"] += end - start - covered.get(tag, 0)
        entry["cpu_ns"] += cpu_ns
    return dict(totals)


def _header_key(args: tuple) -> Any:
    return args[0].headers.get("X-Trace-Id")


def _client_key(args: tuple) -> Any:
    return args[4].get("X-Trace-Id")


class Instrumentation:
    """Installs the tracer's wrappers on one stack; :meth:`remove`
    puts every original back."""

    def __init__(self, tracer: Tracer, stack: Any, caller: Any, count_bytes: bool = False):
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any, bool]] = []
        wrap = tracer.wrap
        front = stack.front
        gate = front.gate

        if stack.http:
            self._patch(caller, "exchange",
                        wrap("client.request", caller.exchange, key=_client_key))
            self._patch(caller, "tag_requests", True)
            for handler, name in (
                (stack.http_proxy._httpd.RequestHandlerClass, "proxy.http"),
                (stack.server._httpd.RequestHandlerClass, "apiserver.http"),
            ):
                for method in ("do_GET", "do_PUT", "do_POST", "do_DELETE"):
                    self._patch(handler, method,
                                wrap(name, getattr(handler, method), cpu=True, key=_header_key))
            for cls, method in ((http.client.HTTPConnection, "request"),
                                (http.client.HTTPConnection, "getresponse"),
                                (http.client.HTTPResponse, "read")):
                self._patch(cls, method, wrap("proxy.upstream", getattr(cls, method),
                                              cpu=True, under="proxy.http"))
        else:
            self._patch(front, "submit", wrap("proxy.submit", front.submit))

        self._patch(gate, "check", wrap("gate.check", gate.check))
        if gate.cache is not None:
            cache_get = wrap("cache.get", gate.cache.get)

            def counted_get(key: Any, revision: Any) -> Any:
                result = cache_get(key, revision)
                if result is not None:
                    tracer.cache_hits.append(None)
                return result

            self._patch(gate.cache, "get", counted_get)

        validator = stack.validator
        engine = validator.compiled()
        traced_engine = _Engine(engine, wrap("validator.validate", engine.validate))
        self._patch(validator, "compiled", lambda: traced_engine)

        api = stack.api
        self._patch(api, "handle", wrap("apiserver.handle", api.handle))
        store = stack.store
        for method in ("create", "update", "delete"):
            self._patch(store, method, wrap("store.write", getattr(store, method)))
        self._patch(store, "get", wrap("store.read", store.get))
        self._patch(K8sObject, "copy", wrap("object.copy", K8sObject.copy))

        wal = store.wal
        if wal is not None:
            wal_append = wrap("wal.append", wal.append)
            if count_bytes:
                def sized_append(record: dict) -> None:
                    wal_append(record)
                    tracer.wal_bytes.append(len(encode_record(record)))

                self._patch(wal, "append", sized_append)
            else:
                self._patch(wal, "append", wal_append)
            self._patch(wal, "reset", wrap("store.compact", wal.reset))
        self._patch(store_module, "write_snapshot",
                    wrap("store.compact", store_module.write_snapshot))
        fsync = os.fsync

        def counted_fsync(fd: int) -> None:
            tracer.fsyncs.append(None)
            fsync(fd)

        self._patch(os, "fsync", counted_fsync)

        self._patch(api.audit_log, "record", wrap("audit.record", api.audit_log.record))
        for bus in {id(api.event_bus): api.event_bus, id(front.events): front.events}.values():
            if getattr(bus, "enabled", False):
                self._patch(bus, "publish", wrap("events.publish", bus.publish))

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        own = vars(owner)
        self._undo.append((owner, name, own.get(name), name in own))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        for owner, name, original, own in reversed(self._undo):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()


class _Engine:
    """The compiled engine with its ``validate`` traced."""

    def __init__(self, engine: Any, validate: Callable):
        self._engine = engine
        self.validate = validate

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)
