"""The KubeFence enforcement proxy (Sec. V-B).

Deployed between clients and the API server (mitmproxy in the paper's
testbed), the proxy intercepts every API request, validates write
payloads against the workload's validator, and either forwards the
request or answers with an HTTP 403 containing the offending fields.
Denials are logged with the field and reason for auditing and
forensics.

Complete mediation: in the paper the API server only accepts
certificate-authenticated connections from the proxy.  Here the proxy
*is* the only transport handed to clients in the protected
configuration, which yields the same property in-process; the HTTP
deployment (:mod:`repro.k8s.http` + :class:`HttpKubeFenceProxy`)
reproduces the real network topology.  Both transports run one
decision path, :meth:`EnforcementCore.mediate`: the in-process
:class:`KubeFenceProxy` hands it ``APIServer.handle`` as the upstream,
the HTTP proxy a pooled keep-alive call, so verdicts, 403 bodies,
denial records and decision events cannot differ between them.

Performance: validation runs on the compiled engine
(:mod:`repro.core.compiled`) and sits behind a per-proxy
:class:`~repro.core.compiled.DecisionCache` -- a bounded LRU keyed on a
canonical hash of the write body, invalidated whenever the bound
validator (or its :attr:`policy_revision`) changes.  Controllers that
resubmit identical manifests (the reconcile-loop steady state) skip
validation entirely.

Observability: every request runs under a :mod:`repro.obs` trace
(spans ``proxy.validate``, ``cache.lookup``, ``engine.match`` here;
``admission.chain``/``store.commit`` downstream in the API server), and
:class:`ProxyStats` is a thin façade over a per-proxy
:class:`~repro.obs.MetricsRegistry` -- the HTTP proxy serves it at
``GET /metrics`` in Prometheus text format.  Denials are labeled by
``operator``/``kind``/``reason`` so Table III mitigation runs can be
read straight off a scrape.  ``REPRO_NO_OBS=1`` disables the layer.

Resilience: the upstream hop runs under the :mod:`repro.resilience`
guard -- retry with decorrelated-jitter backoff, a per-request
deadline, and a circuit breaker.  When the upstream is unavailable the
proxy degrades **fail-closed** (refuse with 503) or, optionally,
**fail-static** (serve recent cached reads only); a would-be denial is
never converted into an allow, because the validation gate runs
locally before any forwarding.  Every retry, breaker transition, and
degraded answer is a ``kubefence_*`` metric; the chaos harness
(:mod:`repro.faults`, ``repro chaos``) exercises all of it
deterministically.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence
from urllib.parse import urlsplit

from repro.core.compiled import DecisionCache, canonical_body_key
from repro.core.enforcement import ValidationResult, Validator
from repro.core.shards import (
    ShardedDecisionCache,
    fast_body_key,
    new_decision_cache,
    shards_enabled,
)
from repro.k8s.apiserver import APIServer, ApiRequest, ApiResponse, User
from repro.k8s.errors import ApiError
from repro.k8s.gvk import registry as default_registry
from repro.k8s.http import RestHandler, new_http_server, parse_rest_path, rest_verb
from repro.obs import (
    PROFILER,
    TimeSeriesRing,
    current_trace_id,
    new_phase_clock,
    new_registry,
    obs_endpoint,
    span,
    trace,
)
from repro.obs.analytics.events import SecurityEvent, new_event_bus
from repro.obs.refine.profiler import manifest_field_sample
from repro.yamlutil import deep_copy
from repro.resilience import (
    BREAKER_STATE_CODES,
    CircuitOpenError,
    DEFAULT_RESILIENCE,
    DeadlineExceeded,
    RETRYABLE_STATUS_CODES,
    ResilienceConfig,
    StaleReadCache,
    UpstreamGuard,
    UpstreamUnavailable,
    stale_read_key,
)

#: Verbs whose payload is validated.
_WRITE_VERBS = frozenset({"create", "update", "patch"})

#: HTTP methods safe to re-execute after a transport error.  A reset
#: or truncated read mid-write leaves it unknown whether the upstream
#: already applied the request, so non-idempotent methods only retry
#: on failure *results* (5xx responses, which imply non-processing) --
#: see HttpKubeFenceProxy's upstream_call.
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})

#: HTTP methods whose body the proxy parses (and, as writes, validates).
_BODY_METHODS = frozenset({"POST", "PUT", "PATCH"})

#: Default decision-cache capacity (entries, i.e. distinct bodies).
DEFAULT_DECISION_CACHE_SIZE = 1024

#: Denial records a front retains, newest kept; older records are
#: dropped and counted in ``kubefence_denials_dropped_total``.
DENIAL_LOG_SIZE = 1024


@dataclass(frozen=True)
class DenialRecord:
    """One blocked request, for auditing and forensic analysis."""

    username: str
    verb: str
    kind: str
    name: str
    violations: tuple[str, ...]


#: (substring of the first violation's reason, bounded metric label).
_DENIAL_REASONS: tuple[tuple[str, str], ...] = (
    ("not used by this workload", "kind-not-used"),
    ("missing kind", "missing-kind"),
    ("exceeds maximum depth", "depth-limit"),
    ("field not allowed", "field-not-allowed"),
    ("no allowed configuration matches", "list-entry-mismatch"),
    ("required by security policy", "security-lock"),
    ("expected an object", "shape-mismatch"),
    ("no policy bound", "unbound-identity"),
)


def denial_reason(violations: Iterable[Any]) -> str:
    """Map free-text violations to a *bounded* reason label (the
    metrics cardinality guard requires a closed set)."""
    for violation in violations:
        text = str(getattr(violation, "reason", violation))
        for needle, label in _DENIAL_REASONS:
            if needle in text:
                return label
        return "value-not-allowed"
    return "other"


class ProxyStats:
    """Runtime counters (overhead analysis, Table IV).

    Since the observability layer landed this is a thin façade over a
    per-proxy :class:`~repro.obs.MetricsRegistry`: every counter the
    old dataclass carried is now a named metric (``kubefence_*``)
    scrapeable from ``/metrics``, while the attribute API
    (``stats.cache_hits`` etc.) is preserved for callers.  Gate latency
    is recorded once, into a labeled Prometheus histogram
    (``kubefence_validation_latency_ns{outcome="hit"|"miss"}``); the
    percentiles below are its bucket-interpolated quantiles.

    Cache **hits** record their (cheap) lookup latency as their own
    sample instead of being silently dropped -- otherwise the Table IV
    mean-latency math over ``requests_validated`` would be skewed
    toward the miss cost.
    """

    def __init__(self, registry: Any | None = None):
        reg = registry if registry is not None else new_registry()
        self.registry = reg
        # Sharded data plane: hot instruments write through lock-free
        # per-thread cells (folded at scrape time); REPRO_NO_SHARDS=1
        # keeps every write under the registry lock as before.
        self._sharded = shards_enabled()
        requests = reg.counter(
            "kubefence_requests_total", "API requests intercepted by the proxy."
        )
        self._requests = self._bind(requests)
        validated = reg.counter(
            "kubefence_requests_validated_total",
            "Write requests whose body was checked against the policy.",
        )
        self._validated = self._bind(validated)
        self._denied = reg.counter(
            "kubefence_requests_denied_total", "Requests blocked by the policy."
        )
        self._denials = reg.counter(
            "kubefence_denials_total",
            "Denials by workload operator, resource kind, and reason category.",
            labels=("operator", "kind", "reason"),
            max_series=256,
        )
        self._denials_dropped = reg.counter(
            "kubefence_denials_dropped_total",
            "Denial records evicted from the bounded denial log.",
        )
        self._cache_hits = self._bind(reg.counter(
            "kubefence_cache_hits_total", "Decision-cache hits (validation skipped)."
        ))
        self._cache_misses = self._bind(reg.counter(
            "kubefence_cache_misses_total", "Decision-cache misses."
        ))
        self._conn_opened = reg.counter(
            "kubefence_connections_opened_total",
            "Upstream keep-alive connections opened (HTTP proxy).",
        )
        self._conn_reused = reg.counter(
            "kubefence_connections_reused_total",
            "Upstream keep-alive connection reuses (HTTP proxy).",
        )
        # -- resilience layer (docs/RESILIENCE.md) -------------------------
        self._retries = reg.counter(
            "kubefence_retries_total",
            "Upstream retries performed by the resilience layer.",
        )
        self._breaker_state = reg.gauge(
            "kubefence_breaker_state",
            "Upstream circuit-breaker state (0=closed, 1=open, 2=half-open).",
        )
        self._breaker_transitions = reg.counter(
            "kubefence_breaker_transitions_total",
            "Circuit-breaker transitions, by target state.",
            labels=("state",),
        )
        self._degraded = reg.counter(
            "kubefence_degraded_requests_total",
            "Requests answered in degraded mode while the upstream was "
            "unavailable, by outcome (refused = fail-closed 503, "
            "stale-read = fail-static cached GET).",
            labels=("mode",),
        )
        self._upstream_errors = reg.counter(
            "kubefence_upstream_errors_total",
            "Upstream failures observed by the forwarding path, by kind.",
            labels=("kind",),
            max_series=16,
        )
        self._latency = reg.histogram(
            "kubefence_validation_latency_ns",
            "Validation-gate latency per write request, by cache outcome.",
            labels=("outcome",),
        )
        # Pre-bound hot series: labels() resolution off the request path.
        self._latency_hit = self._bind(self._latency, outcome="hit")
        self._latency_miss = self._bind(self._latency, outcome="miss")
        self._http = reg.counter(
            "http_requests_total",
            "HTTP requests served, by method and status code.",
            labels=("method", "code"),
            max_series=128,
        )
        self._http_bound: dict[tuple[str, str], Any] = {}
        self._denial_bound: dict[tuple[str, str, str], Any] = {}
        # Per-request phase attribution (kubefence_phase_ns_total):
        # a bound-``inc`` per phase, the null clock when telemetry is
        # off (phases.enabled gates any extra clock reads).
        self.phases = new_phase_clock(reg, sharded=self._sharded)
        # Hot-path shortcut: these run unconditionally on every
        # request, so skip the wrapper frame (see comment above
        # the def-forms).
        self.count_request = self._requests.inc
        self.count_validated = self._validated.inc

    def _bind(self, metric: Any, **labels: str) -> Any:
        """A write handle for one series: lock-free per-thread cells on
        the sharded data plane (:meth:`_Metric.local`), the classic
        pre-bound locked series under ``REPRO_NO_SHARDS=1``."""
        if self._sharded:
            return metric.local(**labels)
        return metric.labels(**labels) if labels else metric

    # -- mutation (proxy internals only) -----------------------------------
    # The unconditional once-per-request counters are rebound to the
    # write handle's own ``inc`` at the end of __init__ (one call
    # frame less on the hot path); the def-forms below keep the
    # methods documented and are what subclasses would override.

    def count_request(self) -> None:
        self._requests.inc()

    def count_validated(self) -> None:
        self._validated.inc()

    def count_denial(self, operator: str, kind: str, reason: str) -> None:
        self._denied.inc()
        # Precomputed {operator,kind,reason} handles: repeat denials
        # (the interesting, attack-shaped case) skip labels() parsing
        # and -- on the sharded plane -- the registry lock entirely.
        key = (operator or "?", kind or "?", reason or "other")
        bound = self._denial_bound.get(key)
        if bound is None:
            bound = self._bind(
                self._denials, operator=key[0], kind=key[1], reason=key[2]
            )
            self._denial_bound[key] = bound
        bound.inc()

    def count_denial_dropped(self) -> None:
        self._denials_dropped.inc()

    def count_cache(self, hit: bool) -> None:
        (self._cache_hits if hit else self._cache_misses).inc()

    def count_connection(self, reused: bool) -> None:
        (self._conn_reused if reused else self._conn_opened).inc()

    def count_retry(self) -> None:
        self._retries.inc()

    def count_degraded(self, mode: str) -> None:
        self._degraded.labels(mode=mode).inc()

    def count_upstream_error(self, kind: str) -> None:
        self._upstream_errors.labels(kind=kind).inc()

    def record_breaker_transition(self, new_state: str) -> None:
        self._breaker_state.set(BREAKER_STATE_CODES.get(new_state, -1))
        self._breaker_transitions.labels(state=new_state).inc()

    def count_http_request(self, method: str, code: Any) -> None:
        key = (str(method or "?"), str(getattr(code, "value", code)))
        bound = self._http_bound.get(key)
        if bound is None:
            bound = self._bind(self._http, method=key[0], code=key[1])
            self._http_bound[key] = bound
        bound.inc()

    def record_validation_ns(self, elapsed_ns: int, cache_hit: bool = False) -> None:
        # Phase attribution rides the clock reads the gate already
        # takes: a cache hit's whole cost is the probe, a miss's is
        # the compiled validation (its probe share, when a cache is
        # bound, is stamped separately by ValidationGate.check).
        if cache_hit:
            self.phases.cache_probe(elapsed_ns)
            self._latency_hit.observe(elapsed_ns)
        else:
            self.phases.validation(elapsed_ns)
            self._latency_miss.observe(elapsed_ns)

    # -- read API (unchanged names) ----------------------------------------

    @property
    def requests_total(self) -> int:
        return int(self._requests.value)

    @property
    def requests_validated(self) -> int:
        return int(self._validated.value)

    @property
    def requests_denied(self) -> int:
        return int(self._denied.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._cache_misses.value)

    @property
    def connections_opened(self) -> int:
        return int(self._conn_opened.value)

    @property
    def connections_reused(self) -> int:
        return int(self._conn_reused.value)

    @property
    def retries_total(self) -> int:
        return int(self._retries.value)

    @property
    def denials_dropped(self) -> int:
        return int(self._denials_dropped.value)

    @property
    def degraded_total(self) -> int:
        snapshot_into = getattr(self._degraded, "snapshot_into", None)
        if snapshot_into is None:  # REPRO_NO_OBS null instrument
            return 0
        snapshot: dict[str, float] = {}
        snapshot_into(snapshot)
        return int(sum(snapshot.values()))

    @property
    def validation_seconds(self) -> float:
        """Total wall time spent in the validation gate (hits + misses)."""
        return (self._latency_hit.sum + self._latency_miss.sum) / 1e9

    @property
    def validation_ns_mean(self) -> float:
        """Mean gate latency over *all* validated requests -- hits
        contribute their lookup cost, so this is the honest Table IV
        mean rather than the miss-only figure."""
        hit, miss = self._latency_hit, self._latency_miss
        observed = hit.count + miss.count
        return (hit.sum + miss.sum) / observed if observed else 0.0

    @property
    def validation_ns_p50(self) -> float:
        """Median full-validation (cache-miss) latency."""
        return self._latency_miss.quantile(0.50)

    @property
    def validation_ns_p99(self) -> float:
        return self._latency_miss.quantile(0.99)

    @property
    def cache_hit_ns_p50(self) -> float:
        return self._latency_hit.quantile(0.50)

    @property
    def cache_hit_rate(self) -> float:
        probed = self.cache_hits + self.cache_misses
        return self.cache_hits / probed if probed else 0.0

    # -- windows and aggregation -------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat ``{series: value}`` view; diff two snapshots with
        :func:`repro.obs.delta` to measure a window instead of
        absolute counters."""
        return self.registry.snapshot()

    def reset(self) -> None:
        """Zero every counter and histogram."""
        self.registry.reset()

    def merge(self, other: "ProxyStats") -> None:
        """Fold *other*'s counters into this instance (aggregation
        across repetitions/proxies for the overhead tables)."""
        self.registry.merge_from(other.registry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProxyStats(requests_total={self.requests_total}, "
            f"requests_validated={self.requests_validated}, "
            f"requests_denied={self.requests_denied}, "
            f"cache_hits={self.cache_hits}, cache_misses={self.cache_misses})"
        )


def upstream_failure_kind(failure: Any) -> str:
    """Bounded ``kind`` label for an upstream failure observation --
    either a transport exception or a retryable 5xx result (the
    metrics cardinality guard requires a closed set)."""
    if not isinstance(failure, BaseException):
        return "5xx"  # a retryable-status response object/tuple
    if isinstance(failure, http.client.IncompleteRead):
        return "partial-response"
    if isinstance(failure, TimeoutError):
        return "timeout"
    if isinstance(failure, ConnectionResetError):
        return "connection-reset"
    if isinstance(failure, ConnectionError):
        return "connection"
    if isinstance(failure, http.client.HTTPException):
        return "protocol"
    if isinstance(failure, OSError):
        return "os-error"
    return "other"


def _failed_upstream(response: ApiResponse) -> bool:
    """A retryable upstream *result* (5xx implying non-processing)."""
    return response.code in RETRYABLE_STATUS_CODES


def _object_name(request: ApiRequest) -> str:
    """The name a verdict is filed under: the write body's, else the
    addressed object's."""
    body = request.body
    name = body.get("metadata", {}).get("name", "") if isinstance(body, dict) else ""
    return name or request.name or ""


class ValidationGate:
    """Validate-with-cache, shared by both proxy transports.

    Owns the engine choice (``auto`` follows ``Validator.validate``'s
    compiled-by-default behavior, ``compiled``/``interpreted`` force
    one engine -- the benchmark harness uses the forced modes) and the
    decision cache with its revision-aware invalidation.
    """

    def __init__(
        self,
        validator: Validator,
        stats: ProxyStats,
        cache_size: int = DEFAULT_DECISION_CACHE_SIZE,
        engine: str = "auto",
    ):
        if engine not in ("auto", "compiled", "interpreted"):
            raise ValueError(f"unknown validation engine {engine!r}")
        self.stats = stats
        self.engine = engine
        # Sharded by default (lock-free read fast path, per-shard write
        # locks); REPRO_NO_SHARDS=1 selects the legacy single cache.
        self.cache: ShardedDecisionCache | DecisionCache | None = (
            new_decision_cache(cache_size) if cache_size else None
        )
        # The sharded cache fingerprints bodies with marshal (C-speed,
        # order-sensitive, collision-free); the legacy cache keeps its
        # canonical-JSON key byte-for-byte.
        self._body_key = (
            fast_body_key
            if isinstance(self.cache, ShardedDecisionCache)
            else canonical_body_key
        )
        self.validator = validator
        self._bind(validator)

    def _bind(self, validator: Validator) -> None:
        self.validator = validator
        if self.engine == "compiled":
            self._validate = validator.compiled().validate
        elif self.engine == "interpreted":
            self._validate = validator.validate_interpreted
        else:
            self._validate = validator.validate

    def install(self, validator: Validator) -> None:
        """Swap in a new policy; all cached decisions are dropped."""
        self._bind(validator)
        if self.cache is not None:
            self.cache.clear()

    def _revision(self) -> tuple[int, int]:
        return (id(self.validator), self.validator.policy_revision)

    def check(self, body: dict[str, Any]) -> ValidationResult:
        """Validate *body*, consulting the decision cache first.

        Every validated request records a latency sample: cache hits
        record their lookup cost (``outcome="hit"``), misses the full
        engine walk (``outcome="miss"``) -- so mean-latency math over
        ``requests_validated`` is not skewed toward the miss cost.
        """
        stats = self.stats
        stats.count_validated()
        cache = self.cache
        key = None
        if cache is not None:
            lookup_started = time.perf_counter_ns()
            with span("cache.lookup"):
                key = self._body_key(body)
                cached = (
                    cache.get(key, self._revision()) if key is not None else None
                )
            if cached is not None:
                stats.count_cache(hit=True)
                stats.record_validation_ns(
                    time.perf_counter_ns() - lookup_started, cache_hit=True
                )
                return cached
            if key is not None:
                stats.count_cache(hit=False)
        started = time.perf_counter_ns()
        if cache is not None:
            # The probed-miss path already holds both clock reads; the
            # probe share costs one subtraction, not a new clock read.
            stats.phases.cache_probe(started - lookup_started)
        with span("engine.match"):
            result = self._validate(body)
        stats.record_validation_ns(time.perf_counter_ns() - started)
        if key is not None and cache is not None:
            cache.put(key, result, self._revision())
        return result


class _Front:
    """What every enforcement front shares: its counters, the
    security-event stream, the bounded denial log, and the one place a
    verdict leaves the proxy (the 403 ``Status`` contract and the
    decision event)."""

    def __init__(self, event_bus: Any | None):
        self.stats = ProxyStats()
        #: security-analytics stream; NULL under REPRO_NO_OBS=1 (the
        #: ``enabled`` probe keeps event construction off the fast path).
        self.events = event_bus if event_bus is not None else new_event_bus()
        #: when True, published allow decisions carry their manifest
        #: field sample in detail["fields"]/["values"] (profiler food;
        #: off by default so the extraction cost stays off the hot path).
        self.observe_fields = False
        self._denial_log: deque[DenialRecord] = deque(maxlen=DENIAL_LOG_SIZE)
        #: HTTP workers deny concurrently; the full-check and the append
        #: must be one step for the dropped count to be exact.
        self._denial_lock = threading.Lock()

    @property
    def denials(self) -> deque[DenialRecord]:
        """The newest :data:`DENIAL_LOG_SIZE` denials, oldest first."""
        return self._denial_log

    def deny(
        self,
        request: ApiRequest,
        violations: Sequence[Any],
        summary: str,
        operator: str,
        started: int = 0,
    ) -> ApiResponse:
        """Refuse *request*: count the denial, log a
        :class:`DenialRecord`, answer 403 with the offending fields in
        ``details.violations``, and publish the verdict."""
        texts = [str(v) for v in violations]
        reason = denial_reason(violations)
        name = _object_name(request)
        stats = self.stats
        stats.count_denial(operator=operator, kind=request.kind, reason=reason)
        record = DenialRecord(
            username=request.user.username,
            verb=request.verb,
            kind=request.kind,
            name=name,
            violations=tuple(texts),
        )
        log = self._denial_log
        with self._denial_lock:
            if len(log) == log.maxlen:
                stats.count_denial_dropped()
            log.append(record)
        workload = f" for workload {operator!r}" if operator else ""
        response = ApiResponse.from_error(ApiError.forbidden(
            f"KubeFence policy denied {request.verb} of "
            f"{request.kind}/{name}{workload}: {summary}",
            violations=texts,
        ))
        if self.events.enabled:
            self._publish_decision(
                request, "deny", 403, started,
                {"reason": reason, "violations": list(texts)},
            )
        return response

    def _publish_decision(
        self,
        request: ApiRequest,
        outcome: str,
        code: int,
        started: int = 0,
        detail: dict[str, Any] | None = None,
    ) -> None:
        """One enforcement verdict onto the security-event stream.
        Routine allows are head-sampled (REPRO_EVENT_SAMPLE); anything
        security-relevant always publishes."""
        bus = self.events
        if outcome == "allow" and not bus.sampled():
            return
        phases = self.stats.phases
        stamp = time.perf_counter_ns() if phases.enabled else 0
        body = request.body
        if (
            self.observe_fields
            and outcome == "allow"
            and request.verb in _WRITE_VERBS
            and isinstance(body, dict)
        ):
            fields, values = manifest_field_sample(body)
            detail = {**(detail or {}), "fields": fields, "values": values}
        bus.publish(SecurityEvent(
            kind="decision",
            source="proxy",
            ts=time.time(),
            user=request.user.username,
            verb=request.verb,
            resource=request.kind,
            name=_object_name(request),
            namespace=request.namespace or "",
            outcome=outcome,
            code=code,
            trace_id=current_trace_id() or "",
            latency_ns=time.perf_counter_ns() - started if started else 0,
            detail=detail or {},
        ))
        if stamp:
            phases.telemetry(time.perf_counter_ns() - stamp)


class EnforcementCore(_Front):
    """The one decision path both proxy transports adapt.

    :meth:`mediate` takes a transport-neutral :class:`ApiRequest` and
    the transport's upstream call, and runs complete mediation (Sec.
    V-B): validate the write body through the :class:`ValidationGate`,
    deny with the offending fields or forward, degrade when the
    upstream is unavailable, publish the verdict.

    With a :class:`~repro.resilience.ResilienceConfig` the upstream
    hop runs under retry + circuit breaking + a per-request deadline;
    when the upstream is unavailable the proxy **fails closed**:
    validated writes are refused with 503 while denials keep being
    issued locally (the validation gate needs no upstream).  With
    ``degraded_mode="fail-static"`` successful ``get`` responses are
    additionally kept in an identity-keyed :class:`StaleReadCache`, so
    reads survive an outage for the same user that originally fetched
    them (writes still refuse; see docs/RESILIENCE.md).
    """

    def __init__(
        self,
        validator: Validator,
        cache_size: int,
        engine: str,
        resilience: ResilienceConfig | None,
        event_bus: Any | None,
    ):
        super().__init__(event_bus)
        self.gate = ValidationGate(validator, self.stats, cache_size, engine)
        self.resilience = resilience
        #: shadow-mode canary evaluator (a RefineController installs
        #: one via start_shadow); never affects served decisions.
        self.shadow: Any | None = None
        #: the /obs/refine controller, when a refinement loop is wired.
        self.refine: Any | None = None
        #: the /obs/scan CVE scanner, when one is wired.
        self.scanner: Any | None = None
        self.breaker = None
        self._guard: UpstreamGuard | None = None
        self._read_cache: StaleReadCache | None = None
        if resilience is not None:
            stats = self.stats
            self.breaker = resilience.make_breaker(
                on_transition=lambda _old, new: stats.record_breaker_transition(new)
            )
            self._guard = UpstreamGuard(
                resilience.retry,
                self.breaker,
                # Timeouts and resets are OSErrors; a truncated upstream
                # reply (IncompleteRead) is an HTTPException.
                retry_on=(http.client.HTTPException, OSError),
                on_retry=lambda _attempt, _delay: stats.count_retry(),
                on_failure=lambda failure: stats.count_upstream_error(
                    upstream_failure_kind(failure)
                ),
            )
            if resilience.degraded_mode == "fail-static":
                self._read_cache = StaleReadCache(resilience.read_cache_size)

    @property
    def validator(self) -> Validator:
        return self.gate.validator

    def install_validator(self, validator: Validator) -> None:
        """Bind a new policy (e.g. after chart upgrade); invalidates
        the decision cache."""
        self.gate.install(validator)

    def mediate(
        self,
        request: ApiRequest,
        forward: Callable[[ApiRequest], ApiResponse],
    ) -> ApiResponse:
        """Decide *request*; *forward* is the transport's upstream call
        (it may raise the :mod:`repro.resilience` unavailability
        errors, which degrade the answer instead of propagating)."""
        self.stats.count_request()
        bus = self.events
        started = time.perf_counter_ns() if bus.enabled else 0
        body = request.body
        if body is not None and request.verb in _WRITE_VERBS:
            if not isinstance(body, dict):
                return ApiResponse.from_error(
                    ApiError.bad_request("request body must be a JSON object")
                )
            with span("proxy.validate"):
                result = self.gate.check(body)
            shadow = self.shadow
            if shadow is not None:
                shadow.observe(
                    body, result.allowed,
                    user=request.user.username, verb=request.verb,
                )
            if not result.allowed:
                return self.deny(
                    request, result.violations, result.summary(),
                    self.validator.operator, started,
                )
        response = self._forward(request, forward)
        if bus.enabled:
            mode = response.degraded.partition(";")[0]
            outcome = "degraded" if mode else "allow" if response.ok else "error"
            self._publish_decision(
                request, outcome, response.code, started,
                {"mode": mode} if mode else None,
            )
        return response

    def _forward(
        self,
        request: ApiRequest,
        forward: Callable[[ApiRequest], ApiResponse],
    ) -> ApiResponse:
        """The upstream hop.  A retryable upstream 5xx that survives the
        whole retry schedule is passed through (the upstream's own
        answer is information); breaker refusals and exhausted
        transports degrade -- never a silent allow."""
        try:
            response = forward(request)
        except CircuitOpenError as err:
            self.stats.count_upstream_error("breaker-open")
            return self._degrade(request, err)
        except (UpstreamUnavailable, DeadlineExceeded) as err:
            return self._degrade(request, err)
        if (self._read_cache is not None and request.verb == "get"
                and response.code == 200 and response.body is not None):
            self._read_cache.put(
                self._stale_key(request), deep_copy(response.body)
            )
        return response

    @staticmethod
    def _stale_key(request: ApiRequest) -> str:
        """Stale-cache key scoped to the authenticated identity: the
        upstream authorizes reads per user, so a cached 200 is only
        valid for the identity it was originally served to."""
        return stale_read_key(
            request.user.username,
            ",".join(request.user.groups),
            f"{request.kind}/{request.namespace or ''}/{request.name or ''}",
        )

    def _degrade(self, request: ApiRequest, err: Exception) -> ApiResponse:
        """The upstream is unavailable.  ``fail-static`` may serve a
        same-identity stale read; everything else is refused with 503
        -- a would-be denial is never converted into an allow (denials
        already happened before forwarding)."""
        cached = None
        if self._read_cache is not None and request.verb == "get":
            assert self.resilience is not None
            cached = self._read_cache.get(
                self._stale_key(request), self.resilience.read_cache_ttl
            )
        if cached is not None:
            age, payload = cached
            response = ApiResponse(200, deep_copy(payload))
            response.degraded = f"stale-read; age={age:.1f}s"
        else:
            response = ApiResponse.from_error(ApiError(
                503, "ServiceUnavailable",
                f"KubeFence: upstream API server unavailable; failing closed ({err})",
            ))
            response.degraded = "refused"
        self.stats.count_degraded(response.degraded.partition(";")[0])
        return response


class KubeFenceProxy(EnforcementCore):
    """In-process enforcement proxy implementing the client Transport:
    :meth:`submit` mediates with ``APIServer.handle`` as the upstream.

    The default (``resilience=None``) leaves the upstream call
    unguarded -- zero added work on the fault-free benchmark path.
    """

    def __init__(
        self,
        api: APIServer,
        validator: Validator,
        cache_size: int = DEFAULT_DECISION_CACHE_SIZE,
        engine: str = "auto",
        resilience: ResilienceConfig | None = None,
        event_bus: Any | None = None,
    ):
        super().__init__(validator, cache_size, engine, resilience, event_bus)
        self.api = api

    def submit(self, request: ApiRequest) -> ApiResponse:
        """Intercept, validate, and forward or deny -- all under one
        request trace (the API server joins it, so the audit event
        carries the same trace id)."""
        with trace("proxy.request"):
            return self.mediate(request, self._handle_upstream)

    def _handle_upstream(self, request: ApiRequest) -> ApiResponse:
        guard = self._guard
        if guard is None:
            return self.api.handle(request)
        assert self.resilience is not None
        # In-process transport retries are replay-safe for every verb:
        # the chaos wrapper (FaultyAPIServer) raises its injected
        # resets/timeouts *instead of* handling, never after a write
        # was applied.  The HTTP proxy cannot assume that about a real
        # wire and restricts transport retries to idempotent methods.
        return guard.call(
            lambda: self.api.handle(request),
            deadline=self.resilience.deadline(),
            is_failure=_failed_upstream,
        )


class _ProxyHandler(RestHandler):
    """The HTTP adapter of :class:`HttpKubeFenceProxy`: parse the body,
    serve the observability surfaces, build the :class:`ApiRequest`
    the upstream API server will see, hand it to
    :meth:`EnforcementCore.mediate` with the pooled upstream call, and
    write the verdict back."""

    proxy: "HttpKubeFenceProxy"  # bound per proxy instance

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        # Access "log": a labeled counter instead of stderr.
        self.proxy.stats.count_http_request(getattr(self, "command", "?"), code)

    def _reply(self, code: int, payload: dict | list,
               extra_headers: tuple[tuple[str, str], ...] = ()) -> None:
        phases = self.proxy.stats.phases
        started = time.perf_counter_ns() if phases.enabled else 0
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        if started:
            phases.serialization(time.perf_counter_ns() - started)

    def _obs(self) -> tuple[int, str, bytes] | None:
        proxy = self.proxy
        return obs_endpoint(
            self.path,
            proxy.stats.registry,
            component="kubefence-proxy",
            ready_checks={"policy-bound": lambda: proxy.validator is not None},
            event_bus=proxy.events if proxy.events.enabled else None,
            slo=proxy.slo,
            refine=proxy.refine,
            scanner=proxy.scanner,
            profiler=PROFILER,
            timeseries=proxy.timeseries,
            accept=self.headers.get("Accept", ""),
        )

    def _handle(self, method: str) -> None:
        incoming = self.headers.get("X-Trace-Id") or None
        phases = self.proxy.stats.phases
        if not phases.enabled:
            with trace("proxy.request", trace_id=incoming):
                self._handle_traced(method)
            return
        # Wall-clock denominator for the phase breakdown: the phase
        # shares below divide into this total.  Stamped inside the
        # trace bracket so tracer bookkeeping (span record under the
        # buffer lock, which a concurrent /obs/traces reader can hold)
        # stays out of the denominator instead of reading as
        # unattributed time.
        with trace("proxy.request", trace_id=incoming):
            wall_started = time.perf_counter_ns()
            self._handle_traced(method)
            phases.wall(time.perf_counter_ns() - wall_started)

    def _handle_traced(self, method: str) -> None:
        proxy = self.proxy
        phases = proxy.stats.phases
        started = time.perf_counter_ns() if phases.enabled else 0
        length = int(self.headers.get("Content-Length") or 0)
        self._raw = raw = self.rfile.read(length) if length else None
        body = None
        if raw and method in _BODY_METHODS:
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError):
                self._reply(400, ApiError.bad_request(
                    "request body is not valid JSON"
                ).to_status())
                return
        if started:
            parsed = time.perf_counter_ns()
            phases.serialization(parsed - started)
        request = self._api_request(method, body)
        if started:
            # The proxy's authn share: routing the REST path and
            # extracting the caller identity the upstream trusts.
            phases.authn(time.perf_counter_ns() - parsed)
        response = proxy.mediate(request, self._upstream)
        self._reply(
            response.code,
            response.body if response.body is not None else {},
            (("X-KubeFence-Degraded", response.degraded),)
            if response.degraded else (),
        )

    def _api_request(self, method: str, body: Any) -> ApiRequest:
        """The request as the upstream API server will see it: verb
        from the method, kind/namespace/name from the REST path, and
        the caller identity verbatim from the headers it trusts."""
        try:
            kind, namespace, name = parse_rest_path(self.path, default_registry)
        except (ValueError, KeyError):
            kind, namespace, name = "", None, None  # the upstream answers 404
        groups = self.headers.get("X-Remote-Groups", "")
        return ApiRequest(
            verb=rest_verb(method, name),
            kind=kind,
            user=User(
                self.headers.get("X-Remote-User", ""),
                tuple(g for g in groups.split(",") if g),
            ),
            namespace=namespace or "default",
            name=name,
            body=body,
            source_ip=self.client_address[0],
        )

    def _upstream(self, request: ApiRequest) -> ApiResponse:
        """The pooled upstream round trip for this call."""
        proxy = self.proxy
        phases = proxy.stats.phases
        started = time.perf_counter_ns() if phases.enabled else 0
        headers = {
            "Content-Type": "application/json",
            "X-Remote-User": self.headers.get("X-Remote-User", ""),
            "X-Remote-Groups": self.headers.get("X-Remote-Groups", ""),
            "X-Trace-Id": current_trace_id() or "",
        }
        if started:
            sent = time.perf_counter_ns()
            phases.authn(sent - started)
        status, data = proxy._upstream_call(self.command, self.path, self._raw, headers)
        if started:
            phases.upstream(time.perf_counter_ns() - sent)
        try:
            payload = json.loads(data or b"{}")
        except ValueError:
            proxy.stats.count_upstream_error("bad-payload")
            return ApiResponse.from_error(ApiError(
                502, "BadGateway", "upstream returned an unparseable body"
            ))
        return ApiResponse(status, payload)


class HttpKubeFenceProxy(EnforcementCore):
    """The proxy as a real HTTP reverse proxy (stdlib only).

    Mirrors the paper's mitmproxy deployment: clients speak HTTP to the
    proxy, which runs the shared decision path and forwards allowed
    requests to the upstream API server over HTTP.  The upstream hop
    always runs under a guard (``DEFAULT_RESILIENCE`` unless
    ``resilience=`` is given).

    Forwarding uses a pooled keep-alive ``http.client.HTTPConnection``
    per worker thread (the proxy and the mini API server both speak
    HTTP/1.1), so the upstream hop does not pay a TCP handshake per
    request; ``ProxyStats.connections_opened/reused`` surface the pool
    behavior.

    Observability surfaces: ``GET /metrics`` (Prometheus text),
    ``/healthz``/``/readyz``, and ``/obs/traces``; each proxied request
    runs under a trace whose id is forwarded upstream in the
    ``X-Trace-Id`` header, so the API server's audit log correlates.
    """

    def __init__(self, upstream_base_url: str, validator: Validator,
                 host: str = "127.0.0.1", port: int = 0,
                 cache_size: int = DEFAULT_DECISION_CACHE_SIZE,
                 engine: str = "auto",
                 resilience: ResilienceConfig | None = None,
                 event_bus: Any | None = None,
                 slo: Any | None = None):
        super().__init__(
            validator, cache_size, engine,
            resilience if resilience is not None else DEFAULT_RESILIENCE,
            event_bus,
        )
        self.upstream = upstream_base_url.rstrip("/")
        #: SLO engine (served at /obs/slo): by default one per proxy,
        #: subscribed to the bus, exporting kubefence_slo_* gauges on
        #: the proxy registry.  Pass ``slo=`` to share an engine.
        self.slo = slo
        if self.slo is None and self.events.enabled:
            from repro.obs.analytics.slo import SloEngine

            self.slo = SloEngine(registry=self.stats.registry)
            self.events.subscribe(self.slo.observe)
        #: in-process metrics ring (served at /obs/timeseries, the
        #: ``repro top`` data source); ticking starts with the server.
        self.timeseries = TimeSeriesRing(self.stats.registry)
        split = urlsplit(self.upstream)
        self._upstream_host = split.hostname or "127.0.0.1"
        self._upstream_port = split.port or 80
        self._pool = threading.local()
        handler = type("BoundProxyHandler", (_ProxyHandler,), {"proxy": self})
        self._httpd = new_http_server((host, port), handler)
        self._thread: threading.Thread | None = None

    def _upstream_connection(self, timeout: float) -> http.client.HTTPConnection:
        conn = getattr(self._pool, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._upstream_host, self._upstream_port, timeout=timeout
            )
            self._pool.conn = conn
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        self.stats.count_connection(reused=conn.sock is not None)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._pool, "conn", None)
        if conn is not None:
            conn.close()
            self._pool.conn = None

    def _upstream_call(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        """One guarded upstream round trip: breaker admission, retry
        with decorrelated backoff, per-attempt socket timeouts clamped
        to the per-request deadline.

        Transport-level retries (reset, timeout, truncated read) are
        restricted to idempotent methods: an IncompleteRead after a
        POST may mean the upstream already applied the create, and
        replaying it would apply the write twice.  Non-idempotent
        methods still retry on retryable 5xx *results* -- those imply
        the request was not processed.
        """
        res = self.resilience
        assert res is not None and self._guard is not None
        deadline = res.deadline()

        def attempt() -> tuple[int, bytes]:
            timeout = res.request_timeout
            if deadline is not None:
                timeout = max(0.05, deadline.clamp(timeout))
            conn = self._upstream_connection(timeout)
            try:
                with span("proxy.forward"):
                    conn.request(method, path, body=body, headers=headers)
                    resp = conn.getresponse()
                    data = resp.read()
            except BaseException:
                # Stale pooled socket, reset, timeout, truncated read:
                # the connection state is unknown -- drop it.
                self._drop_connection()
                raise
            return resp.status, data

        return self._guard.call(
            attempt,
            deadline=deadline,
            is_failure=lambda r: r[0] in RETRYABLE_STATUS_CODES,
            retry_transport_errors=method in _IDEMPOTENT_METHODS,
        )

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "HttpKubeFenceProxy":
        # Refcounted: the profiler thread is shared process-wide and
        # stops with the last component that acquired it.
        PROFILER.acquire()
        self.timeseries.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():  # pragma: no cover - hang guard
                raise RuntimeError(
                    "HttpKubeFenceProxy serve thread failed to stop within 5s"
                )
            self._thread = None
            self.timeseries.stop()
            PROFILER.release()

    def __enter__(self) -> "HttpKubeFenceProxy":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class MultiPolicyProxy(_Front):
    """One proxy mediating several workloads (multi-tenant clusters).

    Each client identity is bound to its workload's validator; requests
    from identities with no bound policy are rejected outright
    (default-deny, per the least-privilege principle) through the same
    deny path as a policy violation.  This models the paper's
    deployment at cluster scale: one mitmproxy instance, one policy per
    operator.
    """

    def __init__(self, api: APIServer, validators: dict[str, Validator],
                 read_through: bool = True,
                 resilience: ResilienceConfig | None = None,
                 event_bus: Any | None = None):
        #: one shared stream across all per-identity proxies, so the
        #: forensics layer sees the whole multi-tenant cluster.
        super().__init__(event_bus)
        self.api = api
        self.resilience = resilience
        self._proxies = {
            username: KubeFenceProxy(
                api, validator, resilience=resilience, event_bus=self.events
            )
            for username, validator in validators.items()
        }
        self.read_through = read_through

    def bind(self, username: str, validator: Validator) -> None:
        """Attach a (new) workload policy to an identity."""
        existing = self._proxies.get(username)
        if existing is not None:
            existing.install_validator(validator)
        else:
            self._proxies[username] = KubeFenceProxy(
                self.api, validator, resilience=self.resilience,
                event_bus=self.events,
            )

    def proxy_for(self, username: str) -> "KubeFenceProxy | None":
        return self._proxies.get(username)

    @property
    def unbound_denials(self) -> deque[DenialRecord]:
        """Default-deny refusals of identities with no bound policy."""
        return self._denial_log

    @property
    def denials(self) -> list[DenialRecord]:  # type: ignore[override]
        out = list(self.unbound_denials)
        for proxy in self._proxies.values():
            out.extend(proxy.denials)
        return out

    def stats_totals(self) -> ProxyStats:
        """Aggregate per-identity proxy stats (and the default-deny
        counters) into one façade (the cluster-wide scrape view)."""
        totals = ProxyStats()
        totals.merge(self.stats)
        for proxy in self._proxies.values():
            totals.merge(proxy.stats)
        return totals

    def submit(self, request: ApiRequest) -> ApiResponse:
        proxy = self._proxies.get(request.user.username)
        if proxy is not None:
            return proxy.submit(request)
        if self.read_through and request.verb in ("get", "list", "watch"):
            return self.api.handle(request)
        return self.deny(
            request, ("no policy bound to this identity",),
            f"no workload policy bound to identity "
            f"{request.user.username!r} (default deny)",
            operator="",
        )
