"""Differential test of the two proxy transports.

``KubeFenceProxy.submit`` (in-process) and ``HttpKubeFenceProxy``
(real sockets, in front of ``HttpApiServer``) run one decision path.
The same request corpus, each transport over a fresh cluster, must
give the same status codes, the same 403/4xx/503 ``Status`` bodies,
the same denial records, the same decision events and the same proxy
counters -- in healthy operation and through fail-closed and
fail-static upstream outages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pytest

from repro.attacks.injector import build_malicious_manifests
from repro.core.pipeline import generate_policy
from repro.core.proxy import HttpKubeFenceProxy, KubeFenceProxy
from repro.faults import FaultInjector, FaultPlan, FaultyAPIServer
from repro.fuzz.generator import ManifestFuzzer
from repro.helm.chart import render_chart
from repro.k8s.apiserver import ApiRequest, Cluster, User
from repro.k8s.http import HttpApiServer, HttpClient
from repro.obs.analytics.events import new_event_bus
from repro.operators import get_chart
from repro.resilience import ResilienceConfig, RetryPolicy

OPERATOR = User("chart-operator", ("system:masters",))
EVE = User("eve", ("system:masters",))
#: Same user name as OPERATOR, other groups: a different identity.
OPERATOR_OTHER_GROUPS = User("chart-operator", ("system:authenticated",))

_METHODS = {"create": "POST", "update": "PUT", "patch": "PATCH",
            "delete": "DELETE", "get": "GET", "list": "GET"}

#: Proxy counters that must agree (latency, phase and connection
#: series are transport-specific by nature).
_TRANSPORT_SPECIFIC = ("latency", "phase", "wall", "connections", "slo_")


@dataclass(frozen=True)
class Op:
    verb: str
    kind: str
    name: str | None
    user: User = OPERATOR
    body: Any = None
    namespace: str = "default"

    def request(self) -> ApiRequest:
        return ApiRequest(self.verb, self.kind, self.user, namespace=self.namespace,
                          name=self.name, body=self.body)


def _write(verb: str, manifest: dict, user: User = OPERATOR) -> Op:
    return Op(verb, manifest["kind"], manifest["metadata"]["name"], user, manifest,
              manifest["metadata"].get("namespace", "default"))


def _verdict(code: int, body: Any) -> dict[str, Any]:
    """What a client can tell apart about one answer."""
    out: dict[str, Any] = {"code": code}
    if isinstance(body, dict) and body.get("kind") == "Status":
        out["reason"] = body.get("reason")
        out["message"] = body.get("message")
        out["violations"] = (body.get("details") or {}).get("violations")
    elif isinstance(body, dict):
        out["name"] = body.get("metadata", {}).get("name")
    return out


def _event_view(event: Any) -> tuple:
    detail = event.detail
    return (event.outcome, event.code, event.verb, event.resource, event.name,
            detail.get("reason"), tuple(detail.get("violations") or ()),
            detail.get("mode"))


def _counters(proxy: Any) -> dict[str, float]:
    return {
        key: value for key, value in proxy.stats.snapshot().items()
        if key.startswith("kubefence_")
        and not any(part in key for part in _TRANSPORT_SPECIFIC)
    }


class InProcess:
    """KubeFenceProxy.submit over a fresh cluster (faults injected in
    front of APIServer.handle)."""

    def __init__(self, validator: Any, resilience: ResilienceConfig | None):
        self.injector = FaultInjector(FaultPlan(name="healthy"), seed=3)
        self.cluster = Cluster()
        self.proxy = KubeFenceProxy(
            FaultyAPIServer(self.cluster.api, self.injector), validator,
            resilience=resilience, event_bus=new_event_bus(sample_every=1),
        )
        self.events: list[Any] = []
        self.proxy.events.subscribe(self.events.append)

    def send(self, op: Op) -> dict[str, Any]:
        response = self.proxy.submit(op.request())
        return _verdict(response.code, response.body)

    def close(self) -> None:
        pass


class OverHttp:
    """HttpKubeFenceProxy -> HttpApiServer over a fresh cluster (faults
    injected at the API server's wire).  Each request uses a fresh
    client connection."""

    def __init__(self, validator: Any, resilience: ResilienceConfig | None):
        self.injector = FaultInjector(FaultPlan(name="healthy"), seed=3)
        self.cluster = Cluster()
        self.server = HttpApiServer(self.cluster.api, fault_injector=self.injector).start()
        self.proxy = HttpKubeFenceProxy(
            self.server.base_url, validator, resilience=resilience,
            event_bus=new_event_bus(sample_every=1),
        ).start()
        self.events: list[Any] = []
        self.proxy.events.subscribe(self.events.append)

    def send(self, op: Op) -> dict[str, Any]:
        client = HttpClient(self.proxy.base_url, username=op.user.username,
                            groups=op.user.groups)
        path = op.request().url_path()
        code, body = client._request(_METHODS[op.verb], path, op.body)
        return _verdict(code, body)

    def close(self) -> None:
        self.proxy.stop()
        self.server.stop()


def _run_both(validator: Any, script: list[Any],
              resilience: ResilienceConfig | None = None) -> tuple[Any, Any, list]:
    """Run *script* (Ops, or callables taking the transport for
    out-of-band steps such as an outage) through both transports."""
    inproc, http = InProcess(validator, resilience), OverHttp(validator, resilience)
    try:
        rows = []
        for step in script:
            if callable(step):
                step(inproc)
                step(http)
                continue
            rows.append((step, inproc.send(step), http.send(step)))
    finally:
        http.close()
    return inproc, http, rows


def _assert_same(inproc: Any, http: Any, rows: list) -> None:
    for op, left, right in rows:
        assert left == right, (op.verb, op.kind, op.name, op.user.username)
    assert list(inproc.proxy.denials) == list(http.proxy.denials)
    assert [_event_view(e) for e in inproc.events] == [_event_view(e) for e in http.events]
    assert _counters(inproc.proxy) == _counters(http.proxy)
    assert inproc.proxy.stats.requests_total == len(rows)


def _corpus(chart_name: str) -> list[Op]:
    chart = get_chart(chart_name)
    manifests = render_chart(chart, release_name="diff")
    ops = [_write("create", m) for m in manifests]
    ops += [_write("update", m) for m in manifests]
    ops += [_write("update", attack.manifest, EVE)
            for attack in build_malicious_manifests(chart_name, manifests)]
    fuzzer = ManifestFuzzer(seed=13)
    kinds = sorted({m["kind"] for m in manifests})
    ops += [_write("create", fuzzer.manifest(kinds[i % len(kinds)])) for i in range(50)]
    first, last = manifests[0], manifests[-1]
    ops += [
        Op("get", first["kind"], first["metadata"]["name"]),
        Op("get", first["kind"], "no-such-object"),
        Op("list", first["kind"], None),
        Op("delete", last["kind"], last["metadata"]["name"]),
        Op("create", first["kind"], None, body=[1, 2, 3]),
    ]
    return ops


@pytest.mark.parametrize("chart_name", ["sonarqube", "nginx"])
def test_transports_agree_on_the_corpus(chart_name):
    validator = generate_policy(get_chart(chart_name))
    inproc, http, rows = _run_both(validator, _corpus(chart_name))
    _assert_same(inproc, http, rows)
    codes = {left["code"] for _op, left, _right in rows}
    # The corpus exercises admission, denial, reads, deletes, a
    # missing object and a malformed body.
    assert {200, 201, 400, 403, 404} <= codes
    assert any(op.user is EVE and left["code"] == 403 for op, left, _ in rows)
    assert http.proxy.denials and all(
        "KubeFence policy denied" in left["message"] and left["violations"]
        for _op, left, _ in rows if left["code"] == 403
    )


@pytest.mark.parametrize("mode", ["fail-closed", "fail-static"])
def test_transports_agree_through_an_outage(mode):
    chart = get_chart("nginx")
    validator = generate_policy(chart)
    manifests = render_chart(chart, release_name="dark")
    service = next(m for m in manifests if m["kind"] == "Service")
    name = service["metadata"]["name"]
    attack = next(a.manifest for a in build_malicious_manifests("nginx", manifests)
                  if a.manifest["kind"] == "Deployment")
    read = Op("get", "Service", name)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter="none"),
        request_timeout=2.0,
        request_deadline=4.0,
        failure_threshold=2,
        recovery_timeout=60.0,  # the breaker stays open for the test
        degraded_mode=mode,
    )

    def lights_out(transport: Any) -> None:
        transport.injector.plan = FaultPlan(name="dark", error_rate=1.0)

    script = [
        _write("create", service),
        read,  # warms the fail-static cache for OPERATOR only
        lights_out,
        _write("update", service),  # upstream 503s trip the breaker
        _write("update", service),  # refused closed
        read,
        Op("get", "Service", name, EVE),
        Op("get", "Service", name, OPERATOR_OTHER_GROUPS),
        _write("update", attack, EVE),  # still denied locally
    ]
    inproc, http, rows = _run_both(validator, script, config)
    _assert_same(inproc, http, rows)
    codes = [left["code"] for _op, left, _right in rows]
    stale = 200 if mode == "fail-static" else 503
    assert codes == [201, 200, 503, 503, stale, 503, 503, 403]
    # Another identity is never served the operator's cached read.
    assert rows[5][1]["reason"] == rows[6][1]["reason"] == "ServiceUnavailable"
    degraded = [e.detail.get("mode") for e in http.events if e.outcome == "degraded"]
    assert degraded == ["refused", "stale-read" if mode == "fail-static" else "refused",
                        "refused", "refused"]
