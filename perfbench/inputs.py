"""Seeded workload inputs and the oracle's expected outcome of each.

Everything the program under test receives is built here, from the
seed, before any timing starts:

- ``reconcile``: one ``sonarqube`` release is preloaded; the request
  cycle is ~70% PUT of its manifests, ~25% GET of them and ~5% PUT of
  Table II attack manifests built from them.  The cycle has no state
  effects beyond the preload, so it may be replayed any number of times
  and by several callers at once.
- ``fuzz-churn``: ~53% ``ManifestFuzzer`` bodies over the chart's kinds
  (distinct, denied), ~22% creates of fresh releases' manifests
  (distinct, admitted), ~22% deletes of the oldest created objects
  (the store stays between :data:`CHURN_FLOOR` and :data:`CHURN_CEILING`
  objects) and ~3% GETs of live objects.  One cycle ("epoch") creates
  and deletes exactly :data:`CHURN_RELEASES` releases, so it ends in the
  state it started from and can be replayed; a body recurs only one
  epoch (~10k requests) later, far beyond the 1024-entry decision cache.

The oracle is :meth:`repro.core.enforcement.Validator.validate_interpreted`
on a policy generated here, independently of the program's set-up: it
fixes the expected status of every write.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro import generate_policy, get_chart
from repro.attacks.injector import build_malicious_manifests
from repro.fuzz.generator import ManifestFuzzer
from repro.helm.chart import render_chart
from repro.k8s.apiserver import ApiRequest, User
from repro.k8s.gvk import registry

CHART = "sonarqube"
USER = User("sonarqube-operator", ("system:masters", "system:authenticated"))
HTTP_HEADERS = {
    "Content-Type": "application/json",
    "X-Remote-User": "sonarqube-operator",
    "X-Remote-Groups": "system:masters",
}

#: Requests in one reconcile cycle (replayed as often as the run needs).
RECONCILE_CYCLE = 4096
#: Releases created (and deleted) per fuzz-churn epoch.
CHURN_RELEASES = 256
#: Releases live when the fuzz-churn run starts (preloaded at set-up).
CHURN_PRELOAD_RELEASES = 22
#: Live-object band the fuzz-churn deletes and creates keep to.
CHURN_FLOOR = 180
CHURN_CEILING = 400

#: Categories a request's latency is filed under.
WRITE, READ, DENY, DELETE = "write", "read", "deny", "delete"

_VERB_METHOD = {"create": "POST", "update": "PUT", "get": "GET", "delete": "DELETE"}
_VERB_STATUS = {"create": 201, "update": 200, "get": 200, "delete": 200}

Key = tuple[str, str, str]


def object_key(manifest: dict[str, Any]) -> Key:
    meta = manifest.get("metadata", {})
    return (manifest["kind"], meta.get("namespace", "default"), meta["name"])


@dataclass
class Op:
    """One request of a workload, in both transport forms."""

    verb: str
    key: Key
    body: dict[str, Any] | None
    expect: int
    category: str
    request: ApiRequest = field(init=False)
    method: str = field(init=False)
    path: str = field(init=False)
    payload: bytes | None = field(init=False)

    def __post_init__(self) -> None:
        kind, namespace, name = self.key
        self.request = ApiRequest(
            verb=self.verb, kind=kind, user=USER, namespace=namespace,
            name=name, body=self.body,
        )
        rt = registry.by_kind(kind)
        ns = namespace if rt.namespaced else None
        self.method = _VERB_METHOD[self.verb]
        self.path = rt.url_path(ns, None if self.verb == "create" else name)
        self.payload = json.dumps(self.body).encode() if self.body is not None else None


@dataclass
class Inputs:
    """A workload's generated inputs: what set-up preloads and the
    request cycle the callers replay."""

    workload: str
    seed: int
    preload: list[dict[str, Any]]
    ops: list[Op]
    oracle: Any
    #: Keys only ever written by bodies the oracle denies: none of
    #: them may be in the store.
    forbidden_keys: set[Key]

    def expected_state(self, executed: int) -> dict[Key, dict[str, Any]]:
        """Store contents the oracle predicts after *executed* requests
        of the cycle (replayed from the preload)."""
        live = {object_key(m): m for m in self.preload}
        for op in self.ops[: executed % len(self.ops)]:
            if op.expect == 403 or op.verb == "get":
                continue
            if op.verb == "delete":
                live.pop(op.key, None)
            else:
                live[op.key] = op.body  # type: ignore[assignment]
        return live


def _op(oracle: Any, verb: str, manifest: dict[str, Any] | None, key: Key | None = None) -> Op:
    key = key or object_key(manifest)  # type: ignore[arg-type]
    if verb in ("create", "update"):
        allowed = oracle.validate_interpreted(manifest).allowed
        if not allowed:
            return Op(verb, key, manifest, 403, DENY)
        return Op(verb, key, manifest, _VERB_STATUS[verb], WRITE)
    return Op(verb, key, None, _VERB_STATUS[verb], READ if verb == "get" else DELETE)


def _forbidden(preload: list[dict[str, Any]], ops: list[Op]) -> set[Key]:
    admitted = {object_key(m) for m in preload}
    admitted.update(op.key for op in ops if op.category == WRITE)
    return {op.key for op in ops if op.expect == 403} - admitted


def build(workload: str, seed: int) -> Inputs:
    oracle = generate_policy(get_chart(CHART))
    if workload in ("reconcile-http", "reconcile-inproc"):
        return _reconcile(workload, seed, oracle)
    if workload == "fuzz-churn":
        return _fuzz_churn(seed, oracle)
    raise ValueError(f"unknown workload {workload!r}")


def _reconcile(workload: str, seed: int, oracle: Any) -> Inputs:
    rng = random.Random(seed)
    chart = get_chart(CHART)
    release = render_chart(chart, release_name=f"rc{seed % 100000:05d}")
    attacks = [
        m.manifest for m in build_malicious_manifests(CHART, release)
        if not oracle.validate_interpreted(m.manifest).allowed
    ]
    if not attacks:
        raise RuntimeError("the oracle allows every attack manifest")
    ops = []
    for _ in range(RECONCILE_CYCLE):
        draw = rng.random()
        if draw < 0.70:
            ops.append(_op(oracle, "update", rng.choice(release)))
        elif draw < 0.95:
            ops.append(_op(oracle, "get", None, object_key(rng.choice(release))))
        else:
            ops.append(_op(oracle, "update", rng.choice(attacks)))
    for manifest in release:
        if not oracle.validate_interpreted(manifest).allowed:
            raise RuntimeError(f"the oracle denies preload manifest {object_key(manifest)}")
    return Inputs(workload, seed, release, ops, oracle, _forbidden(release, ops))


#: Release name rendered once and substituted per fresh release (same
#: length, so Helm's name truncation behaves the same).
_TEMPLATE_RELEASE = "tmplrelz"


def _release_names(seed: int) -> list[str]:
    return [f"c{i:03d}s{seed % 1000:03d}" for i in range(CHURN_RELEASES)]


def _fuzz_churn(seed: int, oracle: Any) -> Inputs:
    rng = random.Random(seed)
    template = json.dumps(render_chart(get_chart(CHART), release_name=_TEMPLATE_RELEASE))
    releases = [json.loads(template.replace(_TEMPLATE_RELEASE, name))
                for name in _release_names(seed)]
    for manifest in releases[0]:
        if not oracle.validate_interpreted(manifest).allowed:
            raise RuntimeError(f"the oracle denies release manifest {object_key(manifest)}")
    preload = [m for rel in releases[:CHURN_PRELOAD_RELEASES] for m in rel]
    live: deque[Key] = deque(object_key(m) for m in preload)
    creates = deque(m for rel in releases[CHURN_PRELOAD_RELEASES:] + releases[:CHURN_PRELOAD_RELEASES]
                    for m in rel)
    deletes_left = len(creates)
    fuzzer = ManifestFuzzer(seed=seed)
    kinds = sorted(oracle.kinds)
    ops: list[Op] = []
    while creates or deletes_left:
        draw = rng.random()
        if draw < 0.53:
            # Fuzz bodies are the denied class: a body the oracle allows
            # is redrawn, so admitted churn stays in the create ops.
            while True:
                op = _op(oracle, "create", fuzzer.manifest(rng.choice(kinds)))
                if op.expect == 403:
                    break
            ops.append(op)
            continue
        if draw < 0.56 and live:
            ops.append(_op(oracle, "get", None, live[rng.randrange(len(live))]))
            continue
        want_create = draw < 0.78
        if want_create and (not creates or len(live) >= CHURN_CEILING):
            want_create = False
        if not want_create and (not deletes_left or (len(live) <= CHURN_FLOOR and creates)):
            want_create = bool(creates)
        if want_create:
            op = _op(oracle, "create", creates.popleft())
            if op.expect != 201:
                raise RuntimeError(f"the oracle denies release manifest {op.key}")
            live.append(op.key)
        else:
            op = _op(oracle, "delete", None, live.popleft())
            deletes_left -= 1
        ops.append(op)
    if list(live) != [object_key(m) for m in preload]:
        raise RuntimeError("fuzz-churn epoch does not return to its starting state")
    return Inputs("fuzz-churn", seed, preload, ops, oracle, _forbidden(preload, ops))
