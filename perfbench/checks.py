"""Correctness gates run after timing.

- **Forbidden writes** (the paper's property): no object in the store
  is one the oracle denies, and no key that only denied bodies wrote
  exists.  Any hit fails the run, as does (checked by the callers) any
  acknowledged write the oracle denies.
- **Admitted writes**: the store holds exactly the objects the oracle
  predicts, with the content last written.  Each difference counts as
  a failed request.
- **Recovery**: ``ObjectStore.recover()`` on the run's data directory
  rebuilds the live store's revision and objects.  A difference counts
  as a failed request.
"""

from __future__ import annotations

from typing import Any

from repro.k8s.gvk import registry
from repro.k8s.store import ObjectStore

from inputs import Inputs, Key, object_key

#: Metadata the store assigns; stripped before comparing with a body.
_SERVER_FIELDS = ("resourceVersion", "uid")


def _as_written(data: dict[str, Any]) -> dict[str, Any]:
    out = dict(data)
    out["metadata"] = {k: v for k, v in data["metadata"].items() if k not in _SERVER_FIELDS}
    return out


def _as_stored(body: dict[str, Any]) -> dict[str, Any]:
    out = dict(body)
    meta = dict(body.get("metadata", {}))
    if registry.by_kind(body["kind"]).namespaced:
        meta.setdefault("namespace", "default")
    out["metadata"] = meta
    return out


def check_store(inputs: Inputs, store: Any, executed: int) -> tuple[list[str], list[str]]:
    """Returns ``(forbidden, mismatches)`` as human-readable lines."""
    _revision, objects = store.snapshot()
    live: dict[Key, dict[str, Any]] = {}
    forbidden: list[str] = []
    for obj in objects:
        written = _as_written(obj.data)
        key = object_key(written)
        live[key] = written
        if key in inputs.forbidden_keys:
            forbidden.append(f"{key}: only denied bodies wrote this object")
        elif not inputs.oracle.validate_interpreted(written).allowed:
            forbidden.append(f"{key}: the oracle denies the stored object")
    mismatches: list[str] = []
    expected = inputs.expected_state(executed)
    for key, body in expected.items():
        if key not in live:
            mismatches.append(f"{key}: admitted write missing from the store")
        elif live[key] != _as_stored(body):
            mismatches.append(f"{key}: stored content differs from the last admitted write")
    for key in live.keys() - expected.keys():
        mismatches.append(f"{key}: in the store but no admitted write created it")
    return forbidden, mismatches


def check_recovery(store: Any, data_dir: Any) -> list[str]:
    """Compare the (closed) live store with a fresh recovery of its
    data directory."""
    revision, objects = store.snapshot()
    recovered = ObjectStore.recover(data_dir)
    try:
        rec_revision, rec_objects = recovered.snapshot()
    finally:
        recovered.close()
    problems = []
    if rec_revision != revision:
        problems.append(f"recovered revision {rec_revision} != live revision {revision}")
    live = {obj.key(): obj.data for obj in objects}
    back = {obj.key(): obj.data for obj in rec_objects}
    if live != back:
        differing = sorted(k for k in live.keys() | back.keys() if live.get(k) != back.get(k))
        problems.append(f"recovered objects differ from the live store at {differing[:5]}")
    return problems
