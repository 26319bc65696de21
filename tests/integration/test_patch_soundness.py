"""Merge-patch soundness of the enforcement proxy.

The proxy validates a ``patch`` body on its own, while the API server
stores the JSON merge of that body into the current object, with
``null`` deleting a field.  The property checked here: every patch the
proxy accepts leaves a stored object the policy itself accepts
(``Validator.validate_interpreted``), so no sequence of accepted
patches can assemble an object the policy forbids -- in particular
not by deleting a security-locked field with ``null``.

The corpus, per chart (sonarqube and nginx): a null-deletion patch for
every field reachable through objects alone, seeded
``ManifestFuzzer`` bodies retargeted at the deployed objects, and the
manifests of a second release retargeted the same way (accepted
patches that change real content).
"""

from __future__ import annotations

from typing import Any, Iterator

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy
from repro.fuzz.generator import ManifestFuzzer
from repro.helm.chart import render_chart
from repro.k8s.apiserver import ApiRequest, Cluster, User
from repro.operators import get_chart
from repro.yamlutil import deep_copy

OPERATOR = User("chart-operator", ("system:masters",))
#: Metadata the store assigns; not part of what a client wrote.
_SERVER_FIELDS = ("resourceVersion", "uid")
#: Identity of the patched object; never deleted by a patch.
_IDENTITY = {("kind",), ("apiVersion",), ("metadata",), ("metadata", "name"),
             ("metadata", "namespace")}


def _object_paths(tree: dict, prefix: tuple = ()) -> Iterator[tuple]:
    """Every key path reachable through dicts only (a merge patch
    replaces lists wholesale, so list items cannot be deleted)."""
    for key, value in tree.items():
        path = prefix + (key,)
        yield path
        if isinstance(value, dict):
            yield from _object_paths(value, path)


def _retarget(body: dict, manifest: dict) -> dict:
    patch = deep_copy(body)
    patch["kind"] = manifest["kind"]
    patch["apiVersion"] = manifest["apiVersion"]
    meta = patch.setdefault("metadata", {})
    meta["name"] = manifest["metadata"]["name"]
    meta["namespace"] = manifest["metadata"].get("namespace", "default")
    return patch


def _null_patch(manifest: dict, path: tuple) -> dict:
    patch = _retarget({}, manifest)
    node = patch
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = None
    return patch


def _patches(chart_name: str, manifests: list[dict]) -> Iterator[tuple[dict, dict]]:
    for manifest in manifests:
        for path in _object_paths(manifest):
            if path not in _IDENTITY:
                yield manifest, _null_patch(manifest, path)
    fuzzer = ManifestFuzzer(seed=29)
    for i in range(50):
        manifest = manifests[i % len(manifests)]
        yield manifest, _retarget(fuzzer.manifest(manifest["kind"]), manifest)
    other = render_chart(get_chart(chart_name), release_name="other")
    for manifest, variant in zip(manifests, other):
        yield manifest, _retarget(variant, manifest)


def _as_written(data: dict[str, Any]) -> dict[str, Any]:
    out = dict(data)
    out["metadata"] = {k: v for k, v in data["metadata"].items() if k not in _SERVER_FIELDS}
    return out


@pytest.mark.parametrize("chart_name", ["sonarqube", "nginx"])
def test_accepted_patches_leave_objects_the_policy_accepts(chart_name):
    chart = get_chart(chart_name)
    validator = generate_policy(chart)
    cluster = Cluster()
    proxy = KubeFenceProxy(cluster.api, validator)
    manifests = render_chart(chart, release_name="base")
    for manifest in manifests:
        assert proxy.submit(ApiRequest.from_manifest(manifest, OPERATOR)).ok

    accepted = denied = 0
    for manifest, patch in _patches(chart_name, manifests):
        meta = manifest["metadata"]
        namespace = meta.get("namespace", "default")
        response = proxy.submit(ApiRequest(
            "patch", manifest["kind"], OPERATOR, namespace, meta["name"], patch
        ))
        if response.code == 403:
            denied += 1
            continue
        if not response.ok:
            continue  # refused by the API server itself
        accepted += 1
        stored = cluster.store.get(manifest["kind"], namespace, meta["name"])
        verdict = validator.validate_interpreted(_as_written(stored.data))
        assert verdict.allowed, (patch, verdict.summary())
    # Both outcomes occur, so the property is not vacuous.
    assert accepted >= len(manifests)
    assert denied > 0
