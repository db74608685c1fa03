"""Canonical content keys — the service's dedupe primitive.

A content key is the sha256 of a *canonical* JSON rendering of a job's
identity: the case snapshot (re-normalized through
:class:`~repro.utils.config.CaseConfig`, so defaulted and explicitly-
spelled fields hash alike), seed, rank count, method/mode, and a
structural fingerprint of the data source.  Two specs that would produce
byte-identical artifacts map to the same key regardless of dict ordering
or which defaults the client spelled out; anything that changes artifact
bytes (seed, ranks, scale, sampler method, source contents, cache knobs
that land in ``result.meta``) changes the key.

Deliberately *excluded* from keys: the SPMD backend (results are
byte-identical across ``thread``/``process`` for the same (seed, ranks)
— the PR 6 conformance grid pins this) and retry/checkpoint cadence
(execution policy, not identity).
"""

from __future__ import annotations

import hashlib
import json
import os

__all__ = [
    "artifact_fingerprint",
    "canonical_json",
    "content_key",
    "dir_fingerprint",
    "source_fingerprint",
]


def canonical_json(doc) -> str:
    """Render ``doc`` as canonical JSON: sorted keys, minimal separators,
    ASCII-only, NaN/Infinity rejected (their JSON spellings are not
    portable, so they cannot participate in a stable key)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def content_key(doc) -> str:
    """sha256 hexdigest of the canonical JSON rendering of ``doc``."""
    return hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()


def dir_fingerprint(path: str) -> str:
    """Structural fingerprint of a shard directory: manifest bytes plus the
    sorted (name, size) listing, one level of per-shard subdirectories
    included (the ``chunked`` codec nests its blocks).

    Cheap by design — no shard-content hashing — so submitting against a
    large directory stays O(metadata).  Rewriting a shard with identical
    size but different bytes defeats it; save_dataset() never does that
    (shards are content-addressed by snapshot index and written once).
    """
    from repro.data.store import MANIFEST

    digest = hashlib.sha256()
    manifest = os.path.join(path, MANIFEST)
    try:
        with open(manifest, "rb") as fh:
            digest.update(fh.read())
    except FileNotFoundError:
        raise ValueError(
            f"no {MANIFEST} under {path!r} — not a save_dataset() directory"
        ) from None
    for name in sorted(os.listdir(path)):
        if name == MANIFEST or name.startswith("."):
            continue
        full = os.path.join(path, name)
        if os.path.isdir(full):
            for sub in sorted(os.listdir(full)):
                size = os.path.getsize(os.path.join(full, sub))
                digest.update(f"{name}/{sub}:{size};".encode("ascii"))
        else:
            digest.update(f"{name}:{os.path.getsize(full)};".encode("ascii"))
    return digest.hexdigest()


def source_fingerprint(
    source: str | None,
    *,
    dtype: str,
    scale: float,
    seed: int,
    max_cached: int | None = None,
    prefetch: int = 0,
) -> dict:
    """Identity document for a job's data source.

    ``None`` is the in-memory catalog dataset (fully determined by dtype,
    scale, seed); ``"sim"`` is the in-situ simulation source (same
    determinants); anything else is an :func:`~repro.data.open_source`
    spec whose directory gets a structural :func:`dir_fingerprint`.

    Remote-tier options (``latency_s``, ``bandwidth``) are part of the
    identity — they drive the virtual-time cost model, whose totals land
    in artifact metadata — as are ``max_cached`` / ``prefetch``, whose
    cache counters land in stream-mode ``result.meta["cache"]``.
    ``max_cached`` is recorded as given: callers pass the resolved value
    (:attr:`repro.runspec.RunSpec.cached_shards`).
    """
    base = {"dtype": dtype, "scale": float(scale), "seed": int(seed)}
    if source is None:
        return {"kind": "catalog", **base}
    if source == "sim":
        return {"kind": "sim", **base, "max_cached": max_cached}
    from repro.data.sources import _parse_source_spec

    scheme, path, options = _parse_source_spec(source)
    return {
        "kind": scheme,
        "content": dir_fingerprint(path),
        "options": {str(k): str(v) for k, v in options.items()},
        "max_cached": max_cached,
        "prefetch": int(prefetch),
        "dtype": dtype,
    }


#: meta fields dropped from artifact fingerprints: execution substrate and
#: provenance paths, none of which affect result bytes for a fixed identity.
_FINGERPRINT_VOLATILE = ("backend", "checkpoint", "resumed_from")


def artifact_fingerprint(kind: str, meta: dict) -> str:
    """Stable identity hash for a saved/loaded :class:`~repro.api.Artifact`.

    Canonicalizes the embedded case snapshot through
    :class:`~repro.utils.config.CaseConfig` (dict ordering and defaulted
    fields do not perturb the hash) and drops execution-only meta
    (backend, checkpoint paths) so artifacts that are byte-identical by
    the PR 6 backend-conformance contract fingerprint identically.
    """
    from repro.utils.config import CaseConfig

    ident = {k: v for k, v in meta.items() if k not in _FINGERPRINT_VOLATILE}
    case = ident.get("case")
    if isinstance(case, dict):
        ident["case"] = CaseConfig.from_dict(case).to_dict()
    return content_key({"kind": kind, "meta": ident})
