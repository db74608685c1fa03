"""Shard codecs: pluggable on-disk formats behind :class:`ShardDirSource`.

A shard directory written by :func:`repro.data.loaders.save_dataset` holds
one shard per snapshot plus a ``manifest.json``.  How a shard is laid out
on disk is the codec's business; everything above it — the bounded LRU,
the background prefetcher, reopened per-rank spans, the remote staging
tier — is codec-agnostic.  The registry mirrors the
Sampler/CubeSelector/StreamSampler registries: codecs register by name,
``save_dataset(codec=...)`` selects one at write time and stamps it into
the manifest (``"codec"``), and readers auto-detect it from there
(manifests without the key are ``npz``, the historical format).

Three codecs ship:

* ``npz`` — one ``snapshot_XXXXX.npz`` per snapshot (the original
  format), one zip member per array, every member stored, not deflated:
  deflate shrinks these float fields by only 4-6% and every read would
  inflate again.  A decode parses the zip's member table once
  (:class:`~repro.data.npyfile.NpzFile`), and each member read seeks
  straight to its entry, reads it whole and checks its size and CRC-32.
  Directories written while members were deflated read unchanged.
* ``raw`` — one ``snapshot_XXXXX.raw/`` directory per snapshot with an
  uncompressed ``.npy`` per variable: arrays are memory-mapped on decode
  (zero-copy — no decompression at all), and lazy decode of one variable
  never opens the others' files.
* ``chunked`` — one ``snapshot_XXXXX.chunked/`` directory per snapshot
  with each variable split into several ``.npy`` chunk files: lazy decode
  of one variable reads only that variable's chunks, and a partial
  reader could stop after any chunk boundary.

Every codec round-trips arrays bit-exactly (``.npy`` is a lossless
container), which the codec-golden tests pin per (seed, nranks).  Reads go
through :mod:`repro.data.npyfile`, never ``np.load``.

Besides the stored variables, a shard may persist *derived* variables
(``encode(..., derived=names)``): ``save_dataset`` stores the dataset's
cluster variable when it is derived rather than stored (SST-P1F4's
``pv``), so that readers decode one member instead of re-deriving it.  npz writes it as a
``der_<name>`` member; raw and chunked write it like a variable and list
it under ``"derived"`` in ``field.json``.  Decoders hand it back through
:class:`~repro.sim.fields.FlowField`'s ``derived=`` cache, never in
``variables``, and shards without it (written before it existed) derive
on read as before, with identical values.
"""

from __future__ import annotations

import abc
import json
import os
import shutil
from collections.abc import Sequence
from typing import ClassVar

import numpy as np

from repro.data.npyfile import NpzFile, load_npy
from repro.data.store import (
    LazyField,
    LazyMembers,
    load_field,
    load_field_lazy,
    save_field,
)
from repro.sim.fields import FlowField

__all__ = [
    "ShardCodec",
    "NpzCodec",
    "RawCodec",
    "ChunkedCodec",
    "CODECS",
    "register_codec",
    "get_codec",
    "codec_names",
]

#: per-shard metadata file inside directory-shaped shards (raw/chunked)
_SHARD_META = "field.json"


def _link_or_copy(src: str, dst: str) -> None:
    """Hardlink `src` to `dst`, copying when the filesystem refuses links
    (a staging tier on another device)."""
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


class ShardCodec(abc.ABC):
    """One on-disk layout for one snapshot shard.

    Implementations are stateless (the registry holds a single shared
    instance) and addressed by ``(directory, index)``: every method
    operates on shard ``index`` of a ``save_dataset`` directory.  The
    contract the stack above relies on:

    * :meth:`encode` / :meth:`decode` round-trip a
      :class:`~repro.sim.fields.FlowField` bit-exactly, persisted derived
      variables included (they come back as the field's derived cache);
    * :meth:`decode_lazy` returns a field whose ``variables`` is a real
      lazy Mapping (``materialize()`` / ``decoded_members()`` supported,
      ``nbytes()`` from metadata alone) and whose persisted derived
      variables decode lazily too;
    * :meth:`shard_time` reads the snapshot time without decoding arrays;
    * :meth:`shard_name` names the shard's single file or directory, so
      staging tiers can fetch and evict it as a unit.
    """

    #: registry key, stamped into manifests as ``"codec"``
    name: ClassVar[str]

    # ---- layout ------------------------------------------------------------

    @abc.abstractmethod
    def shard_name(self, index: int) -> str:
        """Basename (file or directory) holding shard `index`."""

    def shard_path(self, directory: str, index: int) -> str:
        return os.path.join(directory, self.shard_name(index))

    def shard_files(self, directory: str, index: int) -> list[str]:
        """Paths of every regular file composing shard `index` (for size
        accounting and integrity checks)."""
        path = self.shard_path(directory, index)
        if os.path.isfile(path):
            return [path]
        files = []
        for root, _, names in os.walk(path):
            files.extend(os.path.join(root, f) for f in sorted(names))
        return files

    def shard_disk_bytes(self, directory: str, index: int) -> int:
        """On-disk footprint of shard `index` (what a tier fetch moves)."""
        return sum(os.path.getsize(f) for f in self.shard_files(directory, index))

    def link_shard(self, src_dir: str, dst_dir: str, index: int) -> None:
        """Materialize shard `index` of `src_dir` in `dst_dir` via hardlinks
        (copies across filesystems) — the staging step of remote tiers."""
        src = self.shard_path(src_dir, index)
        dst = self.shard_path(dst_dir, index)
        if os.path.isfile(src):
            _link_or_copy(src, dst)
            return
        for root, _, names in os.walk(src):
            rel = os.path.relpath(root, src)
            target = dst if rel == "." else os.path.join(dst, rel)
            os.makedirs(target, exist_ok=True)
            for f in names:
                _link_or_copy(os.path.join(root, f), os.path.join(target, f))

    def remove_shard(self, directory: str, index: int) -> None:
        """Delete shard `index`'s file or directory (staging-tier evict)."""
        path = self.shard_path(directory, index)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif os.path.exists(path):
            os.remove(path)

    # ---- payload -----------------------------------------------------------

    @abc.abstractmethod
    def encode(
        self, directory: str, index: int, field: FlowField,
        derived: Sequence[str] = (),
    ) -> None:
        """Write `field` as shard `index` under `directory`, plus each
        derived variable named in `derived` (``field.get(name)``)."""

    @abc.abstractmethod
    def decode(self, directory: str, index: int) -> FlowField:
        """Read shard `index` eagerly (every variable resident)."""

    @abc.abstractmethod
    def decode_lazy(self, directory: str, index: int) -> LazyField:
        """Open shard `index` without reading arrays: geometry and time
        come from metadata, members decode on first access."""

    @abc.abstractmethod
    def shard_time(self, directory: str, index: int) -> float:
        """Snapshot time of shard `index`, without decoding arrays."""


#: name → shared codec instance (the registry readers auto-detect against)
CODECS: dict[str, ShardCodec] = {}


def register_codec(cls: type[ShardCodec]) -> type[ShardCodec]:
    """Class decorator: register a codec under its ``name``."""
    name = getattr(cls, "name", None)
    if not name:
        raise ValueError(f"{cls.__name__} needs a non-empty 'name' attribute")
    CODECS[name] = cls()
    return cls


def get_codec(name: str | ShardCodec) -> ShardCodec:
    """Resolve a codec by registry name (a codec instance passes through)."""
    if isinstance(name, ShardCodec):
        return name
    try:
        return CODECS[name]
    except KeyError:
        raise KeyError(
            f"unknown shard codec {name!r}; registered: {sorted(CODECS)}"
        ) from None


def codec_names() -> list[str]:
    return sorted(CODECS)


# ---------------------------------------------------------------------------
# npz — the historical format
# ---------------------------------------------------------------------------


@register_codec
class NpzCodec(ShardCodec):
    """One npz of stored (not deflated) members per snapshot
    (``save_field``'s format).  Directories written before the registry
    existed, or while members were deflated, read back through this codec
    unchanged, with identical values.  A persisted derived variable is one
    extra ``der_<name>`` member, which older readers ignore."""

    name = "npz"

    def shard_name(self, index: int) -> str:
        return f"snapshot_{index:05d}.npz"

    def encode(
        self, directory: str, index: int, field: FlowField,
        derived: Sequence[str] = (),
    ) -> None:
        save_field(self.shard_path(directory, index), field, derived)

    def decode(self, directory: str, index: int) -> FlowField:
        return load_field(self.shard_path(directory, index))

    def decode_lazy(self, directory: str, index: int) -> LazyField:
        return load_field_lazy(self.shard_path(directory, index))

    def shard_time(self, directory: str, index: int) -> float:
        # Members are read on access, so reading just the scalar "time"
        # entry never decodes the field arrays.
        return float(NpzFile(self.shard_path(directory, index))["time"])


# ---------------------------------------------------------------------------
# raw — memory-mapped .npy per variable
# ---------------------------------------------------------------------------


def _write_shard_meta(
    path: str, field: FlowField, derived: Sequence[str], extra: dict | None = None
) -> None:
    arr = next(iter(field.variables.values()))
    meta = {
        "time": field.time,
        "meta": field.meta,
        "variables": list(field.variables),
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        **({"derived": list(derived)} if derived else {}),
        **(extra or {}),
    }
    with open(os.path.join(path, _SHARD_META), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def _read_shard_meta(path: str) -> dict:
    with open(os.path.join(path, _SHARD_META), encoding="utf-8") as fh:
        return json.load(fh)


def _shard_arrays(field: FlowField, derived: Sequence[str]):
    """(name, array) for every stored variable, then every persisted
    derived one — what a directory-shaped shard writes a file set for."""
    yield from field.variables.items()
    for name in derived:
        yield name, field.get(name)


def _decode_dir_shard(meta: dict, load_var) -> FlowField:
    """Eager decode of a raw/chunked shard (its ``field.json`` is `meta`)
    through ``load_var(name)``."""
    return FlowField(
        variables={n: load_var(n) for n in meta["variables"]},
        time=meta["time"], meta=meta["meta"],
        derived={n: load_var(n) for n in meta.get("derived", ())},
    )


def _decode_dir_shard_lazy(meta: dict, load_var) -> LazyField:
    """Lazy decode of a raw/chunked shard (its ``field.json`` is `meta`):
    members load through ``load_var(name)`` on first access."""
    derived = meta.get("derived")
    return LazyField(
        LazyMembers(meta["variables"], load_var), tuple(meta["shape"]),
        np.dtype(meta["dtype"]).itemsize, meta["time"], meta["meta"],
        derived=LazyMembers(derived, load_var) if derived else None,
    )


@register_codec
class RawCodec(ShardCodec):
    """Uncompressed ``.npy`` per variable, decoded by memory mapping.

    ``decode`` returns fields whose arrays are ``np.memmap`` views — the
    kernel pages bytes in on touch, so "decode" copies nothing and evicting
    the shard from the LRU drops only page-cache references.  Lazy decode
    of one variable never opens the other variables' files.
    """

    name = "raw"

    def shard_name(self, index: int) -> str:
        return f"snapshot_{index:05d}.raw"

    def encode(
        self, directory: str, index: int, field: FlowField,
        derived: Sequence[str] = (),
    ) -> None:
        path = self.shard_path(directory, index)
        os.makedirs(path, exist_ok=True)
        for name, arr in _shard_arrays(field, derived):
            np.save(os.path.join(path, f"{name}.npy"), np.asarray(arr))
        _write_shard_meta(path, field, derived)

    def _load_var(self, path: str, name: str) -> np.ndarray:
        return load_npy(os.path.join(path, f"{name}.npy"), mmap=True)

    def decode(self, directory: str, index: int) -> FlowField:
        path = self.shard_path(directory, index)
        return _decode_dir_shard(
            _read_shard_meta(path), lambda n: self._load_var(path, n)
        )

    def decode_lazy(self, directory: str, index: int) -> LazyField:
        path = self.shard_path(directory, index)
        return _decode_dir_shard_lazy(
            _read_shard_meta(path), lambda n: self._load_var(path, n)
        )

    def shard_time(self, directory: str, index: int) -> float:
        return float(_read_shard_meta(self.shard_path(directory, index))["time"])


# ---------------------------------------------------------------------------
# chunked — per-variable chunk files
# ---------------------------------------------------------------------------


@register_codec
class ChunkedCodec(ShardCodec):
    """Each variable split into ``n_chunks`` flat ``.npy`` chunk files.

    The zarr-style trade: lazy decode of one variable reads exactly that
    variable's chunk files, and a partial reader could stop after any
    chunk boundary.  Chunk count is fixed at encode time and recorded in
    the shard metadata.
    """

    name = "chunked"

    #: chunks per variable (small shards store fewer: at most one row each)
    n_chunks = 4

    def shard_name(self, index: int) -> str:
        return f"snapshot_{index:05d}.chunked"

    def encode(
        self, directory: str, index: int, field: FlowField,
        derived: Sequence[str] = (),
    ) -> None:
        path = self.shard_path(directory, index)
        os.makedirs(path, exist_ok=True)
        n_chunks = None
        for name, arr in _shard_arrays(field, derived):
            flat = np.asarray(arr).reshape(-1)
            chunks = np.array_split(flat, min(self.n_chunks, max(1, flat.size)))
            n_chunks = len(chunks)
            for c, chunk in enumerate(chunks):
                np.save(os.path.join(path, f"{name}.c{c:04d}.npy"), chunk)
        _write_shard_meta(path, field, derived, extra={"n_chunks": n_chunks})

    def _load_var(self, path: str, name: str, meta: dict) -> np.ndarray:
        parts = [
            load_npy(os.path.join(path, f"{name}.c{c:04d}.npy"))
            for c in range(meta["n_chunks"])
        ]
        return np.concatenate(parts).reshape(meta["shape"])

    def decode(self, directory: str, index: int) -> FlowField:
        path = self.shard_path(directory, index)
        meta = _read_shard_meta(path)
        return _decode_dir_shard(meta, lambda n: self._load_var(path, n, meta))

    def decode_lazy(self, directory: str, index: int) -> LazyField:
        path = self.shard_path(directory, index)
        meta = _read_shard_meta(path)
        return _decode_dir_shard_lazy(meta, lambda n: self._load_var(path, n, meta))

    def shard_time(self, directory: str, index: int) -> float:
        return float(_read_shard_meta(self.shard_path(directory, index))["time"])
