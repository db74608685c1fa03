"""Persistence for fields, datasets, and subsampled point sets.

The paper highlights that SICKLE "provides a convenient way to significantly
reduce file storage requirements, by storing feature-rich subsampled
datasets"; :class:`SubsampleStore` implements that: compressed npz files of
PointSets plus the bookkeeping to report the storage-reduction factor
against the raw fields they came from.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterable, Mapping
from contextlib import AbstractContextManager

import numpy as np

from repro.data.npyfile import NpzFile
from repro.data.points import PointSet
from repro.sim.fields import FlowField

__all__ = [
    "SubsampleStore",
    "save_field",
    "load_field",
    "load_field_lazy",
    "LazyMembers",
    "LazyField",
    "points_payload",
    "points_from_npz",
    "read_manifest",
    "write_manifest",
    "META_KEY",
    "MANIFEST",
]

#: npz entry holding the JSON-encoded metadata, shared by every serializer
#: in this repo (SubsampleStore, field snapshots, repro.api artifacts).
META_KEY = "__meta_json__"
_META_KEYS = META_KEY

#: dataset-directory manifest name, shared by save_dataset/load_dataset and
#: the out-of-core :class:`repro.data.sources.ShardDirSource`.
MANIFEST = "manifest.json"


def write_manifest(path: str, manifest: dict) -> None:
    """Atomically write a shard-directory manifest (tmp file + rename).

    The manifest is the last thing a writer produces and the first thing
    :class:`~repro.data.sources.ShardDirSource` validates, so it doubles as
    the directory's commit record: a writer killed mid-``json.dump`` must
    not leave a truncated ``manifest.json`` that readers would silently
    open.  ``os.replace`` makes the final step atomic on POSIX and Windows.
    """
    final = os.path.join(path, MANIFEST)
    tmp = final + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)


def read_manifest(path: str) -> dict:
    """Read a shard-directory manifest, failing clearly when absent."""
    manifest_path = os.path.join(path, MANIFEST)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"no {MANIFEST} under {path!r} — not a save_dataset() directory"
        )
    with open(manifest_path, encoding="utf-8") as fh:
        return json.load(fh)


def points_payload(points: PointSet) -> dict[str, np.ndarray]:
    """The canonical npz array payload for one PointSet (sans meta).

    Shared by :class:`SubsampleStore` and :mod:`repro.api` artifacts so the
    on-disk format has exactly one definition.
    """
    payload: dict[str, np.ndarray] = {f"val_{k}": v for k, v in points.values.items()}
    payload["coords"] = points.coords
    payload["time"] = np.asarray(points.time)
    return payload


def points_from_npz(data, meta: dict | None = None) -> PointSet:
    """Rebuild a PointSet from an npz (an :class:`NpzFile`) written with
    :func:`points_payload`."""
    values = {k[4:]: data[k] for k in data if k.startswith("val_")}
    time = data["time"]
    return PointSet(
        coords=data["coords"],
        values=values,
        time=float(time) if time.ndim == 0 else time,
        meta=dict(meta) if meta else {},
    )


def save_field(path: str, field: FlowField, derived: Iterable[str] = ()) -> None:
    """Save one snapshot as an npz at `path`, every member stored, not
    deflated.

    Stored variables land in ``var_<name>`` members; each name in `derived`
    is computed through ``field.get`` and persisted as a ``der_<name>``
    member, which :func:`load_field` / :func:`load_field_lazy` hand back as
    the field's precomputed derived values (readers that predate the
    member ignore it).  zlib shrinks these float fields by only 4-6%, and
    inflating a 128 KiB member on every read took 15 times as long as
    reading it stored (0.75 against 0.05 ms on a 2-core x86-64 host), so
    a member read is one ``readinto`` plus its CRC-32 check.
    """
    payload: dict[str, np.ndarray] = {f"var_{k}": v for k, v in field.variables.items()}
    payload["time"] = np.array(field.time)
    payload[_META_KEYS] = np.array(json.dumps(field.meta))
    payload.update({f"der_{k}": field.get(k) for k in derived})
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_field(path: str) -> FlowField:
    """Load a snapshot saved by :func:`save_field`."""
    data = NpzFile(path)
    return FlowField(
        variables={k[4:]: data[k] for k in data if k.startswith("var_")},
        time=float(data["time"]), meta=_npz_meta(data),
        derived={k[4:]: data[k] for k in data if k.startswith("der_")},
    )


def _npz_meta(data: NpzFile) -> dict:
    """The JSON metadata member of an npz, or ``{}`` when it has none."""
    return json.loads(str(data[_META_KEYS])) if _META_KEYS in data else {}


class LazyMembers(Mapping):
    """Mapping of variable name → array that decodes members on first
    access, whatever the codec underneath.

    ``load_one(name)`` decodes a single member (an npz shard's loader reads
    it through the member table parsed once at decode time, so a member
    read never rescans the zip directory).  A consumer that only reads the
    cluster variable pays for exactly that member.  Iteration/`in`/`len`
    reflect the full member list without decoding; anything that needs the
    arrays (``[key]``, ``get``, ``values()``, ``items()``, ``dict(...)``)
    decodes what it touches.  A real :class:`collections.abc.Mapping` (not
    a dict subclass), so every generic mapping operation routes through
    ``__getitem__`` — there is no C fast path that could silently skip the
    decode.
    """

    def __init__(
        self, members: Iterable[str], load_one: Callable[[str], np.ndarray]
    ) -> None:
        self._members = tuple(members)
        self._load_one = load_one
        self._decoded: dict[str, np.ndarray] = {}
        self._decode_lock = threading.Lock()

    def __getitem__(self, key: str) -> np.ndarray:
        # Benign race: atomic dict read of an immutable entry — a miss just
        # falls through to the locked decode path below.
        arr = self._decoded.get(key)  # repro-lint: ignore[RPL003]
        if arr is not None:
            return arr
        if key not in self._members:
            raise KeyError(key)
        with self._decode_lock:
            if key in self._decoded:  # racing thread decoded it
                return self._decoded[key]
            arr = self._load_one(key)
            self._decoded[key] = arr
            return arr

    def __contains__(self, key: object) -> bool:
        return key in self._members

    def __iter__(self):
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def around_load(self, guard: Callable[[], AbstractContextManager]) -> None:
        """Run every deferred member read inside ``with guard():``
        (already-decoded members are unaffected).  Tiered sources use this
        to re-stage shard files a bounded staging tier may have evicted
        since decode time, and to keep them pinned until the read is done."""
        load_one = self._load_one

        def guarded_one(key: str) -> np.ndarray:
            with guard():
                return load_one(key)

        self._load_one = guarded_one

    def decode_all(self) -> None:
        """Decode every member not decoded yet (the prefetcher's path)."""
        with self._decode_lock:
            for k in self._members:
                if k not in self._decoded:
                    self._decoded[k] = self._load_one(k)

    def decoded(self) -> list[str]:
        """Members decoded so far (test/diagnostic hook)."""
        with self._decode_lock:
            return sorted(self._decoded)


class LazyField(FlowField):
    """A :class:`FlowField` view with per-variable lazy decode: geometry
    comes from shard metadata, and each stored variable is read only when
    first accessed (derived variables still compose on top via
    :meth:`FlowField.get`).  Codecs build these through
    :class:`LazyMembers` with their own member loaders; ``derived`` holds
    the shard's persisted derived members, decoded on first ``get``."""

    def __init__(
        self,
        members: LazyMembers,
        grid_shape: tuple[int, ...],
        itemsize: int,
        time: float,
        meta: dict | None = None,
        derived: LazyMembers | None = None,
    ) -> None:
        # Deliberately skip FlowField.__init__: nothing is decoded yet, so
        # there are no arrays to validate against each other.
        self.variables = members
        self.time = float(time)
        self.meta = dict(meta or {})
        self._seed_cache(derived)
        self._lazy = (members,) if derived is None else (members, derived)
        self._lazy_shape = tuple(grid_shape)
        self._itemsize = int(itemsize)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self._lazy_shape

    def nbytes(self) -> int:
        """Would-be decoded footprint, from metadata alone (no decode)."""
        return int(np.prod(self._lazy_shape)) * self._itemsize * len(self.variables)

    def materialize(self) -> LazyField:
        """Decode every stored and persisted derived member (the
        prefetcher's eager path)."""
        for members in self._lazy:
            members.decode_all()
        return self

    def around_load(self, guard: Callable[[], AbstractContextManager]) -> None:
        """:meth:`LazyMembers.around_load` for every deferred member."""
        for members in self._lazy:
            members.around_load(guard)

    def decoded_members(self) -> list[str]:
        """Stored members decoded so far (test/diagnostic hook)."""
        return self.variables.decoded()


def load_field_lazy(path: str) -> LazyField:
    """Open a snapshot saved by :func:`save_field` without decoding fields.

    Parses the npz member table once and reads the scalar ``time``, the
    JSON meta and the first member's npy header (the geometry, from its
    first bytes); array members, persisted derived ones included, decode
    individually on first access through that same table — each is its
    own zip entry, so decoding one never reads the others.  Shards written
    while members were deflated read the same way.
    """
    data = NpzFile(path)
    members = [k[4:] for k in data if k.startswith("var_")]
    if not members:
        raise ValueError(f"{path!r} holds no field variables")
    derived = [k[4:] for k in data if k.startswith("der_")]
    header = data.header(f"var_{members[0]}")
    return LazyField(
        LazyMembers(members, lambda k: data[f"var_{k}"]), header.shape,
        header.dtype.itemsize, float(data["time"]), _npz_meta(data),
        derived=LazyMembers(derived, lambda k: data[f"der_{k}"]) if derived else None,
    )


class SubsampleStore:
    """Directory of compressed subsampled PointSets with size accounting."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        if os.sep in name or name.startswith("."):
            raise ValueError(f"invalid store entry name {name!r}")
        return os.path.join(self.root, f"{name}.npz")

    def save(self, name: str, points: PointSet) -> str:
        """Persist one PointSet; returns the file path."""
        payload = points_payload(points)
        payload[_META_KEYS] = np.array(json.dumps(points.meta))
        path = self._path(name)
        np.savez_compressed(path, **payload)
        return path

    def load(self, name: str) -> PointSet:
        data = NpzFile(self._path(name))
        return points_from_npz(data, _npz_meta(data))

    def entries(self) -> list[str]:
        return sorted(
            os.path.splitext(f)[0] for f in os.listdir(self.root) if f.endswith(".npz")
        )

    def stored_bytes(self, name: str) -> int:
        """On-disk (compressed) size of one entry."""
        return os.path.getsize(self._path(name))

    def reduction_factor(self, name: str, raw_bytes: int) -> float:
        """Raw-field bytes divided by stored subsample bytes."""
        stored = self.stored_bytes(name)
        if stored <= 0:
            raise ValueError("stored entry is empty")
        return raw_bytes / stored
