"""dtype-keyed dataset loaders, mirroring the paper's ``--dtype`` flags.

The paper ships "a custom dataloader ... to read the dataset, under the
'dataloaders' directory" for each dtype (``openfoam``, ``sst-binary``,
``gests``, ``interpolated``).  Here each dtype maps to a catalog label; when
``path`` points at a directory previously written by :func:`save_dataset`
the snapshots are read back from disk (exercising the I/O path), otherwise
the dataset is generated on the fly.
"""

from __future__ import annotations

import os

import numpy as np

from repro.data.catalog import CATALOG, build_dataset, snapshot_stream_factory
from repro.data.codecs import get_codec
from repro.data.dataset import TurbulenceDataset
from repro.data.sources import SimulationSource
from repro.data.store import MANIFEST, read_manifest, write_manifest
from repro.sim.fields import DERIVED_VARIABLES

__all__ = ["DTYPE_TO_LABEL", "load_dataset", "save_dataset", "stream_dataset"]

#: --dtype flag -> default catalog label
DTYPE_TO_LABEL = {
    "openfoam": "OF2D",
    "interpolated": "OF2D",
    "tc2d": "TC2D",
    "sst-binary": "SST-P1F4",
    "sst-binary-f100": "SST-P1F100",
    "gests": "GESTS-2048",
    "gests-8192": "GESTS-8192",
}

_MANIFEST = MANIFEST


def save_dataset(dataset: TurbulenceDataset, path: str, codec: str = "npz") -> None:
    """Write a dataset as one shard per snapshot plus a manifest.

    ``codec`` picks the shard layout from the
    :mod:`~repro.data.codecs` registry (``npz``, one zip of stored, not
    deflated, members per shard, the default; ``raw`` and ``chunked`` give
    zero-copy / per-chunk reads).  The chosen codec is stamped into the
    manifest, so readers auto-detect it.  No codec compresses: deflate
    shrinks these float fields by only a few percent, and every read would
    pay to inflate them again.

    When ``cluster_var`` is derived rather than stored (SST-P1F4's
    ``pv``), every shard also persists it, computed by the same
    :data:`~repro.sim.fields.DERIVED_VARIABLES` function a reader would
    run: readers then decode that one member instead of its inputs, with
    bit-identical values.  It costs one extra member per shard (older
    readers ignore the member, and older directories derive on read).

    The manifest also records each shard's ``cluster_var`` (min, max)
    under ``"value_ranges"`` — a per-shard zone map, like Parquet's column
    statistics — so phase 1 can agree on its histogram range without
    decoding shards (see :meth:`SnapshotSource.stored_range`).  A dataset
    with a non-finite value there records no ranges.

    The manifest is written *last* and atomically (tmp + rename): it is the
    directory's commit record — a writer killed mid-save leaves no
    ``manifest.json``, so :class:`~repro.data.sources.ShardDirSource`
    refuses the half-built directory instead of silently serving a
    truncated dataset.
    """
    codec_obj = get_codec(codec)
    os.makedirs(path, exist_ok=True)
    cluster_var = dataset.cluster_var
    derived = (
        (cluster_var,)
        if cluster_var in DERIVED_VARIABLES
        and cluster_var not in dataset.snapshots[0].variables
        else ()
    )
    ranges = []
    for i, snap in enumerate(dataset.snapshots):
        codec_obj.encode(path, i, snap, derived)
        values = snap.get(cluster_var)
        ranges.append([float(values.min()), float(values.max())])
    manifest = {
        "label": dataset.label,
        "description": dataset.description,
        "input_vars": dataset.input_vars,
        "output_vars": dataset.output_vars,
        "cluster_var": dataset.cluster_var,
        "gravity": dataset.gravity,
        "n_snapshots": dataset.n_snapshots,
        "target": dataset.target.tolist() if dataset.target is not None else None,
        "codec": codec_obj.name,
    }
    if np.isfinite(ranges).all():
        manifest["value_ranges"] = {cluster_var: ranges}
    write_manifest(path, manifest)


def _load_saved(path: str) -> TurbulenceDataset:
    manifest = read_manifest(path)
    codec = get_codec(manifest.get("codec", "npz"))
    snaps = [codec.decode(path, i) for i in range(manifest["n_snapshots"])]
    target = manifest.get("target")
    return TurbulenceDataset(
        label=manifest["label"],
        snapshots=snaps,
        input_vars=manifest["input_vars"],
        output_vars=manifest["output_vars"],
        cluster_var=manifest["cluster_var"],
        gravity=manifest.get("gravity", "none"),
        description=manifest.get("description", ""),
        target=np.asarray(target) if target is not None else None,
    )


def load_dataset(
    dtype: str,
    path: str | None = None,
    scale: float = 1.0,
    rng=None,
    **overrides,
) -> TurbulenceDataset:
    """Load (from `path`) or generate (from the catalog) a dataset by dtype."""
    if path is not None and os.path.isfile(os.path.join(path, _MANIFEST)):
        return _load_saved(path)
    try:
        label = DTYPE_TO_LABEL[dtype]
    except KeyError:
        raise KeyError(f"unknown dtype {dtype!r}; available: {sorted(DTYPE_TO_LABEL)}") from None
    return build_dataset(label, scale=scale, rng=rng, **overrides)


def stream_dataset(
    dtype: str,
    scale: float = 1.0,
    seed: int | None = 0,
    n_snapshots: int | None = None,
    max_cached: int = 1,
    **overrides,
) -> SimulationSource:
    """An in-situ :class:`SimulationSource` for a dtype — nothing materialized.

    The returned source generates snapshots on demand from the catalog's
    deterministic simulation (seeded by `seed`, so replays after eviction
    reproduce the same fields) and keeps at most ``max_cached`` of them.
    Per-snapshot global targets (OF2D's drag series) are a whole-run
    property and stay None here; drag workflows need the batch loader.
    """
    try:
        label = DTYPE_TO_LABEL[dtype]
    except KeyError:
        raise KeyError(f"unknown dtype {dtype!r}; available: {sorted(DTYPE_TO_LABEL)}") from None
    entry = CATALOG[label]
    n, factory = snapshot_stream_factory(
        label, scale=scale, seed=seed, n_snapshots=n_snapshots, **overrides
    )
    return SimulationSource(
        factory,
        n,
        label=label,
        input_vars=list(entry.input_vars),
        output_vars=list(entry.point_output_vars),
        cluster_var=entry.kcv,
        gravity=entry.gravity,
        description=entry.description,
        max_cached=max_cached,
    )
