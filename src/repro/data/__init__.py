"""Dataset layer: Table 1 catalog, hypercube extraction, point sets, storage.

Maps the paper's data handling onto the synthetic substrates:

* :mod:`repro.data.points` — :class:`PointSet`, the unstructured sample table
  produced by phase-2 sampling (what the LSTM / MLP-Transformer consume),
* :mod:`repro.data.hypercubes` — tiling snapshots into 32³-style hypercubes
  (the paper's phase-1 unit; "full" baselines are fully dense hypercubes),
* :mod:`repro.data.dataset` — :class:`TurbulenceDataset`, snapshots plus the
  variable roles from Table 1 (input/output/K-means cluster variable),
* :mod:`repro.data.catalog` — the six datasets of Table 1 at configurable
  (scaled-down) resolution,
* :mod:`repro.data.loaders` — dtype-keyed loaders mirroring the paper's
  ``--dtype openfoam|sst-binary|gests`` flags, with shard persistence,
* :mod:`repro.data.codecs` — the shard-codec registry (``npz`` / ``raw`` /
  ``chunked`` on-disk layouts, self-described by the manifest),
* :mod:`repro.data.sources` — the stream-first :class:`SnapshotSource`
  ingestion protocol (in-memory / out-of-core sharded / remote-tiered /
  in-situ simulated), the single abstraction the sampling pipeline
  consumes, behind the :func:`open_source` factory,
* :mod:`repro.data.store` — saving feature-rich subsampled datasets and the
  storage-reduction accounting the paper advertises.
"""

from repro.data.points import PointSet
from repro.data.hypercubes import (
    Hypercube,
    hypercube_origins,
    extract_hypercube,
    extract_all_hypercubes,
)
from repro.data.dataset import TurbulenceDataset
from repro.data.catalog import CATALOG, build_dataset, dataset_summary
from repro.data.codecs import ShardCodec, codec_names, get_codec, register_codec
from repro.data.sources import (
    SnapshotSource,
    InMemorySource,
    ShardDirSource,
    RemoteTieredSource,
    SimulationSource,
    PartitionedSource,
    CacheCounters,
    aggregate_cache_info,
    open_source,
)
from repro.data.loaders import load_dataset, save_dataset, stream_dataset
from repro.data.store import OwnedShardLayout, SubsampleStore

__all__ = [
    "PointSet",
    "Hypercube",
    "hypercube_origins",
    "extract_hypercube",
    "extract_all_hypercubes",
    "TurbulenceDataset",
    "CATALOG",
    "build_dataset",
    "dataset_summary",
    "ShardCodec",
    "codec_names",
    "get_codec",
    "register_codec",
    "SnapshotSource",
    "InMemorySource",
    "ShardDirSource",
    "RemoteTieredSource",
    "SimulationSource",
    "PartitionedSource",
    "CacheCounters",
    "aggregate_cache_info",
    "open_source",
    "load_dataset",
    "save_dataset",
    "stream_dataset",
    "OwnedShardLayout",
    "SubsampleStore",
]
