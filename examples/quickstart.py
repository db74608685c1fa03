"""Quickstart: subsample a turbulence dataset and inspect what MaxEnt keeps.

Covers the 60-second SICKLE path through the :class:`repro.api.Experiment`
facade and the stream-first :class:`~repro.data.sources.SnapshotSource`
ingestion protocol:
  1. build a dataset from the Table 1 catalog and hand it to an Experiment
     via ``with_source`` (an in-memory source — the batch mode),
  2. run the two-phase MaxEnt pipeline (hypercube selection + point
     selection) at a 10% rate via ``Experiment...subsample()``,
  3. re-run the *same* pipeline out-of-core: shard the dataset to disk and
     subsample through a ``ShardDirSource`` that never holds more than
     two decoded shards — identical selections, bounded memory,
  4. compare the sampled subset's PDF against the population,
  5. persist the subsample as a first-class Artifact and report the
     storage reduction.

(For the third ingestion mode — in-situ sampling while the simulation
runs, including the multi-producer ``subsample(mode="stream", ranks=N)``
path where SPMD ranks stream concurrently and merge by weighted draw —
see ``examples/streaming_insitu.py`` and the README's "Multi-rank
streaming" section.)

Run:  python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

from repro.api import Experiment
from repro.data import ShardDirSource, build_dataset, save_dataset
from repro.metrics import pdf_match_js, tail_coverage
from repro.sampling import get_sampler
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig
from repro.viz import format_table


def make_case() -> CaseConfig:
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="maxent",     # phase 1: entropy-weighted cube choice
            method="maxent",         # phase 2: MaxEnt point selection
            num_hypercubes=6,
            num_samples=410,         # ~10% of a 16^3 cube
            num_clusters=8,
            nxsl=16, nysl=16, nzsl=16,
        ),
        train=TrainConfig(arch="mlp_transformer"),
    )


def main() -> None:
    print("Building SST-P1F4 (stratified turbulence) at reduced resolution...")
    dataset = build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=4)
    print(f"  grid {dataset.grid_shape}, {dataset.n_snapshots} snapshots, "
          f"{dataset.nbytes() / 1e6:.1f} MB raw")

    print("Running the two-phase pipeline on 2 simulated MPI ranks (batch)...")
    exp = (
        Experiment.from_case(make_case())
        .with_source(dataset)    # a TurbulenceDataset coerces to InMemorySource
        .with_ranks(2)
        .with_seed(0)
        .subsample()
    )
    result = exp.subsample_artifact.result
    print(f"  kept {result.n_samples} points from "
          f"{result.n_points_scanned} scanned ({result.meta['method']})")
    print(f"  virtual time {result.virtual_time:.3f} s; "
          f"energy {result.energy.total_energy:.2f} J")

    # The same subsample() runs out-of-core: shard the dataset to disk and
    # stream it back through a bounded LRU of decoded shards.
    with tempfile.TemporaryDirectory() as tmp:
        shard_dir = os.path.join(tmp, "shards")
        save_dataset(dataset, shard_dir)
        source = ShardDirSource(shard_dir, max_cached=2)
        ooc = (Experiment.from_case(make_case())
               .with_source(source).with_ranks(2).with_seed(0).subsample())
        ooc_result = ooc.subsample_artifact.result
        info = source.cache_info()
        assert np.array_equal(ooc_result.selected_cube_ids, result.selected_cube_ids)
        print(f"Out-of-core rerun over {source.n_snapshots} shards: identical "
              f"selections, never more than {info['gauges']['max_resident']} decoded "
              f"shard(s) resident ({info['counters']['evictions']} evictions).")

    # How well does the sample represent the population PDF?
    population = np.concatenate([s.get("pv").ravel() for s in dataset.snapshots])
    rows = []
    for method in ("random", "maxent"):
        feats = population.reshape(-1, 1)
        idx = get_sampler(method).sample(feats, 4000, rng=0)
        rows.append({
            "method": method,
            "js_divergence": pdf_match_js(population, population[idx]),
            "tail_coverage": tail_coverage(population, idx),
        })
    print()
    print(format_table(rows, title="Sample vs population PDF (cluster variable pv)"))

    # Artifacts are first-class: save, reload, and the metadata alone (seed +
    # config snapshot) is enough to reproduce the run.
    from repro.api import SubsampleArtifact

    with tempfile.TemporaryDirectory() as tmp:
        path = exp.subsample_artifact.save(os.path.join(tmp, "sst_maxent_10pct"))
        reloaded = SubsampleArtifact.load(path)
        assert reloaded.result.n_samples == result.n_samples
        factor = dataset.nbytes() / os.path.getsize(path)
        print(f"\nStored artifact is {factor:.0f}x smaller than the raw fields "
              f"(seed={reloaded.meta['seed']}, reproducible from metadata).")


if __name__ == "__main__":
    main()
