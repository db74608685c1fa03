"""High-level experiment facade — the repo's front door.

One fluent chain drives the paper's whole T1 → T2 workflow::

    from repro.api import Experiment

    report = (
        Experiment.from_case("case.yaml")
        .with_ranks(32)
        .with_seed(7)
        .subsample()
        .train()
        .report()
    )

``from_case`` accepts a YAML path, a raw dict, or a built
:class:`~repro.utils.config.CaseConfig`.

Data enters through the stream-first :class:`~repro.data.sources.SnapshotSource`
protocol — one ``with_source`` for every ingestion mode, resolved by
:func:`~repro.data.sources.open_source`::

    exp = Experiment.from_case("case.yaml")

    exp.with_source(build_dataset("SST-P1F4"))            # batch (in-memory)
    exp.with_source("snapshots/")                         # out-of-core shards
    exp.with_source("raw+dir://snapshots/")               # pin a shard codec
    exp.with_source("remote://snapshots/?latency_s=0.01") # simulated remote tier
    exp.with_source(stream_dataset("sst-binary"))         # in-situ simulation

(a bare :class:`~repro.data.dataset.TurbulenceDataset` or a built
:class:`~repro.data.sources.SnapshotSource` is accepted directly;
``with_dataset`` remains as sugar).  The
two-phase pipeline fetches snapshots through the source on demand, so
out-of-core and in-situ runs never hold the dataset resident;
``subsample(mode="stream")`` switches to the single-pass streaming samplers
(reservoir / online MaxEnt) for true sampling-while-the-simulation-runs.

Every stage call records a first-class artifact —
:class:`SubsampleArtifact` / :class:`TrainArtifact` — that can be persisted
with ``save(path)`` and resurrected with ``Artifact.load(path)``; saved
artifacts embed the seed and a full config snapshot, so a stored result is
reproducible from its metadata alone.

The CLIs (:mod:`repro.cli`) and the serve runner are thin shells over this
facade (:meth:`Experiment.from_spec`); the figure examples call the pipeline
and :class:`~repro.train.loop.TrainLoop` directly.  Under the hood each
stage runs the composable :class:`~repro.sampling.stages.SubsamplePipeline`,
so anything registered with ``register_sampler`` / ``register_selector`` /
``register_stream_sampler`` is available here too.  Subsample and train
ranks alike launch through the one SPMD driver (:mod:`repro.driver`), which
gives each rank its source view.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.data import load_dataset
from repro.data.dataset import TurbulenceDataset
from repro.data.npyfile import NpzFile
from repro.data.points import PointSet
from repro.data.sources import InMemorySource, SnapshotSource, open_source
from repro.data.store import META_KEY as _META_KEY
from repro.data.store import points_from_npz, points_payload
from repro.driver import run_ranks
from repro.energy.meter import EnergyMeter
from repro.runspec import RunSpec, check_stage
from repro.sampling.pipeline import SubsampleResult, subsample
from repro.train import build_drag_data, build_reconstruction_data
from repro.train.callbacks import Checkpoint
from repro.train.data import stream_assembler
from repro.train.feeds import ArrayFeed, ShardedFeed, StreamFeed
from repro.train.loop import TrainLoop, TrainResult
from repro.train.tuning import SearchSpace, Trial, default_search_space
from repro.train.tuning import tune as _tune
from repro.utils.config import CaseConfig

__all__ = [
    "Artifact",
    "SubsampleArtifact",
    "TrainArtifact",
    "TuneArtifact",
    "Experiment",
    "build_model_for_case",
]


def build_model_for_case(case: CaseConfig, data, input_dim: int | None = None, rng=0):
    """Instantiate the Table 2 architecture named by ``train.arch``."""
    from repro.nn.models import CNNTransformer, LSTMRegressor, MATEY, MLPTransformer

    arch = case.train.arch
    if arch == "lstm":
        if input_dim is None:
            raise ValueError("lstm needs input_dim")
        return LSTMRegressor(input_dim=input_dim, horizon=case.train.horizon, rng=rng)
    common = dict(
        in_channels=data.in_channels, out_channels=data.out_channels, grid=data.grid,
        window=case.train.window, horizon=case.train.horizon,
        d_model=32, depth=1, n_heads=2, rng=rng,
    )
    if arch == "mlp_transformer":
        return MLPTransformer(n_points=data.n_points, **common)
    if arch == "cnn_transformer":
        return CNNTransformer(**common)
    if arch == "matey":
        return MATEY(patch=min(8, min(data.grid) // 2), **common)
    raise ValueError(f"unknown arch {arch!r}")


@dataclass
class Artifact:
    """A first-class, persistable stage result.

    Subclasses implement ``save(path) -> path`` and the ``load(path)``
    classmethod; every artifact carries the seed and a config snapshot in
    ``meta`` so it is reproducible without the originating script.
    """

    kind: ClassVar[str] = "artifact"

    meta: dict = field(default_factory=dict)

    def save(self, path: str) -> str:
        raise NotImplementedError

    @classmethod
    def load(cls, path: str) -> Artifact:
        raise NotImplementedError

    def summary(self) -> str:
        return f"[{self.kind}] {self.meta}"

    def fingerprint(self) -> str:
        """Stable sha256 identity of this artifact.

        Hashes the kind plus a canonicalized rendering of ``meta`` (the
        embedded case snapshot is re-normalized through
        :class:`~repro.utils.config.CaseConfig`, so dict ordering and
        defaulted fields do not perturb it; execution-only fields such as
        the SPMD backend are dropped — artifacts that are byte-identical
        by the backend-conformance contract fingerprint identically).
        This is the same identity scheme ``repro-serve`` dedupes jobs by;
        see :mod:`repro.serve.keys`.
        """
        from repro.serve.keys import artifact_fingerprint

        return artifact_fingerprint(self.kind, self.meta)


@dataclass
class SubsampleArtifact(Artifact):
    """Wraps a :class:`~repro.sampling.stages.SubsampleResult`."""

    kind: ClassVar[str] = "subsample"

    result: SubsampleResult | None = None

    @property
    def points(self) -> PointSet | None:
        return self.result.points if self.result is not None else None

    @property
    def selected_cube_ids(self) -> np.ndarray:
        return self.result.selected_cube_ids

    def summary(self) -> str:
        res = self.result
        lines = [
            f"Subsampled {res.n_samples} points/cells from "
            f"{res.n_points_scanned} scanned "
            f"(H{res.meta.get('hypercubes', '?')}-X{res.meta.get('method', '?')})",
            f"Elapsed Time: {res.virtual_time:.3f} s",
        ]
        if res.energy is not None:
            lines.append(res.energy.report())
        return "\n".join(lines)

    def save(self, path: str) -> str:
        """Persist as one compressed npz (points or dense cubes + JSON meta).

        The PointSet payload shares its format with
        :class:`repro.data.store.SubsampleStore`; ``method='full'`` results
        store every dense cube's variable blocks alongside their origins.
        """
        res = self.result
        if res is None:
            raise ValueError("artifact holds no result")
        payload: dict[str, np.ndarray] = {
            "selected_cube_ids": np.asarray(res.selected_cube_ids),
        }
        cube_meta = None
        if res.points is not None:
            payload.update(points_payload(res.points))
        elif res.cubes is not None:
            cube_meta = []
            for i, cube in enumerate(res.cubes):
                for var, block in cube.variables.items():
                    payload[f"cube{i}_{var}"] = block
                cube_meta.append({
                    "origin": list(cube.origin),
                    "shape": list(cube.shape),
                    "time": float(cube.time),
                    "meta": cube.meta,
                    "variables": sorted(cube.variables),
                })
        meta = {
            **self.meta,
            # The config snapshot is stored once, at artifact level; cache
            # counters vary with prefetch timing, so they stay in memory.
            "result_meta": {k: v for k, v in res.meta.items() if k not in ("case", "cache")},
            "points_meta": res.points.meta if res.points is not None else None,
            "cubes": cube_meta,
            "n_candidate_cubes": res.n_candidate_cubes,
            "n_points_scanned": res.n_points_scanned,
            "virtual_time": res.virtual_time,
            "total_energy": res.energy.total_energy if res.energy is not None else None,
        }
        payload[_META_KEY] = np.array(json.dumps(meta))
        if not path.endswith(".npz"):
            path = path + ".npz"
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, **payload)
        return path

    @classmethod
    def load(cls, path: str) -> SubsampleArtifact:
        """Rebuild the artifact (minus live energy meters) from ``save`` output."""
        from repro.data.hypercubes import Hypercube

        if not path.endswith(".npz"):
            path = path + ".npz"
        data = NpzFile(path)
        meta = json.loads(str(data[_META_KEY])) if _META_KEY in data else {}
        points = None
        cubes = None
        if "coords" in data:
            points = points_from_npz(data, meta.get("points_meta"))
        elif meta.get("cubes"):
            cubes = [
                Hypercube(
                    origin=tuple(int(o) for o in cm["origin"]),
                    shape=tuple(int(s) for s in cm["shape"]),
                    variables={v: data[f"cube{i}_{v}"] for v in cm["variables"]},
                    time=cm["time"],
                    meta=cm.get("meta") or {},
                )
                for i, cm in enumerate(meta["cubes"])
            ]
        result_meta = meta.get("result_meta") or {}
        if "case" in meta:
            result_meta = {**result_meta, "case": meta["case"]}
        result = SubsampleResult(
            points=points,
            cubes=cubes,
            selected_cube_ids=data["selected_cube_ids"],
            n_candidate_cubes=int(meta.get("n_candidate_cubes", 0)),
            n_points_scanned=int(meta.get("n_points_scanned", 0)),
            energy=None,
            virtual_time=float(meta.get("virtual_time", 0.0)),
            meta=result_meta,
        )
        art_meta = {k: v for k, v in meta.items()
                    if k not in ("result_meta", "points_meta", "cubes")}
        return cls(meta=art_meta, result=result)


@dataclass
class TrainArtifact(Artifact):
    """Wraps a :class:`~repro.train.loop.TrainResult`."""

    kind: ClassVar[str] = "train"

    result: TrainResult | None = None

    def summary(self) -> str:
        return self.result.report()

    def save(self, path: str) -> str:
        """Persist the loss curves and metadata as JSON."""
        res = self.result
        if res is None:
            raise ValueError("artifact holds no result")
        if not path.endswith(".json"):
            path = path + ".json"
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        doc = {
            "meta": self.meta,
            "train_losses": [float(v) for v in res.train_losses],
            "test_losses": [float(v) for v in res.test_losses],
            "best_test_loss": float(res.best_test_loss),
            "final_test_loss": float(res.final_test_loss),
            "epochs_run": int(res.epochs_run),
            "lr_reductions": int(res.lr_reductions),
            "result_meta": res.meta,
            "total_energy": res.energy.total_energy if res.energy is not None else None,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        return path

    @classmethod
    def load(cls, path: str) -> TrainArtifact:
        if not path.endswith(".json"):
            path = path + ".json"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        result = TrainResult(
            train_losses=doc["train_losses"],
            test_losses=doc["test_losses"],
            best_test_loss=doc["best_test_loss"],
            final_test_loss=doc["final_test_loss"],
            epochs_run=doc["epochs_run"],
            energy=EnergyMeter(),
            lr_reductions=doc["lr_reductions"],
            meta=doc.get("result_meta") or {},
        )
        return cls(meta=doc.get("meta") or {}, result=result)


@dataclass
class TuneArtifact(Artifact):
    """Wraps a hyperparameter search (:func:`repro.train.tuning.tune`)."""

    kind: ClassVar[str] = "tune"

    best: Trial | None = None
    trials: list = field(default_factory=list)

    def summary(self) -> str:
        if self.best is None:
            return "(no trials run)"
        cfg = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in self.best.config.items())
        return (f"Best of {len(self.trials)} trials: {cfg} "
                f"(test loss {self.best.score:.6f})")

    def save(self, path: str) -> str:
        if self.best is None:
            raise ValueError("artifact holds no result")
        if not path.endswith(".json"):
            path = path + ".json"
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        def score_of(trial: Trial):
            # Diverged trials carry score=inf, which json.dump would emit
            # as the non-RFC token `Infinity`; store null instead.
            s = float(trial.score)
            return s if np.isfinite(s) else None

        doc = {
            "meta": self.meta,
            "best": {"config": self.best.config, "score": score_of(self.best)},
            "trials": [
                {"config": t.config, "score": score_of(t)} for t in self.trials
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        return path

    @classmethod
    def load(cls, path: str) -> TuneArtifact:
        if not path.endswith(".json"):
            path = path + ".json"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)

        def as_score(value) -> float:
            return float("inf") if value is None else float(value)

        trials = [Trial(config=t["config"], score=as_score(t["score"]))
                  for t in doc["trials"]]
        best = Trial(config=doc["best"]["config"], score=as_score(doc["best"]["score"]))
        return cls(meta=doc.get("meta") or {}, best=best, trials=trials)


class Experiment:
    """Fluent builder + runner for one SICKLE case.

    ``with_*`` methods configure and return ``self`` (chainable); ``subsample``,
    ``train`` and ``tune`` execute a stage and record its artifact; ``report``
    renders everything run so far.  Stages only run once — calling ``train``
    without ``subsample`` triggers the subsample stage implicitly.  The
    setters only record: each stage call checks its settings and arguments
    as a :class:`~repro.runspec.RunSpec` before it does any work.
    """

    def __init__(self, case: CaseConfig) -> None:
        self.case = case
        self.ranks = 1          # simulated MPI ranks for the subsample SPMD run
        self.train_ranks = 1    # simulated DDP ranks for training
        self.backend = "thread"  # SPMD substrate: "thread" or "process"
        self.stream_shuffle = 0  # ShuffleBuffer capacity for stream feeds
        self.seed = 0
        self.scale = 1.0
        self.epochs: int | None = None
        self.artifacts: dict[str, Artifact] = {}
        self._source: SnapshotSource | None = None
        self._source_explicit = False

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_case(cls, case: str | dict[str, Any] | CaseConfig) -> Experiment:
        """Build from a YAML path, a raw config dict, or a CaseConfig."""
        if isinstance(case, CaseConfig):
            cfg = case
        elif isinstance(case, dict):
            cfg = CaseConfig.from_dict(case)
        else:
            cfg = CaseConfig.from_file(str(case))
        return cls(cfg)

    @classmethod
    def from_spec(cls, spec: RunSpec, case: CaseConfig) -> Experiment:
        """The experiment a validated spec describes (the inverse of
        :meth:`_stage_spec`); the caller opens the spec's source."""
        exp = (cls(case).with_seed(spec.seed).with_scale(spec.scale)
               .with_backend(spec.backend).with_epochs(spec.epochs)
               .with_stream_shuffle(spec.stream_shuffle))
        if spec.kind == "subsample" or spec.mode == "stream":
            # Stream training's implicit subsample reuses the ranks (one stream
            # producer per rank).  Batch subsample output is nranks-dependent,
            # so batch training keeps the single-rank subsample.
            exp.with_ranks(spec.ranks)
        if spec.kind != "subsample":
            exp.with_train_ranks(spec.ranks)
        return exp

    def _stage_spec(self, kind: str, mode: str = "batch", **call) -> RunSpec:
        """The checked spec of a ``kind`` stage call: the settings that stage
        uses (a fit's ranks are the train ranks), overridden by ``call``."""
        if kind == "subsample":
            held = {"ranks": self.ranks}
        else:
            held = {"ranks": self.train_ranks, "epochs": self.epochs,
                    "stream_shuffle": self.stream_shuffle}
        spec = RunSpec(kind=kind, case=self.case.to_dict(), seed=self.seed,
                       scale=self.scale, mode=mode, backend=self.backend,
                       **{**held, **call})
        check_stage(spec, self._source, self.case.subsample.method, "facade")
        return spec

    # ---- fluent configuration --------------------------------------------

    def with_ranks(self, n: int) -> Experiment:
        """Simulated MPI ranks for the subsample phase (``srun -n N``)."""
        self.ranks = int(n)
        return self

    def with_train_ranks(self, n: int) -> Experiment:
        """Simulated DDP ranks for the training phase."""
        self.train_ranks = int(n)
        return self

    def with_backend(self, backend: str) -> Experiment:
        """SPMD substrate for every parallel stage: ``"thread"`` (virtual-time
        modeling, the default) or ``"process"`` (forked workers with
        shared-memory transport — real wall-clock parallelism).  Results are
        byte-identical across backends for the same (seed, ranks)."""
        self.backend = backend
        return self

    def with_stream_shuffle(self, capacity: int) -> Experiment:
        """Shuffle-buffer capacity for stream-mode training feeds (see
        :class:`~repro.train.feeds.ShuffleBuffer`).  ``0`` (the default)
        keeps arrival order, byte-identical to pre-shuffle fits."""
        self.stream_shuffle = int(capacity)
        return self

    def with_seed(self, seed: int) -> Experiment:
        self.seed = int(seed)
        self._invalidate_dataset()
        return self

    def with_scale(self, scale: float) -> Experiment:
        """Dataset resolution scale (1.0 = the case's native grid)."""
        self.scale = float(scale)
        self._invalidate_dataset()
        return self

    def _invalidate_dataset(self) -> None:
        """Drop a lazily-loaded source (it depends on seed and scale);
        a source supplied via with_source/with_dataset is the user's and
        is kept.

        Refuses outright once a stage has run: recorded artifacts were
        produced under the old dataset, and silently pairing them with a
        reloaded one (e.g. ``.subsample().with_scale(0.5).train()``) would
        train on data inconsistent with the sampled points and stamp the
        new settings into the artifact metadata.
        """
        if self.artifacts:
            raise RuntimeError(
                "cannot change seed/scale/dataset after a stage has run "
                f"(recorded: {sorted(self.artifacts)}); start a new "
                "Experiment via Experiment.from_case(...)"
            )
        if not self._source_explicit:
            self._source = None

    def with_epochs(self, epochs: int | None) -> Experiment:
        """Override the case's epoch budget (None keeps the case value)."""
        self.epochs = epochs
        return self

    def with_source(self, source: SnapshotSource | TurbulenceDataset | str) -> Experiment:
        """Drive the experiment from any :class:`SnapshotSource`.

        Accepts an in-memory / sharded / remote-tiered / simulation source,
        a bare :class:`TurbulenceDataset`, a shard-directory path, or an
        :func:`~repro.data.sources.open_source` spec string
        (``raw+dir:///data/shards``, ``remote:///data/shards?latency_s=...``)
        — the single entry point for batch, out-of-core, and in-situ
        ingestion.
        """
        self._invalidate_dataset()
        self._source = open_source(source)
        self._source_explicit = True
        return self

    def with_dataset(self, dataset: TurbulenceDataset) -> Experiment:
        """Use a pre-built dataset instead of loading from the case
        (sugar for ``with_source(dataset)``)."""
        return self.with_source(dataset)

    # ---- execution --------------------------------------------------------

    @property
    def source(self) -> SnapshotSource:
        """The experiment's snapshot source, built lazily from the case
        (an in-memory source over the catalog dataset) unless supplied via
        ``with_source``/``with_dataset``."""
        if self._source is None:
            self._source = InMemorySource(load_dataset(
                self.case.shared.dtype,
                path=self.case.subsample.path or None,
                scale=self.scale,
                rng=self.seed,
            ))
        return self._source

    @property
    def dataset(self) -> TurbulenceDataset:
        """The resident dataset behind an in-memory source.

        Raises for out-of-core / in-situ sources, whose whole point is that
        no resident dataset exists — use :attr:`source` instead.
        """
        source = self.source
        if isinstance(source, InMemorySource):
            return source.dataset
        raise RuntimeError(
            f"experiment is driven by a {type(source).__name__}, which never "
            "materializes a resident dataset; use .source"
        )

    def subsample(
        self,
        mode: str = "batch",
        ranks: int | None = None,
        owned_shards: bool = False,
        on_rank_failure: str = "raise",
        fault_hook=None,
    ) -> Experiment:
        """Run the subsampling pipeline and record its artifact.

        ``mode="batch"`` is the two-phase SPMD pipeline; ``mode="stream"``
        is the single-pass streaming path (reservoir / online MaxEnt over
        chunks as the source produces them).  Both are rank-parallel:
        ``ranks`` overrides ``with_ranks`` for this call only (the
        experiment's configured rank count is untouched), and in stream
        mode each rank streams its own snapshot partition concurrently,
        with per-rank sampler states recombined by weighted merge.

        Stream-only knobs (see :func:`repro.sampling.pipeline.subsample`):
        ``owned_shards`` gives each rank a private shard source over its span
        (:meth:`~repro.data.sources.ShardDirSource.reopen`); ``on_rank_failure``
        picks the partial-stream policy (``"reweight"`` merges what failed
        producers delivered, ``"raise"`` fails the draw); ``fault_hook``
        injects producer deaths for testing.
        """
        spec = self._stage_spec(
            "subsample", mode, ranks=self.ranks if ranks is None else int(ranks),
            owned_shards=owned_shards,
            on_rank_failure=None if on_rank_failure == "raise" else on_rank_failure,
            inject_rank_failure=None if fault_hook is None else 0,
        )
        result = subsample(self.source, self.case, nranks=spec.ranks,
                           seed=self.seed, mode=mode, owned_shards=owned_shards,
                           on_rank_failure=on_rank_failure, fault_hook=fault_hook,
                           backend=self.backend)
        self.artifacts["subsample"] = SubsampleArtifact(
            meta={"seed": self.seed, "case": spec.case,
                  "ranks": spec.ranks, "scale": self.scale, "mode": mode,
                  "backend": self.backend,
                  "owned_shards": bool(owned_shards),
                  "on_rank_failure": on_rank_failure,
                  "source": type(self.source).__name__},
            result=result,
        )
        return self

    def train(
        self,
        mode: str = "batch",
        resume: str | None = None,
        checkpoint: str | None = None,
        checkpoint_every: int = 1,
        callbacks: list | None = None,
    ) -> Experiment:
        """Train the case's architecture on the subsample; records an artifact.

        ``mode="batch"`` assembles resident training arrays from a
        batch-mode subsample (the classic path, byte-identical to the seed
        goldens).  ``mode="stream"`` fits directly off the merged stream: the
        stream-mode subsample's sampled points become fixed sensors and
        windows are built incrementally as snapshots arrive from the source
        — bounded memory, no resident dataset; with ``with_train_ranks(N)``
        each DDP rank streams its own snapshot span (the driver's ``owned``
        view: a private owned-shard directory for sharded sources).

        ``checkpoint`` writes a resumable checkpoint every
        ``checkpoint_every`` epochs; ``resume`` continues a fit from one,
        bit-identical to an uninterrupted run.  ``callbacks`` appends
        extra :class:`~repro.train.callbacks.Callback` instances after the
        checkpoint callback (e.g. ``StopOnSignal`` for drain-to-checkpoint
        in service mode); with multiple train ranks each rank's loop gets
        the same instances, so they must be fork/thread-safe.
        """
        spec = self._stage_spec("train", mode, checkpoint_every=checkpoint_every)
        if "subsample" not in self.artifacts:
            self.subsample(mode=mode)
        result: SubsampleResult = self.subsample_artifact.result
        if mode == "batch" and result.meta.get("mode") == "stream":
            raise ValueError(
                "batch-mode training from a stream-mode subsample is not "
                "supported: streaming results carry no hypercube structure "
                "to build resident windows from; call train(mode='stream') "
                "to fit directly off the merged stream"
            )
        case = self.case
        epochs = spec.epochs if spec.epochs is not None else min(case.train.epochs, 100)
        if mode == "stream":
            fit = self._train_stream(result, epochs, resume, checkpoint,
                                     checkpoint_every, callbacks)
        else:
            fit = self._train_batch(result, epochs, resume, checkpoint,
                                    checkpoint_every, callbacks)
        self.artifacts["train"] = TrainArtifact(
            meta={"seed": self.seed, "case": spec.case,
                  "ranks": self.train_ranks, "epochs": epochs, "mode": mode,
                  "backend": self.backend,
                  "checkpoint": checkpoint, "resumed_from": resume},
            result=fit,
        )
        return self

    def _loop_for(self, model, comm=None, checkpoint=None,
                  checkpoint_every=1, extra_callbacks=None) -> TrainLoop:
        case = self.case
        callbacks = []
        if checkpoint is not None:
            callbacks.append(Checkpoint(checkpoint, every=checkpoint_every))
        if extra_callbacks:
            callbacks.extend(extra_callbacks)
        return TrainLoop(
            model, lr=case.train.lr, patience=case.train.patience,
            precision=case.train.precision, comm=comm, seed=self.seed,
            callbacks=callbacks,
        )

    def _assemble_batch_data(self, result):
        """Resident training arrays + model geometry for the case's arch."""
        case = self.case
        if case.train.arch == "lstm":
            x, y = build_drag_data(self.source, result, window=case.train.window,
                                   horizon=case.train.horizon)
            return x, y, None, x.shape[2]
        data = build_reconstruction_data(self.source, result,
                                         window=case.train.window,
                                         horizon=case.train.horizon)
        return data.x, data.y, data, None

    def _train_batch(self, result, epochs, resume, checkpoint,
                     checkpoint_every, callbacks=None) -> TrainResult:
        case = self.case
        x, y, spec, input_dim = self._assemble_batch_data(result)

        def run(comm, _) -> TrainResult:
            # Each rank builds its own replica (identical seed/init; DDP
            # broadcasts rank 0's weights anyway) so thread ranks never race
            # on one shared module's gradients.
            model = build_model_for_case(case, spec, input_dim=input_dim,
                                         rng=self.seed)
            loop = self._loop_for(model, comm=comm, checkpoint=checkpoint,
                                  checkpoint_every=checkpoint_every,
                                  extra_callbacks=callbacks)
            feed = ArrayFeed(x, y, batch=case.train.batch,
                             test_frac=case.train.test_frac,
                             seed=self.seed, comm=loop.comm)
            return loop.fit(feed, epochs=epochs, resume=resume)

        return run_ranks(run, self.train_ranks, backend=self.backend).values[0]

    def _train_stream(self, result, epochs, resume, checkpoint,
                      checkpoint_every, callbacks=None) -> TrainResult:
        """Fit incrementally off the streaming source (no resident dataset);
        each DDP rank streams its own span of it (:mod:`repro.driver`)."""
        case = self.case
        source = self.source
        points = result.points

        def run(comm, rank_source) -> TrainResult:
            assembler = stream_assembler(rank_source, case, points)
            if comm.size > 1:
                feed = ShardedFeed.for_rank(
                    comm, rank_source, assembler, source.n_snapshots,
                    batch=case.train.batch, test_frac=case.train.test_frac,
                    seed=self.seed, shuffle=self.stream_shuffle,
                )
            else:
                feed = StreamFeed(
                    rank_source, assembler, batch=case.train.batch,
                    test_frac=case.train.test_frac, seed=self.seed,
                    shuffle=self.stream_shuffle,
                )
            spec = feed.spec
            model = build_model_for_case(case, spec, input_dim=spec.input_dim,
                                         rng=self.seed)
            loop = self._loop_for(model, comm=comm, checkpoint=checkpoint,
                                  checkpoint_every=checkpoint_every,
                                  extra_callbacks=callbacks)
            return loop.fit(feed, epochs=epochs, resume=resume)

        return run_ranks(run, self.train_ranks, source, view="owned",
                         backend=self.backend).values[0]

    def tune(
        self,
        n_trials: int = 10,
        strategy: str = "bayes",
        space: SearchSpace | None = None,
        epochs: int | None = None,
    ) -> Experiment:
        """Hyperparameter search (the paper's DeepHyper ``--tune`` substitute).

        Runs :func:`repro.train.tuning.tune` over the case's training data
        (assembled from the batch subsample, which runs implicitly if
        needed): each trial fits a fresh model with the sampled ``lr`` /
        ``batch`` (see :func:`~repro.train.tuning.default_search_space`) for
        a reduced epoch budget (`epochs`, else ``with_epochs``, else the
        case budget capped at 10) and is scored by final test loss.
        Records a :class:`TuneArtifact`; the best configuration is in
        ``exp.tune_artifact.best``.
        """
        spec = self._stage_spec("tune", tune_trials=n_trials, tune_strategy=strategy,
                                epochs=self.epochs if epochs is None else epochs)
        space = space or default_search_space()
        supported = {"lr", "batch"}
        unknown = sorted(set(space.params) - supported)
        if unknown:
            raise ValueError(
                f"tune() can apply only {sorted(supported)} to a trial; "
                f"the search space also names {unknown}, which would be "
                "sampled and recorded but never used — drop them or extend "
                "the objective"
            )
        if "subsample" not in self.artifacts:
            self.subsample()
        result: SubsampleResult = self.subsample_artifact.result
        if result.meta.get("mode") == "stream":
            raise ValueError(
                "tune() searches over resident training arrays; run the "
                "subsample in batch mode first"
            )
        case = self.case
        trial_epochs = spec.epochs if spec.epochs is not None else min(case.train.epochs, 10)
        x, y, data, input_dim = self._assemble_batch_data(result)

        def objective(config: dict) -> float:
            model = build_model_for_case(case, data, input_dim=input_dim,
                                         rng=self.seed)
            loop = TrainLoop(
                model, lr=float(config.get("lr", case.train.lr)),
                patience=case.train.patience, precision=case.train.precision,
                seed=self.seed,
            )
            feed = ArrayFeed(
                x, y, batch=int(config.get("batch", case.train.batch)),
                test_frac=case.train.test_frac, seed=self.seed,
            )
            return loop.fit(feed, epochs=trial_epochs).final_test_loss

        best, trials = _tune(objective, space, n_trials=n_trials,
                             strategy=strategy, rng=self.seed)
        self.artifacts["tune"] = TuneArtifact(
            meta={"seed": self.seed, "case": spec.case,
                  "n_trials": int(n_trials), "strategy": strategy,
                  "epochs_per_trial": int(trial_epochs),
                  "space": {k: list(v) for k, v in space.params.items()}},
            best=best,
            trials=trials,
        )
        return self

    # ---- results ----------------------------------------------------------

    @property
    def subsample_artifact(self) -> SubsampleArtifact:
        try:
            return self.artifacts["subsample"]  # type: ignore[return-value]
        except KeyError:
            raise KeyError("subsample stage has not run; call .subsample() first") from None

    @property
    def train_artifact(self) -> TrainArtifact:
        try:
            return self.artifacts["train"]  # type: ignore[return-value]
        except KeyError:
            raise KeyError("train stage has not run; call .train() first") from None

    @property
    def tune_artifact(self) -> TuneArtifact:
        try:
            return self.artifacts["tune"]  # type: ignore[return-value]
        except KeyError:
            raise KeyError("tune stage has not run; call .tune() first") from None

    def report(self) -> str:
        """Human-readable report over every stage run so far."""
        if not self.artifacts:
            return "(no stages run yet)"
        blocks = []
        for name in ("subsample", "tune", "train"):
            art = self.artifacts.get(name)
            if art is not None:
                blocks.append(f"== {name} ==\n{art.summary()}")
        return "\n\n".join(blocks)

    def save(self, directory: str) -> dict[str, str]:
        """Persist every recorded artifact under ``directory``; returns paths."""
        os.makedirs(directory, exist_ok=True)
        return {
            name: art.save(os.path.join(directory, name))
            for name, art in self.artifacts.items()
        }
