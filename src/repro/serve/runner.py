"""Execute one validated job spec — the worker pool's unit of work.

``execute_job`` is a thin shell over :class:`repro.api.Experiment`, built
by the same :func:`repro.runspec.build_run` the CLI uses, which is what
makes the cache honest: a job's artifact carries the same bytes a direct
facade run would produce, so the store can answer repeated requests with
a file instead of a recompute.

Train jobs always run with a :class:`~repro.train.callbacks.Checkpoint`
into the job's spool directory plus a
:class:`~repro.train.callbacks.StopOnSignal` watching the scheduler's
per-job STOP file: a drain request turns an in-flight fit into a
resumable checkpoint at the next epoch boundary instead of a kill.
Subsample and tune jobs are single bounded passes and run to completion
even under drain (their wall time is already bounded by the spec).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from repro.api import Experiment
from repro.runspec import RunSpec, build_run
from repro.train.callbacks import Callback, StopOnSignal

__all__ = ["JobOutcome", "execute_job", "write_progress"]

#: scheduler touches this file in a job's spool dir to request drain
STOP_FILE = "STOP"
#: rank 0 of a running train job keeps this file's epoch counters fresh
PROGRESS_FILE = "progress.json"
CHECKPOINT_FILE = "checkpoint.npz"


@dataclass
class JobOutcome:
    """What one job execution produced."""

    status: str                      # "done" | "checkpointed"
    artifact: object | None = None   # an api.Artifact (None when checkpointed)
    meta: dict = field(default_factory=dict)
    checkpoint_path: str | None = None


def write_progress(path: str, doc: dict) -> None:
    """Atomically replace the progress file (readers never see a torn doc)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


class _ProgressCallback(Callback):
    """Stream per-epoch counters to the job's progress file (rank 0 only).

    Works across both SPMD backends: with forked workers rank 0's child
    writes through the shared filesystem path, so the serving process can
    poll it without any extra transport.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None:
        if loop.comm.rank != 0:
            return
        write_progress(self.path, {
            "phase": "train",
            "epoch": int(epoch) + 1,
            "epochs_target": int(loop.epochs_target),
            "train_loss": float(logs["train_loss"]),
            "test_loss": float(logs["test_loss"]),
        })


def execute_job(spec: RunSpec, workdir: str,
                resume_checkpoint: str | None = None) -> JobOutcome:
    """Run ``spec`` inside ``workdir``; returns the outcome.

    ``resume_checkpoint`` continues a previously-drained train job from
    its checkpoint (bit-identical to an uninterrupted fit).  Raises
    whatever the pipeline raises — the scheduler owns retry policy.
    """
    case = spec.validate()
    os.makedirs(workdir, exist_ok=True)
    stop_path = os.path.join(workdir, STOP_FILE)
    progress_path = os.path.join(workdir, PROGRESS_FILE)

    exp, source, fault_hook = build_run(spec, case)
    try:
        if spec.kind == "subsample":
            return _run_subsample(spec, exp, fault_hook, progress_path)
        if spec.kind == "train":
            return _run_train(spec, exp, workdir, stop_path, progress_path,
                              resume_checkpoint)
        return _run_tune(spec, exp, progress_path)
    finally:
        if source is not None and hasattr(source, "close"):
            source.close()


def _run_subsample(spec: RunSpec, exp: Experiment, fault_hook,
                   progress_path: str) -> JobOutcome:
    write_progress(progress_path, {"phase": "subsample"})
    exp.subsample(
        mode=spec.mode,
        owned_shards=spec.owned_shards,
        on_rank_failure=spec.failure_policy,
        fault_hook=fault_hook,
    )
    artifact = exp.subsample_artifact
    res = artifact.result
    meta = {
        "n_samples": int(res.n_samples),
        "n_points_scanned": int(res.n_points_scanned),
        "virtual_time": float(res.virtual_time),
        "total_energy": (res.energy.total_energy
                         if res.energy is not None else None),
        "cache": res.meta.get("cache"),
        "failed_ranks": res.meta.get("failed_ranks") or [],
    }
    return JobOutcome(status="done", artifact=artifact, meta=meta)


def _run_train(spec: RunSpec, exp: Experiment, workdir: str, stop_path: str,
               progress_path: str,
               resume_checkpoint: str | None) -> JobOutcome:
    stopper = StopOnSignal(lambda: os.path.exists(stop_path))
    checkpoint_path = os.path.join(workdir, CHECKPOINT_FILE)
    exp.train(
        mode=spec.mode,
        resume=resume_checkpoint,
        checkpoint=checkpoint_path,
        checkpoint_every=spec.checkpoint_every,
        callbacks=[stopper, _ProgressCallback(progress_path)],
    )
    res = exp.train_artifact.result
    target = exp.train_artifact.meta["epochs"]  # the budget train() ran under
    meta = {
        "epochs_run": int(res.epochs_run),
        "epochs_target": int(target),
        "best_test_loss": float(res.best_test_loss),
        "final_test_loss": float(res.final_test_loss),
        "total_energy": (res.energy.total_energy
                         if res.energy is not None else None),
        "feed": res.meta.get("feed"),
    }
    # StopOnSignal fired before the epoch budget was spent: the fit is a
    # resumable partial, not the spec's artifact — do not cache it.
    # (With forked train workers the parent's `stopper` instance never
    # sees the child's trigger, so detect the early stop from the result.)
    if os.path.exists(stop_path) and res.epochs_run < target:
        meta["checkpoint"] = checkpoint_path
        return JobOutcome(status="checkpointed", meta=meta,
                          checkpoint_path=checkpoint_path)
    return JobOutcome(status="done", artifact=exp.train_artifact, meta=meta,
                      checkpoint_path=checkpoint_path)


def _run_tune(spec: RunSpec, exp: Experiment,
              progress_path: str) -> JobOutcome:
    write_progress(progress_path, {"phase": "tune",
                                   "trials": int(spec.tune_trials)})
    exp.tune(n_trials=spec.tune_trials, strategy=spec.tune_strategy)
    artifact = exp.tune_artifact
    best_score = None
    if artifact.best is not None and math.isfinite(artifact.best.score):
        # diverged searches carry score=inf, which has no RFC JSON spelling
        best_score = float(artifact.best.score)
    meta = {
        "trials": len(artifact.trials),
        "best_config": artifact.best.config if artifact.best else None,
        "best_score": best_score,
    }
    return JobOutcome(status="done", artifact=artifact, meta=meta)
