"""The step-based training loop: one ``fit(feed)`` for every data delivery.

The training-side twin of the stream-first ingestion redesign:
:class:`TrainLoop` runs the paper's §5.2 protocol (Adam, MSE,
reduce-on-plateau, gradient clipping, emulated mixed precision, DDP over
the simulated communicator, energy metering) over any
:class:`~repro.train.feeds.BatchFeed` — resident arrays
(:class:`~repro.train.feeds.ArrayFeed`, the paper's ``train.py`` fit of
``x, y``), incremental stream windows, or per-rank sharded feeds — with
episodic behaviour delegated to :mod:`~repro.train.callbacks` and
bit-deterministic checkpoint/resume:

* :meth:`fit` drives epochs of ``feed.train_batches(epoch)`` followed by an
  evaluation pass over ``feed.eval_batches()``; :meth:`evaluate_arrays`
  scores resident arrays the feed never saw (a held-out set) the same way.
* :class:`~repro.train.callbacks.EnergyCallback` and
  :class:`~repro.train.callbacks.ReduceLROnPlateauCallback` are installed by
  default, reproducing the pre-callback trainer's numbers exactly (the
  equivalence tests pin batch fits to the seed goldens bit-for-bit).
* :meth:`save_checkpoint` / ``fit(..., resume=path)`` persist and restore
  model weights, optimizer moments, scheduler counters, per-rank feed
  cursors, and per-rank energy counters — a fit interrupted at epoch *k*
  and resumed matches an uninterrupted fit bitwise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.data.npyfile import NpzFile
from repro.energy.meter import EnergyMeter
from repro.nn.amp import autocast
from repro.nn.ddp import DistributedDataParallel
from repro.nn.loss import mse_loss
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import Tensor, no_grad
from repro.parallel.comm import Communicator, SerialComm
from repro.train.callbacks import (
    META_KEY as _META_KEY,
)
from repro.train.callbacks import (
    Callback,
    CallbackList,
    EnergyCallback,
    LoggingCallback,
    ReduceLROnPlateauCallback,
)
from repro.train.feeds import BatchFeed

__all__ = ["TrainResult", "TrainLoop"]

_CHECKPOINT_VERSION = 1


@dataclass
class TrainResult:
    """Fit outcome: losses, energy, and the paper's report lines."""

    train_losses: list[float]
    test_losses: list[float]
    best_test_loss: float
    final_test_loss: float
    epochs_run: int
    energy: EnergyMeter
    lr_reductions: int
    meta: dict = field(default_factory=dict)

    def report(self) -> str:
        return (
            f"Evaluation on test set: {self.final_test_loss:.6f}\n"
            + self.energy.report()
        )


class TrainLoop:
    """Step-based fit over a :class:`~repro.train.feeds.BatchFeed`."""

    def __init__(
        self,
        model: Module,
        lr: float = 1e-3,
        patience: int = 20,
        precision: str = "fp32",
        grad_clip: float = 10.0,
        comm: Communicator | None = None,
        seed: int = 0,
        verbose: bool = False,
        gpu_flops_rate: float = 20.0e12,
        callbacks: list[Callback] | None = None,
    ) -> None:
        self.comm = comm or SerialComm()
        self.model = model
        self.ddp = DistributedDataParallel(model, self.comm) if self.comm.size > 1 else None
        self.precision = precision
        self.grad_clip = grad_clip
        self.seed = seed
        self.optimizer = Adam(model.parameters(), lr=lr)
        # Default stack reproduces the classic trainer: energy metered around
        # the whole fit, plateau LR on the test loss.  User callbacks of the
        # same class replace the defaults rather than doubling them up.
        user = list(callbacks or [])
        stack: list[Callback] = []
        if not any(isinstance(cb, EnergyCallback) for cb in user):
            stack.append(EnergyCallback(gpu_flops_rate))
        if not any(isinstance(cb, ReduceLROnPlateauCallback) for cb in user):
            stack.append(ReduceLROnPlateauCallback(patience=patience))
        if verbose and not any(isinstance(cb, LoggingCallback) for cb in user):
            stack.append(LoggingCallback(every=10))
        self.callbacks = CallbackList(stack + user)
        self.callbacks.bind(self)
        self.train_losses: list[float] = []
        self.test_losses: list[float] = []
        self.stop_training = False
        self.epoch = 0
        self.epochs_target = 0
        self._feed: BatchFeed | None = None
        self._resumed_from: str | None = None

    # ---- conveniences ------------------------------------------------------

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    @property
    def scheduler(self):
        """The plateau scheduler, if the plateau callback is installed."""
        cb = self.callbacks.find(ReduceLROnPlateauCallback)
        return cb.scheduler if cb is not None else None

    @property
    def _energy_cb(self) -> EnergyCallback | None:
        return self.callbacks.find(EnergyCallback)

    # ---- epoch mechanics ---------------------------------------------------

    def _forward(self, x: np.ndarray) -> Tensor:
        target_model = self.ddp if self.ddp is not None else self.model
        return target_model(Tensor(x))

    def _train_epoch(self, feed: BatchFeed, epoch: int) -> float:
        total, count = 0.0, 0
        for xb, yb in feed.train_batches(epoch):
            self.optimizer.zero_grad()
            loss = mse_loss(self._forward(xb), Tensor(yb))
            loss.backward()
            if self.ddp is not None:
                self.ddp.sync_gradients()
            clip_grad_norm(self.optimizer.params, self.grad_clip)
            self.optimizer.step()
            total += float(loss.data) * len(xb)
            count += len(xb)
        return total / max(count, 1)

    def _score(self, batches) -> tuple[float, int]:
        """Summed MSE and sample count over ``batches`` (no grad, eval mode)."""
        self.model.eval()
        total, count = 0.0, 0
        with no_grad():
            for xb, yb in batches:
                loss = mse_loss(self._forward(xb), Tensor(yb))
                total += float(loss.data) * len(xb)
                count += len(xb)
        self.model.train()
        return total, count

    def evaluate(self, feed: BatchFeed) -> float:
        """Mean MSE over the feed's test set (no grad, eval mode)."""
        total, count = self._score(feed.eval_batches())
        if feed.eval_sharded and self.comm.size > 1:
            # Rank-local test shards: combine the sums so every rank sees the
            # same global test loss (keeps the plateau scheduler in lock-step).
            total = float(self.comm.allreduce(total, op="sum"))
            count = int(self.comm.allreduce(count, op="sum"))
        return total / max(count, 1)

    def evaluate_arrays(self, x: np.ndarray, y: np.ndarray, batch: int) -> float:
        """Mean MSE over resident ``x, y`` in ``batch``-row chunks (no grad,
        eval mode) — e.g. a held-out set outside the fit's feed."""
        total, count = self._score(
            (x[lo : lo + batch], y[lo : lo + batch]) for lo in range(0, x.shape[0], batch)
        )
        return total / max(count, 1)

    # ---- the fit -----------------------------------------------------------

    def fit(self, feed: BatchFeed, epochs: int, resume: str | None = None) -> TrainResult:
        """Train for `epochs` epochs over `feed`; optionally resume.

        ``resume`` names a checkpoint written by
        :class:`~repro.train.callbacks.Checkpoint` (or
        :meth:`save_checkpoint`); training continues from its next epoch
        with model/optimizer/scheduler/feed-cursor/energy state restored, so
        the completed fit is bitwise identical to an uninterrupted one.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self._feed = feed
        self.epochs_target = epochs
        # A fresh fit starts from clean histories and counters, so calling
        # fit() twice on one loop (warm restart) never accumulates the
        # previous fit's losses or double-counts its energy; resume then
        # restores the interrupted fit's state on top.
        self.train_losses = []
        self.test_losses = []
        self._resumed_from = None
        if self._energy_cb is not None:
            self._energy_cb.reset()
        start_epoch = 0
        if resume is not None:
            start_epoch = self.load_checkpoint(resume, feed)
        self.stop_training = False
        self.callbacks.on_fit_start(self)
        try:
            for epoch in range(start_epoch, epochs):
                self.epoch = epoch
                self.callbacks.on_epoch_start(self, epoch)
                with autocast(self.precision):
                    tr = self._train_epoch(feed, epoch)
                te = self.evaluate(feed)
                self.train_losses.append(tr)
                self.test_losses.append(te)
                logs = {"epoch": epoch, "train_loss": tr, "test_loss": te}
                self.callbacks.on_epoch_end(self, epoch, logs)
                if self.stop_training:
                    self.callbacks.on_stop(self, epoch, logs)
                    break
        finally:
            self.callbacks.on_fit_end(self)
        final = self.evaluate(feed)
        energy_cb = self._energy_cb
        scheduler = self.scheduler
        meta = {
            "ranks": self.comm.size,
            "precision": self.precision,
            "seed": self.seed,
            "feed": feed.meta,
        }
        if self._resumed_from is not None:
            meta["resumed_from"] = self._resumed_from
            meta["resumed_at_epoch"] = start_epoch
        return TrainResult(
            train_losses=list(self.train_losses),
            test_losses=list(self.test_losses),
            best_test_loss=float(min(self.test_losses, default=np.inf)),
            final_test_loss=float(final),
            epochs_run=len(self.train_losses),
            energy=energy_cb.meter if energy_cb is not None else EnergyMeter(),
            lr_reductions=scheduler.n_reductions if scheduler is not None else 0,
            meta=meta,
        )

    # ---- checkpoint / resume ----------------------------------------------

    def _optimizer_arrays(self) -> dict[str, np.ndarray]:
        opt = self.optimizer
        if isinstance(opt, Adam):
            out = {}
            for i, (m, v) in enumerate(zip(opt._m, opt._v)):
                out[f"opt::m{i}"] = m
                out[f"opt::v{i}"] = v
            return out
        if isinstance(opt, SGD):
            return {f"opt::vel{i}": v for i, v in enumerate(opt._velocity)}
        raise TypeError(
            f"checkpointing supports Adam and SGD, got {type(opt).__name__}"
        )

    def _restore_optimizer(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        opt = self.optimizer
        if meta["optimizer"] != type(opt).__name__:
            raise ValueError(
                f"checkpoint optimizer {meta['optimizer']!r} != {type(opt).__name__!r}"
            )
        opt.lr = float(meta["lr"])
        if isinstance(opt, Adam):
            opt._t = int(meta["adam_t"])
            for i in range(len(opt.params)):
                opt._m[i][...] = arrays[f"opt::m{i}"]
                opt._v[i][...] = arrays[f"opt::v{i}"]
        elif isinstance(opt, SGD):
            for i in range(len(opt.params)):
                opt._velocity[i][...] = arrays[f"opt::vel{i}"]

    def save_checkpoint(self, path: str) -> str | None:
        """Write a resumable checkpoint; collective under DDP (rank 0 writes).

        Returns the written path on rank 0, None on other ranks.
        """
        if self._feed is None:
            raise RuntimeError("no fit in progress — nothing to checkpoint")
        energy_cb = self._energy_cb
        local = {
            "feed": self._feed.state(),
            "energy": energy_cb.rank_state(self) if energy_cb is not None else None,
            "train_losses": [float(v) for v in self.train_losses],
        }
        # The state gather is bookkeeping, not training work: discount its
        # clock time so energy is invariant to the checkpoint cadence.
        t0 = self.comm.clock.t
        blobs = self.comm.gather(local, root=0) if self.comm.size > 1 else [local]
        if energy_cb is not None:
            energy_cb.exclude(self.comm.clock.t - t0)
        if blobs is None:
            return None  # non-root DDP rank
        meta = {
            "version": _CHECKPOINT_VERSION,
            "next_epoch": len(self.test_losses),
            "ranks": self.comm.size,
            "seed": self.seed,
            "precision": self.precision,
            "optimizer": type(self.optimizer).__name__,
            "lr": float(self.optimizer.lr),
            "adam_t": int(getattr(self.optimizer, "_t", 0)),
            "test_losses": [float(v) for v in self.test_losses],
            "callbacks": self.callbacks.states(),
            "per_rank": blobs,
            "feed_meta": self._feed.meta,
        }
        payload: dict[str, np.ndarray] = {_META_KEY: np.array(json.dumps(meta))}
        for name, arr in self.model.state_dict().items():
            payload[f"param::{name}"] = arr
        payload.update(self._optimizer_arrays())
        if not path.endswith(".npz"):
            path = path + ".npz"
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # Atomic write: a kill mid-save must never leave a torn checkpoint.
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
        os.replace(tmp, path)
        return path

    def load_checkpoint(self, path: str, feed: BatchFeed) -> int:
        """Restore a checkpoint into this loop + feed; returns next epoch."""
        if not path.endswith(".npz"):
            path = path + ".npz"
        if not os.path.isfile(path):
            raise FileNotFoundError(f"no checkpoint at {path!r}")
        data = NpzFile(path)
        meta = json.loads(str(data[_META_KEY]))
        arrays = {k: data[k] for k in data if k != _META_KEY}
        if meta.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta.get('version')!r}"
            )
        if meta["ranks"] != self.comm.size:
            raise ValueError(
                f"checkpoint was written by a {meta['ranks']}-rank fit; "
                f"resume with the same rank count (got {self.comm.size})"
            )
        if meta["seed"] != self.seed:
            raise ValueError(
                f"checkpoint was written by a seed-{meta['seed']} fit; "
                f"resuming under seed {self.seed} would rebuild the feed "
                "and model against different randomness — use the same seed"
            )
        params = {
            name[len("param::"):]: arr
            for name, arr in arrays.items() if name.startswith("param::")
        }
        self.model.load_state_dict(params)
        if self.ddp is not None:
            # Every rank read the same file, but re-broadcast to guarantee
            # replicas are identical even if the file changed underfoot.
            # (Runs before on_fit_start opens the energy clock window, so
            # restore traffic never lands on the metered elapsed time.)
            self.ddp.sync_parameters()
        self._restore_optimizer(arrays, meta)
        self.callbacks.load_states(meta.get("callbacks") or {})
        blob = meta["per_rank"][self.comm.rank]
        feed.load_state(blob["feed"])
        energy_cb = self._energy_cb
        if energy_cb is not None and blob.get("energy") is not None:
            energy_cb.load_rank_state(blob["energy"])
        self.train_losses = [float(v) for v in blob["train_losses"]]
        self.test_losses = [float(v) for v in meta["test_losses"]]
        self._resumed_from = path
        return int(meta["next_epoch"])
