"""Callbacks for the step-based training loop (:mod:`repro.train.loop`).

The loop itself only knows how to run epochs over a
:class:`~repro.train.feeds.BatchFeed`; everything episodic — LR scheduling,
early stopping, energy metering, logging, checkpointing — hangs off the
callback hooks::

    on_fit_start(loop)                # before the first epoch
    on_epoch_start(loop, epoch)
    on_epoch_end(loop, epoch, logs)   # logs = {"train_loss", "test_loss", ...}
    on_fit_end(loop)                  # after the last epoch (also on error)

Callbacks that carry state across a checkpoint/resume boundary declare a
``state_key`` and implement :meth:`Callback.state` /
:meth:`Callback.load_state`; the loop persists them inside the checkpoint so
a resumed fit is bit-identical to an uninterrupted one (the plateau
scheduler's patience counter and the energy meter's FLOP counters included).

:class:`EnergyCallback` and :class:`ReduceLROnPlateauCallback` are installed
by default by :class:`~repro.train.loop.TrainLoop` — they reproduce the
paper's §5.2 protocol (energy metered around the whole fit, reduce-on-plateau
with patience 20) exactly as the pre-callback trainer did.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.data.npyfile import NpzFile
from repro.energy.meter import EnergyMeter
from repro.nn.optim import ReduceLROnPlateau
from repro.utils.log import get_logger

__all__ = [
    "Callback",
    "CallbackList",
    "EnergyCallback",
    "ReduceLROnPlateauCallback",
    "EarlyStopping",
    "LoggingCallback",
    "StopOnSignal",
    "Checkpoint",
    "peek_checkpoint",
]

_LOG = get_logger("repro.train")

#: npz member holding the checkpoint's JSON metadata (shared with the loop)
META_KEY = "__checkpoint_meta__"


class Callback:
    """Base class: every hook is a no-op; override what you need."""

    #: set to a string to have the loop persist :meth:`state` in checkpoints
    state_key: str | None = None

    def bind(self, loop) -> None:
        """Called once when the loop adopts the callback (loop is built)."""

    def on_fit_start(self, loop) -> None: ...

    def on_epoch_start(self, loop, epoch: int) -> None: ...

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None: ...

    def on_stop(self, loop, epoch: int, logs: dict) -> None:
        """Fired after ``on_epoch_end`` when the epoch ended with
        ``loop.stop_training`` set (early stop) — runs for every callback
        regardless of list order, so e.g. a checkpoint can still persist
        the final state even though it ran before the stopper."""

    def on_fit_end(self, loop) -> None: ...

    def state(self) -> dict | None:
        """JSON-serializable state for checkpoints (None = nothing)."""
        return None

    def load_state(self, state: dict) -> None: ...


class CallbackList:
    """Ordered fan-out over a list of callbacks."""

    def __init__(self, callbacks: list[Callback]) -> None:
        for cb in callbacks:
            if not isinstance(cb, Callback):
                raise TypeError(f"expected Callback, got {type(cb).__name__}")
        self.callbacks = list(callbacks)

    def __iter__(self):
        return iter(self.callbacks)

    def find(self, cls: type) -> Callback | None:
        """First callback of the given class, if any."""
        for cb in self.callbacks:
            if isinstance(cb, cls):
                return cb
        return None

    def bind(self, loop) -> None:
        for cb in self.callbacks:
            cb.bind(loop)

    def on_fit_start(self, loop) -> None:
        for cb in self.callbacks:
            cb.on_fit_start(loop)

    def on_epoch_start(self, loop, epoch: int) -> None:
        for cb in self.callbacks:
            cb.on_epoch_start(loop, epoch)

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None:
        for cb in self.callbacks:
            cb.on_epoch_end(loop, epoch, logs)

    def on_stop(self, loop, epoch: int, logs: dict) -> None:
        for cb in self.callbacks:
            cb.on_stop(loop, epoch, logs)

    def on_fit_end(self, loop) -> None:
        for cb in self.callbacks:
            cb.on_fit_end(loop)

    def states(self) -> dict:
        """All checkpointable callback states, keyed by ``state_key``."""
        out = {}
        for cb in self.callbacks:
            if cb.state_key is not None:
                state = cb.state()
                if state is not None:
                    out[cb.state_key] = state
        return out

    def load_states(self, states: dict) -> None:
        for cb in self.callbacks:
            if cb.state_key is not None and cb.state_key in states:
                cb.load_state(states[cb.state_key])


class EnergyCallback(Callback):
    """Meters the whole fit (the paper's 'Total Energy Consumed' lines).

    Opens an :class:`~repro.energy.meter.EnergyMeter` around the epoch loop
    and, at fit end, converts metered GPU FLOPs to virtual GPU-seconds at
    ``gpu_flops_rate`` and adds the communicator's virtual-clock delta —
    byte-identical to the pre-callback trainer's accounting.  Across a
    checkpoint/resume boundary the FLOP/byte counters and the already-spent
    clock time are carried over, so interrupted + resumed energy equals the
    uninterrupted run's.
    """

    def __init__(self, gpu_flops_rate: float = 20.0e12) -> None:
        if gpu_flops_rate <= 0:
            raise ValueError("gpu_flops_rate must be positive")
        self.gpu_flops_rate = gpu_flops_rate
        self.meter = EnergyMeter()
        self._carry_clock = 0.0  # virtual seconds spent before a resume
        self._clock_start = 0.0
        self._excluded = 0.0  # checkpoint/restore comm time, not training work
        self._open = False

    def reset(self) -> None:
        """Zero the meter for a fresh fit (a loop can fit more than once)."""
        if self._open:
            raise RuntimeError("cannot reset a meter mid-fit")
        self.meter = EnergyMeter()
        self._carry_clock = 0.0
        self._excluded = 0.0

    def on_fit_start(self, loop) -> None:
        self.meter.__enter__()
        self._open = True
        self._clock_start = loop.comm.clock.t

    def on_fit_end(self, loop) -> None:
        if not self._open:
            return
        self._open = False
        # Virtual wall time: GPU-seconds from metered FLOPs at the configured
        # sustained rate, plus the communicator clock (comms + accounted
        # compute), plus whatever a previous fit segment already spent.
        gpu_seconds = self.meter.flops_gpu / self.gpu_flops_rate
        self.meter.add_elapsed(
            gpu_seconds + self._carry_clock + self._clock_delta(loop)
        )
        self.meter.__exit__(None, None, None)

    def _clock_delta(self, loop) -> float:
        return loop.comm.clock.t - self._clock_start - self._excluded

    def exclude(self, seconds: float) -> None:
        """Discount virtual-clock time that is not training work.

        The loop calls this around checkpoint gathers and resume broadcasts
        so that metered energy is invariant to the checkpoint cadence — an
        interrupted + resumed fit reports the same joules as an
        uninterrupted one regardless of how often either saved.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._excluded += seconds

    # -- per-rank checkpoint state (meters are thread-local per SPMD rank) --

    def rank_state(self, loop) -> dict:
        return {
            "flops_cpu": self.meter.flops_cpu,
            "flops_gpu": self.meter.flops_gpu,
            "bytes_cpu": self.meter.bytes_cpu,
            "bytes_gpu": self.meter.bytes_gpu,
            "clock": self._carry_clock + self._clock_delta(loop),
        }

    def load_rank_state(self, state: dict) -> None:
        self.meter.flops_cpu = float(state["flops_cpu"])
        self.meter.flops_gpu = float(state["flops_gpu"])
        self.meter.bytes_cpu = float(state["bytes_cpu"])
        self.meter.bytes_gpu = float(state["bytes_gpu"])
        self._carry_clock = float(state["clock"])


class ReduceLROnPlateauCallback(Callback):
    """Steps a :class:`~repro.nn.optim.ReduceLROnPlateau` on the test loss."""

    state_key = "plateau"

    def __init__(
        self,
        patience: int = 20,
        factor: float = 0.5,
        min_lr: float = 1e-6,
        threshold: float = 1e-4,
    ) -> None:
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
        self.threshold = threshold
        self.scheduler: ReduceLROnPlateau | None = None

    def bind(self, loop) -> None:
        self.scheduler = ReduceLROnPlateau(
            loop.optimizer, factor=self.factor, patience=self.patience,
            min_lr=self.min_lr, threshold=self.threshold,
        )

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None:
        assert self.scheduler is not None, "callback was never bound to a loop"
        self.scheduler.step(logs["test_loss"])

    def state(self) -> dict | None:
        s = self.scheduler
        if s is None:
            return None
        return {
            "best": float(s.best),
            "bad_epochs": int(s.bad_epochs),
            "n_reductions": int(s.n_reductions),
            "lr": float(s.optimizer.lr),
        }

    def load_state(self, state: dict) -> None:
        assert self.scheduler is not None, "callback was never bound to a loop"
        self.scheduler.best = float(state["best"])
        self.scheduler.bad_epochs = int(state["bad_epochs"])
        self.scheduler.n_reductions = int(state["n_reductions"])
        self.scheduler.optimizer.lr = float(state["lr"])


class EarlyStopping(Callback):
    """Stop the fit after `patience` epochs without test-loss improvement."""

    state_key = "early_stop"

    def __init__(self, patience: int = 10, min_delta: float = 0.0) -> None:
        if patience < 0:
            raise ValueError("patience must be >= 0")
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.bad_epochs = 0

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None:
        te = logs["test_loss"]
        if te < self.best - self.min_delta:
            self.best = te
            self.bad_epochs = 0
            return
        self.bad_epochs += 1
        if self.bad_epochs > self.patience:
            loop.stop_training = True

    def state(self) -> dict:
        return {"best": float(self.best), "bad_epochs": int(self.bad_epochs)}

    def load_state(self, state: dict) -> None:
        self.best = float(state["best"])
        self.bad_epochs = int(state["bad_epochs"])


class StopOnSignal(Callback):
    """Stop the fit cleanly when an external condition becomes true.

    ``should_stop`` is polled on rank 0 at every epoch end and the
    decision broadcast to every rank, so all ranks leave the epoch loop
    together — the predicate may be rank-dependent (a file only the
    driver touches) without desynchronizing a DDP fit.  Pairs with
    :class:`Checkpoint`, whose ``on_stop`` hook persists the final state:
    the combination turns a drain request (e.g. ``repro-serve`` shutdown)
    into a resumable checkpoint instead of a killed job.

    Carries no checkpoint state on purpose: whether a *previous* fit
    segment was interrupted is not part of the training state.
    """

    def __init__(self, should_stop) -> None:
        if not callable(should_stop):
            raise TypeError("should_stop must be callable")
        self._should_stop = should_stop
        self.triggered = False

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None:
        decision = bool(self._should_stop()) if loop.comm.rank == 0 else False
        if loop.comm.size > 1:
            decision = bool(loop.comm.bcast(decision, root=0))
        if decision:
            self.triggered = True
            loop.stop_training = True


class LoggingCallback(Callback):
    """Periodic epoch logging (the old ``verbose=True`` behaviour)."""

    def __init__(self, every: int = 10) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None:
        if loop.comm.rank != 0:
            return
        if epoch % self.every == 0 or epoch == loop.epochs_target - 1:
            _LOG.info(
                "epoch %d: train %.5f test %.5f lr %.2e",
                epoch, logs["train_loss"], logs["test_loss"], loop.lr,
            )


class Checkpoint(Callback):
    """Write a resumable checkpoint every `every` epochs (and the last one).

    The checkpoint bundles the model parameters, the optimizer moments, the
    RNG / feed cursor of every rank, the scheduler's plateau counters, the
    per-rank energy counters, and the loss history — everything
    :meth:`~repro.train.loop.TrainLoop.fit` needs so that ``resume=path``
    continues bit-for-bit where the interrupted fit stopped.  With DDP the
    save is collective (per-rank feed states are gathered); only rank 0
    writes, atomically (tmp file + rename), so a kill mid-save never leaves
    a torn checkpoint.  The gather's clock time is discounted from the
    energy meter (see :meth:`EnergyCallback.exclude`), so metered energy is
    invariant to the checkpoint cadence.
    """

    def __init__(self, path: str, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = path
        self.every = every
        self.last_saved: str | None = None
        self._saved_epoch: int | None = None

    def on_fit_start(self, loop) -> None:
        # A loop can fit more than once; forget the previous fit's save
        # epoch or a warm restart could silently skip its own checkpoint.
        self._saved_epoch = None

    def _save(self, loop, epoch: int) -> None:
        if self._saved_epoch == epoch:
            return
        self._saved_epoch = epoch
        saved = loop.save_checkpoint(self.path)
        if saved is not None:
            self.last_saved = saved

    def on_epoch_end(self, loop, epoch: int, logs: dict) -> None:
        if (epoch + 1) % self.every == 0 or epoch == loop.epochs_target - 1:
            self._save(loop, epoch)

    def on_stop(self, loop, epoch: int, logs: dict) -> None:
        # "The last one" includes an early stop off the save cadence: the
        # loop fires on_stop after every callback's on_epoch_end, so this
        # persists the final state even when the stopper ran after us.
        self._save(loop, epoch)


def peek_checkpoint(path: str) -> dict:
    """Read a checkpoint's metadata (no arrays) — epoch, ranks, losses."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no checkpoint at {path!r}")
    return json.loads(str(NpzFile(path)[META_KEY]))
