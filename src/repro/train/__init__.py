"""Training pipeline: feeds, the step-based loop, callbacks, and HPO.

Stream-first training mirrors the ingestion redesign: a
:class:`~repro.train.feeds.BatchFeed` delivers minibatches to
:class:`~repro.train.loop.TrainLoop` — :class:`~repro.train.feeds.ArrayFeed`
for resident arrays (the classic path, byte-identical under the seed
goldens), :class:`~repro.train.feeds.StreamFeed` for incremental windows
off a streaming source, :class:`~repro.train.feeds.ShardedFeed` for
per-rank DDP feeds.  Episodic behaviour (plateau LR, early stop, energy,
logging, checkpoint/resume) lives in :mod:`~repro.train.callbacks`.

:func:`~repro.train.data.build_reconstruction_data` and
:func:`~repro.train.data.build_drag_data` turn a
:class:`~repro.sampling.pipeline.SubsampleResult` into resident arrays for
the three learning problems of §5 (sample-single, sample-full, full-full);
an array fit is ``TrainLoop(model, ...).fit(ArrayFeed(x, y, ...), epochs)``.
:func:`~repro.train.tuning.tune` replaces DeepHyper's ``--tune``.
"""

from repro.train.callbacks import (
    Callback,
    Checkpoint,
    EarlyStopping,
    EnergyCallback,
    LoggingCallback,
    ReduceLROnPlateauCallback,
    peek_checkpoint,
)
from repro.train.data import (
    DragWindows,
    FeedSpec,
    ReconstructionData,
    ReconWindows,
    build_drag_data,
    build_reconstruction_data,
    stream_assembler,
    stream_sensor_layout,
    train_test_split,
)
from repro.train.feeds import (
    ArrayFeed,
    BatchFeed,
    ShardedFeed,
    ShuffleBuffer,
    StreamFeed,
)
from repro.train.loop import TrainLoop, TrainResult
from repro.train.tuning import SearchSpace, Trial, default_search_space, tune

__all__ = [
    "ReconstructionData",
    "build_drag_data",
    "build_reconstruction_data",
    "train_test_split",
    "FeedSpec",
    "ReconWindows",
    "DragWindows",
    "stream_assembler",
    "stream_sensor_layout",
    "BatchFeed",
    "ArrayFeed",
    "StreamFeed",
    "ShardedFeed",
    "ShuffleBuffer",
    "TrainLoop",
    "TrainResult",
    "Callback",
    "Checkpoint",
    "EarlyStopping",
    "EnergyCallback",
    "LoggingCallback",
    "ReduceLROnPlateauCallback",
    "peek_checkpoint",
    "SearchSpace",
    "Trial",
    "tune",
    "default_search_space",
]
