"""Intelligent sampling — the paper's core contribution, as a stage-based API.

Both phases of SICKLE's two-phase subsampling are pluggable registries:

**Phase 1 — hypercube selectors** (:mod:`repro.sampling.selectors`; register
more with :func:`register_selector`):

====================  ======================================================
``maxent``            Hmaxent — K-means over cube moments + KL adjacency +
                      entropy-weighted draw
``random``            Hrandom — uniform cube choice (the baseline)
``entropy``           per-cube Shannon-entropy-weighted draw (no clustering)
====================  ======================================================

**Phase 2 — point samplers** (:mod:`repro.sampling.base`; register more with
:func:`register_sampler`):

====================  ======================================================
``random``            uniform without replacement (the strong baseline)
``lhs``               Latin hypercube selection over data points
``stratified``        K-means strata + per-stratum draws
``uips``              uniform-in-phase-space (binned, iterative)
``maxent``            entropy-weighted stratified sampling (Xmaxent)
====================  ======================================================

**Streaming analogues** (:mod:`repro.sampling.streaming`; register more
with :func:`register_stream_sampler`) live in a sibling registry under the
offline names they mirror, so the same case ``method:`` key drives both
ingestion modes:

====================  ======================================================
``random``            Algorithm-R reservoir (vectorized per chunk)
``maxent``            online MaxEnt — mini-batch K-means + per-cluster
                      histograms/reservoirs, entropy-weighted finalize
====================  ======================================================

Registered classes carry their own ``cost_per_point`` work-unit cost, so the
pipeline's virtual-clock/energy accounting covers third-party strategies
automatically.

The distributed pipeline itself is a composition of named stages
(:mod:`repro.sampling.stages`: CubeIndex → Phase1Summarize → CubeSelect →
PointSample → Gather) driven by :class:`SubsamplePipeline`; every stage
consumes a :class:`~repro.data.sources.SnapshotSource` chunk-by-chunk, so
the same pipeline runs batch (in-memory), out-of-core (sharded npz), and
in-situ (simulation) ingestion — :func:`subsample` is the single entry
point for all three, with ``mode="stream"`` switching to the single-pass
streaming samplers.  :class:`repro.api.Experiment` is the high-level
facade over the whole subsample → train → report workflow.  Temporal snapshot selection (§4.3)
is in :mod:`repro.sampling.temporal`.
"""

from repro.sampling.base import (
    Sampler,
    StreamSampler,
    available_samplers,
    available_stream_samplers,
    get_sampler,
    get_stream_sampler,
    register_sampler,
    register_stream_sampler,
    stream_sampler_cls,
)
from repro.sampling.selectors import (
    CubeSelector,
    EntropyCubeSelector,
    MaxEntCubeSelector,
    RandomCubeSelector,
    available_selectors,
    get_selector,
    register_selector,
)
from repro.sampling import random_ as _random_  # registers random/lhs
from repro.sampling import stratified as _stratified
from repro.sampling import uips as _uips
from repro.sampling import maxent as _maxent
from repro.sampling.random_ import LatinHypercubeSampler, RandomSampler
from repro.sampling.stratified import StratifiedSampler, allocate_counts
from repro.sampling.uips import UIPSSampler
from repro.sampling.maxent import MaxEntSampler, maxent_cluster_weights, select_hypercubes_maxent
from repro.sampling.entropy import (
    shannon_entropy,
    kl_divergence,
    cluster_value_distributions,
    entropy_adjacency,
    node_strengths,
    adjacency_graph,
    strength_weights,
)
from repro.sampling.temporal import select_snapshots, js_divergence
from repro.sampling.stages import (
    CubeIndexStage,
    CubeSelectStage,
    GatherStage,
    Phase1SummarizeStage,
    PipelineContext,
    PointSampleStage,
    Stage,
    SubsamplePipeline,
    SubsampleResult,
)
from repro.sampling.pipeline import subsample
from repro.sampling.streaming import (
    ReservoirSampler,
    ReservoirStream,
    StreamingMaxEnt,
    run_stream_subsample,
)

__all__ = [
    "Sampler",
    "StreamSampler",
    "available_samplers",
    "available_stream_samplers",
    "get_sampler",
    "get_stream_sampler",
    "register_sampler",
    "register_stream_sampler",
    "stream_sampler_cls",
    "CubeSelector",
    "available_selectors",
    "get_selector",
    "register_selector",
    "RandomCubeSelector",
    "MaxEntCubeSelector",
    "EntropyCubeSelector",
    "RandomSampler",
    "LatinHypercubeSampler",
    "StratifiedSampler",
    "allocate_counts",
    "UIPSSampler",
    "MaxEntSampler",
    "maxent_cluster_weights",
    "select_hypercubes_maxent",
    "shannon_entropy",
    "kl_divergence",
    "cluster_value_distributions",
    "entropy_adjacency",
    "node_strengths",
    "adjacency_graph",
    "strength_weights",
    "select_snapshots",
    "js_divergence",
    "Stage",
    "PipelineContext",
    "CubeIndexStage",
    "Phase1SummarizeStage",
    "CubeSelectStage",
    "PointSampleStage",
    "GatherStage",
    "SubsamplePipeline",
    "SubsampleResult",
    "subsample",
    "ReservoirSampler",
    "ReservoirStream",
    "StreamingMaxEnt",
    "run_stream_subsample",
]
