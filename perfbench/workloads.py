"""The four benchmark workloads, each driving the public ``repro`` API.

Every workload builds its inputs from the run seed alone (a synthetic
SST-P1F4 dataset simulated from that seed, then round seeds derived from
it), runs closed-loop rounds from one client, checks each round's output,
and knows how to run the same round under the traced-run wrappers.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from collections import defaultdict
from multiprocessing import resource_tracker

import numpy as np

from harness import Round, digest_arrays, op_seed, percentile, points_digest, sha256_file
from tracing import Patches, Recorder, TimedComm, TimedStage, TraceCallback, timed

from repro.api import Experiment, build_model_for_case
from repro.cluster.kmeans import KMeans, MiniBatchKMeans
from repro.data.loaders import load_dataset, save_dataset
from repro.data.sources import InMemorySource, ShardDirSource, open_source
from repro.nn.tensor import Tensor
from repro.parallel import run_spmd
from repro.sampling.pipeline import SubsamplePipeline, subsample
from repro.sampling.streaming import StreamingMaxEnt
from repro.serve.jobs import JobSpec
from repro.serve.scheduler import Scheduler
from repro.serve.store import ArtifactStore
from repro.sim.fields import FlowField
from repro.train.data import build_reconstruction_data
from repro.train.feeds import ArrayFeed
from repro.train.loop import TrainLoop
from repro.utils.config import CaseConfig

#: SST-P1F4 geometry every workload simulates: 32x32x16 grid per snapshot
SNAPSHOTS = 16
SCALE = 1.0
#: shard LRU smaller than the dataset, so sampling re-decodes shards
MAX_CACHED = 4
RANKS = 2


def case_dict(num_hypercubes: int, num_samples: int, epochs: int = 2,
              batch: int = 8) -> dict:
    return {
        "shared": {"dims": 3, "dtype": "sst-binary", "input_vars": ["u", "v", "w"],
                   "output_vars": "p", "cluster_var": "pv"},
        "subsample": {"hypercubes": "maxent", "num_hypercubes": num_hypercubes,
                      "method": "maxent", "num_samples": num_samples,
                      "num_clusters": 4, "nxsl": 8, "nysl": 8, "nzsl": 8},
        "train": {"epochs": epochs, "batch": batch, "window": 1,
                  "arch": "MLP_transformer"},
    }


def make_shards(seed: int, workdir: str, n_snapshots: int = SNAPSHOTS) -> str:
    """Simulate the dataset from ``seed`` and write it as npz shards."""
    path = os.path.join(workdir, "shards")
    save_dataset(load_dataset("sst-binary", scale=SCALE, rng=seed,
                              n_snapshots=n_snapshots), path)
    return path


def install_layer_patches(rec: Recorder, patches: Patches) -> None:
    """Class-level wrappers shared by every traced workload.

    They fire only where a workload actually calls the layer: shard fetch
    and field access (data), k-means (cluster), the online MaxEnt sampler
    (stream sampling) and autograd backward (train).
    """
    patches.wrap_method(ShardDirSource, "snapshot", rec, "data.fetch")
    patches.wrap_method(FlowField, "get", rec, "data.field_get")

    def iters(out, _args, _attrs) -> None:
        rec.count("cluster.kmeans_iters", out.n_iter_)

    def one_iter(_out, _args, _attrs) -> None:
        rec.count("cluster.kmeans_iters", 1)

    patches.wrap_method(KMeans, "fit", rec, "cluster.kmeans", after=iters)
    patches.wrap_method(MiniBatchKMeans, "fit", rec, "cluster.kmeans", after=iters)
    patches.wrap_method(MiniBatchKMeans, "partial_fit", rec, "cluster.kmeans",
                        after=one_iter)
    patches.wrap_method(StreamingMaxEnt, "feed", rec, "sampling.stream_feed")
    patches.wrap_method(StreamingMaxEnt, "merge_partial", rec, "sampling.stream_merge")
    patches.wrap_method(Tensor, "backward", rec, "train.backward")


# ---- per-layer aggregation --------------------------------------------------


def per_op_rank(items, ops: list[int]) -> float:
    """Median over ``ops`` of the per-rank mean of summed values.

    ``items`` yields ``(op, rank, value)``; within an op each rank's values
    are summed, the sums averaged over the ranks that recorded any, and an
    op with none counts as 0.
    """
    sums: dict[tuple[int, int], float] = defaultdict(float)
    for op, rank, value in items:
        sums[(op, rank)] += value
    per_op = []
    for op in ops:
        vals = [v for (o, _), v in sums.items() if o == op]
        per_op.append(sum(vals) / len(vals) if vals else 0.0)
    return statistics.median(per_op) if per_op else 0.0


def span_ms(rec: Recorder, names: set[str], ops: list[int]) -> float:
    return per_op_rank(((s.op, s.rank, s.ms) for s in rec.spans if s.name in names), ops)


def counter(rec: Recorder, name: str, ops: list[int]) -> float:
    return per_op_rank(((op, rank, v) for n, v, op, rank in rec.counts if n == name), ops)


COMM_OPS = {f"parallel.{op}" for op in (
    "barrier", "bcast", "scatter", "gather", "allgather", "reduce",
    "allreduce", "alltoall", "send", "recv")}


#: per-layer metrics not derived from spans; they read 0 on workloads that
#: do not exercise their layer (each workload fills in its own)
NOT_EXERCISED = (
    "data.decodes", "data.hit_ratio", "sampling.points_scanned", "train.test_mse",
    "serve.submit_ms", "serve.queue_ms", "serve.run_ms", "serve.commit_ms",
    "serve.hit_ratio", "serve.hit_ms_p50", "serve.hit_ms_p90", "serve.miss_ms_p50",
)


def common_layer_metrics(rec: Recorder, rounds: list[Round]) -> dict[str, float]:
    """The span-derived per-layer metrics, identical in meaning everywhere."""
    ops = list(range(1, len(rounds) + 1))
    out = dict.fromkeys(NOT_EXERCISED, 0.0)
    out.update({
        "data.fetch_ms": span_ms(rec, {"data.fetch"}, ops),
        "data.field_get_ms": span_ms(rec, {"data.field_get"}, ops),
        "cluster.kmeans_ms": span_ms(rec, {"cluster.kmeans"}, ops),
        "cluster.kmeans_iters": counter(rec, "cluster.kmeans_iters", ops),
        "sampling.stream_feed_ms": span_ms(rec, {"sampling.stream_feed"}, ops),
        "sampling.stream_merge_ms": span_ms(rec, {"sampling.stream_merge"}, ops),
        "parallel.launch_ms": span_ms(rec, {"parallel.launch"}, ops),
        "parallel.comm_ms": span_ms(rec, COMM_OPS, ops),
        "parallel.virtual_ms": 1e3 * per_op_rank(
            ((s.op, s.rank, s.attrs["virtual_s"]) for s in rec.spans
             if "virtual_s" in s.attrs), ops),
        "parallel.collectives": counter(rec, "parallel.collectives", ops),
        "parallel.bytes_sent": counter(rec, "parallel.bytes_sent", ops),
        "train.steps": counter(rec, "train.steps", ops),
    })
    allreduce = [s.ms for s in rec.spans if s.name == "parallel.allreduce"]
    out["parallel.allreduce_ms_p50"] = statistics.median(allreduce) if allreduce else 0.0
    for stage in ("cube_index", "phase1", "select", "point_sample", "gather"):
        out[f"sampling.{stage}_ms"] = span_ms(rec, {f"sampling.{stage}"}, ops)
    for phase in ("forward", "backward", "sync", "optimizer", "eval", "feed_wait"):
        out[f"train.{phase}_ms"] = span_ms(rec, {f"train.{phase}"}, ops)
    return out


def cache_counters(source: ShardDirSource) -> dict:
    return dict(source.cache_info()["counters"])


def cache_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in before}


def cache_layer_metrics(rounds: list[Round]) -> dict[str, float]:
    """data.decodes / data.hit_ratio from per-round cache counter deltas."""
    decodes = [r.extras["cache"]["misses"] for r in rounds if "cache" in r.extras]
    ratios = []
    for r in rounds:
        c = r.extras.get("cache")
        if c and c["hits"] + c["misses"]:
            ratios.append(c["hits"] / (c["hits"] + c["misses"]))
    return {
        "data.decodes": statistics.median(decodes) if decodes else 0.0,
        "data.hit_ratio": statistics.median(ratios) if ratios else 0.0,
    }


class Workload:
    """Shared plumbing; subclasses implement ``setup`` and ``round``."""

    name = ""
    ops_per_round = 1

    def __init__(self) -> None:
        self.workdir = ""
        self.seed = 0

    def reset(self) -> None:
        """Called before the traced pass replays the untraced rounds."""

    def install(self, rec: Recorder, patches: Patches) -> None:
        install_layer_patches(rec, patches)

    def checks(self, warm: Round, rounds: list[Round]) -> list[tuple[str, bool, str]]:
        return []

    def extras(self, rounds: list[Round], window_s: float) -> dict:
        return {}

    def layer_metrics(self, rec: Recorder, rounds: list[Round]) -> dict[str, float]:
        return common_layer_metrics(rec, rounds)

    def close(self) -> None:
        """Release what ``setup`` opened."""


class ShardWorkload(Workload):
    """A workload whose client reads ``SNAPSHOTS`` npz shards through one
    ``ShardDirSource`` with a ``MAX_CACHED``-shard LRU."""

    NUM_HYPERCUBES = 16
    NUM_SAMPLES = 64
    EPOCHS = 2

    def setup(self, seed: int, workdir: str) -> None:
        self.seed, self.workdir = seed, workdir
        self.path = make_shards(seed, workdir)
        self.source = ShardDirSource(self.path, max_cached=MAX_CACHED)
        self.case = CaseConfig.from_dict(case_dict(self.NUM_HYPERCUBES, self.NUM_SAMPLES,
                                                   epochs=self.EPOCHS))

    def layer_metrics(self, rec, rounds):
        out = common_layer_metrics(rec, rounds)
        out.update(cache_layer_metrics(rounds))
        out["sampling.points_scanned"] = statistics.median(
            r.extras["scanned"] for r in rounds)
        return out

    def close(self) -> None:
        self.source.close()


class Trains:
    """Extras and per-layer test loss of a workload whose rounds train: each
    round's extras hold the ``samples`` it trained on and its ``test_mse``."""

    def extras(self, rounds, window_s):
        ok = [r for r in rounds if r.ok_ops]
        return {
            "train_samples_per_s": (sum(r.extras["samples"] for r in ok) / window_s,
                                    "samples/s"),
            "test_mse": (statistics.fmean(r.extras["test_mse"] for r in ok), "mse"),
        }

    def layer_metrics(self, rec, rounds):
        out = super().layer_metrics(rec, rounds)
        out["train.test_mse"] = statistics.fmean(r.extras["test_mse"] for r in rounds)
        return out


# ---- subsample-batch ----------------------------------------------------------


class SubsampleBatch(ShardWorkload):
    """Two-phase Hmaxent -> Xmaxent ``subsample()`` over npz shards, 2 thread
    ranks, a fresh seed per op."""

    name = "subsample-batch"

    def sizes(self) -> dict:
        return {"dataset": "SST-P1F4", "grid": [32, 32, 16], "snapshots": SNAPSHOTS,
                "codec": "npz", "max_cached": MAX_CACHED, "ranks": RANKS,
                "backend": "thread", "num_hypercubes": self.NUM_HYPERCUBES,
                "num_samples": self.NUM_SAMPLES, "cube": [8, 8, 8]}

    def _traced_subsample(self, seed: int, rec: Recorder):
        """``subsample()``'s batch path with every default stage and the
        communicator wrapped (the pipeline the public entry point runs)."""
        starts: list[int] = []

        def rank_fn(comm):
            starts.append(time.perf_counter_ns())
            wrapped = TimedComm(comm, rec)
            pipe = SubsamplePipeline([TimedStage(s, rec)
                                      for s in SubsamplePipeline.default_stages()])
            out = pipe.run(wrapped, self.source, self.case, seed=seed)
            wrapped.record_stats()
            return out

        t_call = time.perf_counter_ns()
        spmd = run_spmd(rank_fn, RANKS, backend="thread")
        rec.add_span("parallel.launch", t_call, max(starts))
        return spmd[0]

    def round(self, i: int, rec: Recorder | None = None) -> Round:
        seed = op_seed(self.seed, i)
        before = cache_counters(self.source)
        t0 = time.perf_counter()
        if rec is None:
            res = subsample(self.source, self.case, nranks=RANKS, seed=seed)
        else:
            res = self._traced_subsample(seed, rec)
        ms = (time.perf_counter() - t0) * 1e3
        expected = self.NUM_HYPERCUBES * self.NUM_SAMPLES
        ok = res.points is not None and len(res.points) == expected == res.n_samples
        energy = res.energy.total_energy if rec is None else 0.0
        return Round(
            latencies_ms=[ms] if ok else [], failed=0 if ok else 1, energy_j=energy,
            digest=points_digest(res.points) if res.points is not None else "",
            extras={"scanned": res.n_points_scanned,
                    "cache": cache_delta(before, cache_counters(self.source))},
        )

    def checks(self, warm, rounds):
        again = self.round(0)
        return [("repeated seed gives byte-identical points",
                 again.digest == warm.digest, again.digest[:12])]

    def extras(self, rounds, window_s):
        scanned = sum(r.extras["scanned"] for r in rounds if r.ok_ops)
        return {"scan_mpts_per_s": (scanned / window_s / 1e6, "1e6pts/s")}


# ---- stream-train ---------------------------------------------------------------


class StreamTrain(Trains, ShardWorkload):
    """``subsample(mode="stream")`` on 2 thread ranks, then a serial
    ``train(mode="stream")`` off the same shards."""

    name = "stream-train"

    def sizes(self) -> dict:
        return {"dataset": "SST-P1F4", "grid": [32, 32, 16], "snapshots": SNAPSHOTS,
                "codec": "npz", "max_cached": MAX_CACHED, "subsample_ranks": RANKS,
                "train_ranks": 1, "backend": "thread",
                "budget": self.NUM_HYPERCUBES * self.NUM_SAMPLES,
                "epochs": self.EPOCHS, "batch": 8, "arch": "mlp_transformer"}

    def round(self, i: int, rec: Recorder | None = None) -> Round:
        seed = op_seed(self.seed, i)
        before = cache_counters(self.source)
        t0 = time.perf_counter()
        exp = (Experiment.from_case(self.case).with_source(self.source)
               .with_seed(seed).with_ranks(RANKS).with_epochs(self.EPOCHS))
        exp.subsample(mode="stream")
        exp.train(mode="stream", callbacks=None if rec is None else [TraceCallback(rec)])
        ms = (time.perf_counter() - t0) * 1e3
        sub = exp.subsample_artifact.result
        fit = exp.train_artifact.result
        losses = np.array(fit.train_losses + fit.test_losses + [fit.final_test_loss])
        ok = (sub.n_samples == self.NUM_HYPERCUBES * self.NUM_SAMPLES
              and fit.epochs_run == self.EPOCHS and bool(np.isfinite(losses).all()))
        feed = fit.meta["feed"]
        return Round(
            latencies_ms=[ms] if ok else [], failed=0 if ok else 1,
            energy_j=sub.energy.total_energy + fit.energy.total_energy,
            digest=digest_arrays(points_digest(sub.points), losses),
            extras={"samples": (feed["samples"] - feed["n_test"]) * fit.epochs_run,
                    "test_mse": fit.final_test_loss, "scanned": sub.n_points_scanned,
                    "cache": cache_delta(before, cache_counters(self.source))},
        )


# ---- ddp-process ------------------------------------------------------------------


class DdpProcess(Trains, Workload):
    """Batch DDP ``TrainLoop.fit`` on the process backend at 2 ranks over
    resident arrays built in setup."""

    name = "ddp-process"
    NUM_HYPERCUBES = 64
    EPOCHS = 10
    BATCH = 8

    def setup(self, seed: int, workdir: str) -> None:
        self.seed, self.workdir = seed, workdir
        # Start the shared-memory resource tracker here, before any rank is
        # forked, so every rank reuses it and close() can stop and reap it;
        # otherwise ranks start trackers of their own that outlive the run.
        resource_tracker.ensure_running()
        self.case = CaseConfig.from_dict(case_dict(self.NUM_HYPERCUBES, 64,
                                                   epochs=self.EPOCHS, batch=self.BATCH))
        source = InMemorySource(load_dataset("sst-binary", scale=SCALE, rng=seed,
                                             n_snapshots=8))
        res = subsample(source, self.case, nranks=RANKS, seed=seed)
        self.data = build_reconstruction_data(source, res, window=1)
        self.n_params = sum(p.data.size for p in
                            build_model_for_case(self.case, self.data, rng=0).parameters())

    def sizes(self) -> dict:
        return {"dataset": "SST-P1F4", "grid": [32, 32, 16], "snapshots": 8,
                "samples": int(self.data.x.shape[0]), "params": self.n_params,
                "gradient_bytes": 8 * self.n_params,
                "ranks": RANKS, "backend": "process", "epochs": self.EPOCHS,
                "batch": self.BATCH, "arch": "mlp_transformer"}

    def _fit(self, comm, seed: int, rec: Recorder | None = None):
        train = self.case.train
        callbacks = None
        if rec is not None:
            start = time.perf_counter_ns()
            rec.take()  # a forked rank starts with a copy of the parent's spans
            rec.set_rank(comm.rank)
            comm = TimedComm(comm, rec)
            callbacks = [TraceCallback(rec)]
        model = build_model_for_case(self.case, self.data, rng=seed)
        loop = TrainLoop(model, lr=train.lr, patience=train.patience,
                         precision=train.precision, comm=comm, seed=seed,
                         callbacks=callbacks)
        feed = ArrayFeed(self.data.x, self.data.y, batch=train.batch,
                         test_frac=train.test_frac, seed=seed, comm=loop.comm)
        result = loop.fit(feed, epochs=self.EPOCHS)
        if rec is None:
            return result
        comm.record_stats()
        return result, rec.take(), start

    def round(self, i: int, rec: Recorder | None = None, backend: str = "process") -> Round:
        seed = op_seed(self.seed, i)
        t_call = time.perf_counter_ns()
        spmd = run_spmd(self._fit, RANKS, seed, rec, backend=backend)
        ms = (time.perf_counter_ns() - t_call) / 1e6
        if rec is None:
            fit = spmd[0]
        else:
            fit = spmd[0][0]
            for _, (spans, counts), _ in spmd.values:
                rec.absorb(spans, counts)
            rec.add_span("parallel.launch", t_call, max(v[2] for v in spmd.values))
        losses = np.array(fit.train_losses + fit.test_losses + [fit.final_test_loss])
        ok = fit.epochs_run == self.EPOCHS and bool(np.isfinite(losses).all())
        n_train = self.data.x.shape[0] - fit.meta["feed"].get("n_test", 0)
        return Round(
            latencies_ms=[ms] if ok else [], failed=0 if ok else 1,
            energy_j=fit.energy.total_energy, digest=digest_arrays(losses),
            extras={"samples": n_train * fit.epochs_run, "test_mse": fit.final_test_loss},
        )

    def checks(self, warm, rounds):
        thread = self.round(0, backend="thread")
        return [("process and thread backends give identical losses",
                 thread.digest == warm.digest, thread.digest[:12])]

    def close(self) -> None:
        resource_tracker._resource_tracker._stop()


# ---- serve-dedupe ---------------------------------------------------------------------


class ServeDedupe(Workload):
    """In-process ``Scheduler`` + ``ArtifactStore`` with 2 workers; one client
    submits a seeded trace of small subsample specs.  Each round computes a
    fresh spec (miss: run + commit), attaches one duplicate while it is in
    flight, then resolves ``HITS`` submissions of already-computed specs
    from the store."""

    name = "serve-dedupe"
    HITS = 8
    ops_per_round = HITS + 2
    NUM_HYPERCUBES = 8
    NUM_SAMPLES = 32
    POLL_S = 0.001

    def setup(self, seed: int, workdir: str) -> None:
        self.seed, self.workdir = seed, workdir
        self.path = make_shards(seed, workdir)
        self.case = case_dict(self.NUM_HYPERCUBES, self.NUM_SAMPLES)
        self._open_service()

    def _open_service(self) -> None:
        root = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        self.store = ArtifactStore(os.path.join(root, "store"))
        self.sched = Scheduler(self.store, os.path.join(root, "spool"), workers=2)
        self.computed: list[tuple[JobSpec, str, str]] = []  # spec, artifact, sha256
        self.hits: list[tuple[str, str]] = []                # artifact, expected sha

    def sizes(self) -> dict:
        return {"dataset": "SST-P1F4", "grid": [32, 32, 16], "snapshots": SNAPSHOTS,
                "codec": "npz", "max_cached": MAX_CACHED, "workers": 2, "job_ranks": 1,
                "num_hypercubes": self.NUM_HYPERCUBES, "num_samples": self.NUM_SAMPLES,
                "ops_per_round": f"1 miss + 1 attach + {self.HITS} hits"}

    def spec(self, i: int) -> JobSpec:
        return JobSpec(kind="subsample", case=self.case, seed=op_seed(self.seed, i),
                       ranks=1, source=self.path, max_cached_shards=MAX_CACHED)

    def _wait(self, job_id: str) -> dict:
        while True:
            snap = self.sched.job(job_id)
            if snap["status"] not in ("queued", "running"):
                return snap
            time.sleep(self.POLL_S)

    def round(self, i: int, rec: Recorder | None = None) -> Round:
        # An op's latency is what the client sees: from its submit() call
        # until it holds the finished job (a hit's submit() returns it; the
        # miss and its attach wait for the run).  The job's own created_at /
        # finished_at stamps give the server-side times.
        spec = self.spec(i)
        lat, failed = [], 0
        t_miss = time.perf_counter()
        miss = self.sched.submit(spec)
        t_attach = time.perf_counter()
        attach = self.sched.submit(spec)
        done = self._wait(miss["id"])
        t_done = time.perf_counter()
        ok = (done["status"] == "done" and not miss["cache_hit"] and not miss["attached"]
              and attach["attached"] and attach["id"] == miss["id"])
        server_miss_ms = None
        if ok:
            path = self.sched.artifact_path(miss["id"])
            self.computed.append((spec, path, sha256_file(path)))
            lat += [(t_done - t_miss) * 1e3, (t_done - t_attach) * 1e3]
            server_miss_ms = (done["finished_at"] - done["created_at"]) * 1e3
        else:
            failed += 2
        rng = np.random.default_rng([self.seed, i])
        server_hit_ms = []
        for _ in range(self.HITS):
            want, _, want_sha = self.computed[int(rng.integers(len(self.computed)))]
            t0 = time.perf_counter()
            hit = self.sched.submit(want)
            ms = (time.perf_counter() - t0) * 1e3
            if hit["cache_hit"] and hit["status"] == "done":
                lat.append(ms)
                server_hit_ms.append((hit["finished_at"] - hit["created_at"]) * 1e3)
                self.hits.append((self.sched.artifact_path(hit["id"]), want_sha))
            else:
                failed += 1
        energy = (done.get("result") or {}).get("total_energy") or 0.0
        return Round(
            latencies_ms=lat, failed=failed, energy_j=float(energy),
            digest=digest_arrays(np.array([c[2] for c in self.computed[-1:]]),
                                 np.array([h[1] for h in self.hits[-self.HITS:]])),
            extras={"server_miss_ms": server_miss_ms, "server_hit_ms": server_hit_ms,
                    "job": done},
        )

    def reset(self) -> None:
        """A fresh store and pool, re-seeded with the warm-up spec, so the
        traced pass replays the untraced rounds against the same state."""
        self.sched.close()
        self._open_service()
        self.round(0)

    def install(self, rec: Recorder, patches: Patches) -> None:
        install_layer_patches(rec, patches)
        self.sched.submit = timed(rec, "serve.submit", self.sched.submit)
        self.store.put = timed(rec, "serve.commit", self.store.put)

    def _direct_sha(self, spec: JobSpec) -> str:
        """sha256 of the artifact a direct ``Experiment.subsample()`` saves."""
        source = open_source(spec.source, max_cached=spec.max_cached_shards)
        try:
            exp = (Experiment.from_case(spec.case).with_seed(spec.seed)
                   .with_source(source).with_ranks(spec.ranks))
            exp.subsample()
            out = tempfile.mkdtemp(prefix="direct-", dir=self.workdir)
            return sha256_file(exp.subsample_artifact.save(os.path.join(out, "artifact")))
        finally:
            source.close()

    def checks(self, warm, rounds):
        bad = [p for p, want in self.hits if sha256_file(p) != want]
        out = [("every cache hit's artifact sha256 equals its miss's", not bad,
                f"{len(self.hits) - len(bad)}/{len(self.hits)} hits match")]
        for spec, _, sha in (self.computed[0], self.computed[-1]):
            direct = self._direct_sha(spec)
            out.append((f"served artifact equals direct Experiment.subsample() "
                        f"(seed {spec.seed})", direct == sha, direct[:12]))
        return out

    def extras(self, rounds, window_s):
        # jobs_per_s (submissions resolved per second) is ops_per_s here
        ok = [r for r in rounds if r.extras.get("server_miss_ms") is not None]
        hits = [x for r in rounds for x in r.extras.get("server_hit_ms", [])]
        return {
            "miss_ms_p50": (statistics.median(r.extras["server_miss_ms"] for r in ok), "ms"),
            "hit_ms_p50": (statistics.median(hits), "ms"),
        }

    def layer_metrics(self, rec, rounds):
        out = common_layer_metrics(rec, rounds)
        jobs = [r.extras["job"] for r in rounds if r.extras.get("server_miss_ms") is not None]
        commits = [s.ms for s in rec.spans if s.name == "serve.commit"]
        commit_p50 = statistics.median(commits) if commits else 0.0
        hits = [x for r in rounds for x in r.extras["server_hit_ms"]]
        submitted = sum(r.ok_ops + r.failed for r in rounds)
        out.update({
            "serve.submit_ms": statistics.median(
                s.ms for s in rec.spans if s.name == "serve.submit"),
            "serve.queue_ms": statistics.median(
                (j["started_at"] - j["created_at"]) * 1e3 for j in jobs),
            "serve.run_ms": statistics.median(
                (j["finished_at"] - j["started_at"]) * 1e3 for j in jobs) - commit_p50,
            "serve.commit_ms": commit_p50,
            "serve.hit_ratio": len(hits) / max(submitted, 1),
            "serve.hit_ms_p50": statistics.median(hits),
            "serve.hit_ms_p90": percentile(hits, 90),
            "serve.miss_ms_p50": statistics.median(r.extras["server_miss_ms"]
                                                   for r in rounds
                                                   if r.extras.get("server_miss_ms")),
        })
        return out

    def close(self) -> None:
        self.sched.close()


WORKLOADS = {cls.name: cls for cls in (SubsampleBatch, StreamTrain, DdpProcess, ServeDedupe)}
