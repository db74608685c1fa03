"""One sha256 per launch cell: subsample and train, batch and stream, over
rank counts, source kinds and both SPMD backends.

A digest hashes what the run must reproduce byte for byte: the points (or
the losses), the virtual time and the total energy as hex floats, and the
result meta without the case snapshot (its key order included, since saved
artifacts store it).  The table was recorded before the SPMD launch code was
unified, so a cell that changes means the determinism contract broke; it is
not a table to refresh.  Extend ``CELLS`` rather than adding another suite.
"""

import contextlib
import hashlib
import json

import numpy as np
import pytest

from repro.api import Experiment
from repro.data import build_dataset, open_source, save_dataset
from repro.sampling.pipeline import subsample
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def case(method="maxent", window=1):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="maxent", method=method, num_hypercubes=4,
            num_samples=32, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
        ),
        train=TrainConfig(epochs=2, batch=4, window=window, horizon=1,
                          arch="mlp_transformer"),
    )


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """The in-memory datasets and an npz shard directory of each."""
    out = {"sub": build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=4),
           "fit": build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=6)}
    for name in ("sub", "fit"):
        path = str(tmp_path_factory.mktemp(f"shards_{name}"))
        save_dataset(out[name], path)
        out[f"{name}_dir"] = path
    return out


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype.str, part.shape)).encode())
            part = np.ascontiguousarray(part).tobytes()
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def subsample_digest(res) -> str:
    pts = res.points
    return sha(pts.coords, np.asarray(pts.time), *pts.values.values(),
               json.dumps(list(pts.values)), json.dumps(pts.meta),
               np.asarray(res.selected_cube_ids), res.n_candidate_cubes,
               res.n_points_scanned, res.virtual_time.hex(),
               res.energy.total_energy.hex(),
               json.dumps({k: v for k, v in res.meta.items() if k != "case"}))


def fit_digest(fit) -> str:
    losses = np.array(fit.train_losses + fit.test_losses
                      + [fit.best_test_loss, fit.final_test_loss])
    return sha(losses, fit.epochs_run, fit.lr_reductions, fit.energy.elapsed.hex(),
               fit.energy.total_energy.hex(), json.dumps(fit.meta))


@contextlib.contextmanager
def opened(spec):
    source = open_source(spec)
    try:
        yield source
    finally:
        if hasattr(source, "close"):
            source.close()


def run_subsample(data, src, *, ranks, mode, method="maxent", backend="thread", **kw):
    with opened(data[src]) as source:
        return subsample_digest(subsample(source, case(method), nranks=ranks, seed=3,
                                          mode=mode, backend=backend, **kw))


def kill_rank_1(rank, snapshots_done=0, rows_fed=0):
    return rank == 1 and rows_fed > 0


def run_fit(data, src, *, ranks, mode, backend="thread"):
    with opened(data[src]) as source:
        exp = (Experiment.from_case(case(window=2 if mode == "stream" else 1))
               .with_source(source).with_seed(3).with_backend(backend)
               .with_train_ranks(ranks))
        exp.subsample(mode=mode, ranks=ranks if mode == "stream" else 1)
        exp.train(mode=mode)
        return fit_digest(exp.train_artifact.result)


def remote(path):
    return f"remote://{path}?latency_s=0.002&max_staged=2"


CELLS = {
    # stream subsample over the in-memory case
    **{f"stream-mem-{m}-r{r}": (run_subsample, "sub", dict(ranks=r, mode="stream", method=m))
       for m in ("maxent", "random") for r in (1, 2, 3)},
    # 2-rank stream subsample over an npz shard directory
    "stream-dir-shared": (run_subsample, "sub_dir", dict(ranks=2, mode="stream")),
    "stream-dir-owned": (run_subsample, "sub_dir",
                         dict(ranks=2, mode="stream", owned_shards=True)),
    "stream-remote": (run_subsample, "sub_remote", dict(ranks=2, mode="stream")),
    "stream-dir-process": (run_subsample, "sub_dir",
                           dict(ranks=2, mode="stream", backend="process")),
    "stream-dir-owned-death": (run_subsample, "sub_dir", dict(
        ranks=2, mode="stream", owned_shards=True, on_rank_failure="reweight",
        fault_hook=kill_rank_1)),
    # batch subsample
    **{f"batch-{src}-r{r}-{b}": (run_subsample, s, dict(ranks=r, mode="batch", backend=b))
       for src, s in (("mem", "sub"), ("dir", "sub_dir"))
       for r, b in ((1, "thread"), (2, "thread"), (2, "process"))},
    # stream and batch (DDP) fits
    "fit-stream-mem-r1": (run_fit, "fit", dict(ranks=1, mode="stream")),
    "fit-stream-mem-r2": (run_fit, "fit", dict(ranks=2, mode="stream")),
    "fit-stream-dir-r2": (run_fit, "fit_dir", dict(ranks=2, mode="stream")),
    "fit-stream-dir-r2-process": (run_fit, "fit_dir",
                                  dict(ranks=2, mode="stream", backend="process")),
    "fit-batch-mem-r2": (run_fit, "fit", dict(ranks=2, mode="batch")),
    "fit-batch-mem-r2-process": (run_fit, "fit", dict(ranks=2, mode="batch",
                                                       backend="process")),
}

GOLDEN = {
    "batch-dir-r1-thread": "e2e7d76dd82d9f08ac6070c7fa206430bc0d59425311fdfa3d7bf652bc940ca3",
    "batch-dir-r2-process": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "batch-dir-r2-thread": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "batch-mem-r1-thread": "e2e7d76dd82d9f08ac6070c7fa206430bc0d59425311fdfa3d7bf652bc940ca3",
    "batch-mem-r2-process": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "batch-mem-r2-thread": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "fit-batch-mem-r2": "5eebf53dfa5d34a3d4ef547e886dd470b11b507b82b8696e7bc2abf036b4223a",
    "fit-batch-mem-r2-process": "5eebf53dfa5d34a3d4ef547e886dd470b11b507b82b8696e7bc2abf036b4223a",
    "fit-stream-dir-r2": "1128b5b2f7451aae772d620402e276b998f9e20c6456e20d5b17240dfeea345a",
    "fit-stream-dir-r2-process": "1128b5b2f7451aae772d620402e276b998f9e20c6456e20d5b17240dfeea345a",
    "fit-stream-mem-r1": "3eb1df0adea6287378f3ef02c48088c8a57a476f7b7cf077351dc82e3424a33a",
    "fit-stream-mem-r2": "b6d0e702c9913c6be2f7a1f06beecd7ac4252ec360955009eb8db24af423e2c4",
    "stream-dir-owned": "6d8c0d160a82db6c1178deda6417f35c155c04200cbc7c75145ed23eec8d5ccd",
    "stream-dir-owned-death": "24f311755de62c34099ff0d588522adc89300d637b459e9f9b4455400489b7ce",
    "stream-dir-process": "daeccd7d78134e452da42a09aac28aaea7b272bdf8c0b6bd0ce4e7ba0223a155",
    "stream-dir-shared": "a6d7a130f187661d25e4642e60b2400f0a1da45eb12013b63e9a53d3e8296e49",
    "stream-mem-maxent-r1": "31e8352b9ff28ba7e2c7818e2d1577d54ee32c4777b3617c7354558973227f79",
    "stream-mem-maxent-r2": "d815b3c850396e321149b2e8b018b763a211dc32ec26e9899b88f40d57957805",
    "stream-mem-maxent-r3": "82fe132ab1d27ba36f9cd83a026ccc22125b8873b9fbd027e0c5587cf1e80b2e",
    "stream-mem-random-r1": "8c113f4f49d6d5b44ac30fe3917b64ceb2ac720568654ddfae73e5f3e12b8dcd",
    "stream-mem-random-r2": "0e4246f5db1ee1eeb7296d79d067ad04fd3b574b85634b595f5838fef1cbd138",
    "stream-mem-random-r3": "bbfae54e4c6927b4242e9f4169e68e54bd8327b67b8c0a3f7003447809ea1e77",
    "stream-remote": "2f5eb1d8b8e9bf303095834f0109a5589670da324a640376e13036fc5cabd56a",
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(data, name):
    run, src, kw = CELLS[name]
    sources = {**data, "sub_remote": remote(data["sub_dir"])}
    assert run(sources, src, **kw) == GOLDEN[name]


def test_table_covers_every_cell():
    assert sorted(GOLDEN) == sorted(CELLS)
