"""One sha256 per launch cell: subsample and train, batch and stream, over
rank counts, source kinds and both SPMD backends.

A digest hashes what the run must reproduce byte for byte: the points (or
the losses), the virtual time and the total energy as hex floats, and the
result meta without the case snapshot (its key order included, since saved
artifacts store it).  The table was recorded before the SPMD launch code was
unified, and the ``fit-array-*`` cells before the training step moved onto
flat parameter buffers, so a cell that changes means the determinism
contract broke; it is not a table to refresh.  Extend ``CELLS`` rather than
adding another suite.
"""

import contextlib
import hashlib
import json

import numpy as np
import pytest

from repro.api import Experiment, build_model_for_case
from repro.data import build_dataset, open_source, save_dataset
from repro.data.hypercubes import extract_hypercube, hypercube_origins
from repro.nn import LSTMRegressor
from repro.parallel import run_spmd
from repro.sampling.pipeline import subsample
from repro.train import ArrayFeed, TrainLoop, build_drag_data, build_reconstruction_data
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def case(method="maxent", window=1, arch="mlp_transformer"):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="maxent", method=method, num_hypercubes=4,
            num_samples=32, num_clusters=4, nxsl=8, nysl=8, nzsl=8,
        ),
        train=TrainConfig(epochs=2, batch=4, window=window, horizon=1, arch=arch),
    )


def drag_arrays():
    """LSTM drag-surrogate arrays from a small OF2D subsample (bench_fig6 style)."""
    ds = build_dataset("OF2D", scale=0.3, rng=0, n_snapshots=16)
    cfg = CaseConfig(
        shared=SharedConfig(dims=2),
        subsample=SubsampleConfig(hypercubes="random", method="maxent", num_hypercubes=4,
                                  num_samples=16, num_clusters=4, nxsl=12, nysl=12, nzsl=1),
        train=TrainConfig(arch="lstm", window=3),
    )
    return build_drag_data(ds, subsample(ds, cfg, seed=3), window=3, max_features=48)


def dense_cubes(ds, edge=8, n=12):
    """Dense ``edge``^3 training cubes, one per (snapshot, origin) pair, the
    way bench_fig9 builds its MATEY data."""
    origins = hypercube_origins(ds.grid_shape, (edge,) * 3)
    holder = type("R", (), {"points": None, "cubes": []})()
    for i in range(n):
        s, origin = i % ds.n_snapshots, origins[(5 * i) % len(origins)]
        cube = extract_hypercube(ds.snapshots[s], origin, (edge,) * 3, ["u", "v", "w", "p"])
        cube.meta["snapshot"] = s
        holder.cubes.append(cube)
    return build_reconstruction_data(ds, holder, window=1, horizon=1)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """The in-memory datasets and an npz shard directory of each."""
    out = {"sub": build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=4),
           "fit": build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=6)}
    for name in ("sub", "fit"):
        path = str(tmp_path_factory.mktemp(f"shards_{name}"))
        save_dataset(out[name], path)
        out[f"{name}_dir"] = path
    out["drag"] = drag_arrays()
    out["cubes"] = dense_cubes(out["fit"])
    out["points"] = build_reconstruction_data(out["fit"], subsample(out["fit"], case(), seed=3))
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


#: Small enough that the gradient norm exceeds it on every step, so each
#: array fit below runs the clipping branch.
CLIP = 1e-3


def run_array_fit(data, src, *, arch, ranks=1, precision="fp32"):
    """A ``TrainLoop`` + ``ArrayFeed`` fit over resident arrays, on the
    thread backend when ``ranks > 1``."""
    arrays = data[src]

    def fit(comm):
        if arch == "lstm":
            x, y = arrays
            model = LSTMRegressor(input_dim=x.shape[2], hidden=16, rng=3)
        else:
            x, y = arrays.x, arrays.y
            model = build_model_for_case(case(arch=arch), arrays, rng=3)
        loop = TrainLoop(model, lr=5e-3, patience=10, precision=precision,
                         grad_clip=CLIP, comm=comm, seed=3)
        return loop.fit(ArrayFeed(x, y, batch=4, seed=3, comm=loop.comm), epochs=3)

    return fit_digest(run_spmd(fit, ranks)[0])


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
    "stream-dir-owned-process": (run_subsample, "sub_dir", dict(
        ranks=2, mode="stream", owned_shards=True, backend="process")),
    "stream-remote-owned": (run_subsample, "sub_remote",
                            dict(ranks=2, mode="stream", owned_shards=True)),
    # 5 ranks over 4 snapshots: the last rank's span is empty
    "stream-dir-owned-r5": (run_subsample, "sub_dir",
                            dict(ranks=5, mode="stream", owned_shards=True)),
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
    # TrainLoop + ArrayFeed fits with clipping on every step
    "fit-array-lstm-drag": (run_array_fit, "drag", dict(arch="lstm")),
    "fit-array-cnnt-cubes": (run_array_fit, "cubes", dict(arch="cnn_transformer")),
    "fit-array-matey-cubes": (run_array_fit, "cubes", dict(arch="matey")),
    "fit-array-matey-cubes-r2": (run_array_fit, "cubes", dict(arch="matey", ranks=2)),
    "fit-array-mlpt-bf16": (run_array_fit, "points", dict(arch="mlp_transformer",
                                                           precision="bf16")),
}

GOLDEN = {
    "batch-dir-r1-thread": "e2e7d76dd82d9f08ac6070c7fa206430bc0d59425311fdfa3d7bf652bc940ca3",
    "batch-dir-r2-process": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "batch-dir-r2-thread": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "batch-mem-r1-thread": "e2e7d76dd82d9f08ac6070c7fa206430bc0d59425311fdfa3d7bf652bc940ca3",
    "batch-mem-r2-process": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "batch-mem-r2-thread": "102c5e691af46e9481cfcc693ea45f1effeb79b3f9bb73726f4472a597f8f6ad",
    "fit-array-cnnt-cubes": "7ab71ec0b3c97d7ce8fa4ad989ef389a46119f386ac252399ea14320dc8b0d7b",
    "fit-array-lstm-drag": "45ecdd4eacf2409d3bf1690aa32082533d4419486e501d2b630581d249aa4d35",
    "fit-array-matey-cubes": "89ddb5e26ff7c597b953f7d23b63ef607a0897ebc13dc2cb68ad6dd178287f5f",
    "fit-array-matey-cubes-r2": "1c79a9225bc9e87a855e45003eeaa061127ad24d3fd3957fae2b537fc69e07e6",
    "fit-array-mlpt-bf16": "3ff11c46bdb70b2f7004058b35a3047052483c4b6d382f8932e2d5ac72b4fd19",
    "fit-batch-mem-r2": "5eebf53dfa5d34a3d4ef547e886dd470b11b507b82b8696e7bc2abf036b4223a",
    "fit-batch-mem-r2-process": "5eebf53dfa5d34a3d4ef547e886dd470b11b507b82b8696e7bc2abf036b4223a",
    "fit-stream-dir-r2": "1128b5b2f7451aae772d620402e276b998f9e20c6456e20d5b17240dfeea345a",
    "fit-stream-dir-r2-process": "1128b5b2f7451aae772d620402e276b998f9e20c6456e20d5b17240dfeea345a",
    "fit-stream-mem-r1": "3eb1df0adea6287378f3ef02c48088c8a57a476f7b7cf077351dc82e3424a33a",
    "fit-stream-mem-r2": "b6d0e702c9913c6be2f7a1f06beecd7ac4252ec360955009eb8db24af423e2c4",
    "stream-dir-owned": "6d8c0d160a82db6c1178deda6417f35c155c04200cbc7c75145ed23eec8d5ccd",
    "stream-dir-owned-death": "24f311755de62c34099ff0d588522adc89300d637b459e9f9b4455400489b7ce",
    "stream-dir-owned-process": "5e6e3da49c4f9033dcf115c28152b1443ba5b9593b7be93109781b12f98020c9",
    "stream-dir-owned-r5": "36bd61c6b1328702fb6a4e1765c8cecb92ae0ecee90ddf2aaaf0bea9ad7008af",
    "stream-dir-process": "daeccd7d78134e452da42a09aac28aaea7b272bdf8c0b6bd0ce4e7ba0223a155",
    "stream-dir-shared": "a6d7a130f187661d25e4642e60b2400f0a1da45eb12013b63e9a53d3e8296e49",
    "stream-mem-maxent-r1": "31e8352b9ff28ba7e2c7818e2d1577d54ee32c4777b3617c7354558973227f79",
    "stream-mem-maxent-r2": "d815b3c850396e321149b2e8b018b763a211dc32ec26e9899b88f40d57957805",
    "stream-mem-maxent-r3": "82fe132ab1d27ba36f9cd83a026ccc22125b8873b9fbd027e0c5587cf1e80b2e",
    "stream-mem-random-r1": "8c113f4f49d6d5b44ac30fe3917b64ceb2ac720568654ddfae73e5f3e12b8dcd",
    "stream-mem-random-r2": "0e4246f5db1ee1eeb7296d79d067ad04fd3b574b85634b595f5838fef1cbd138",
    "stream-mem-random-r3": "bbfae54e4c6927b4242e9f4169e68e54bd8327b67b8c0a3f7003447809ea1e77",
    "stream-remote": "2f5eb1d8b8e9bf303095834f0109a5589670da324a640376e13036fc5cabd56a",
    "stream-remote-owned": "30ce252fbeee37b9a5a5d085e9c467a582d77cf2453ed8dc13f49e0810fd92a1",
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(data, name):
    run, src, kw = CELLS[name]
    sources = {**data, "sub_remote": remote(data["sub_dir"])}
    assert run(sources, src, **kw) == GOLDEN[name]


def test_table_covers_every_cell():
    assert sorted(GOLDEN) == sorted(CELLS)
