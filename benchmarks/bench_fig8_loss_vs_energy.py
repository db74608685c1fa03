"""Fig 8: training loss vs energy cost (lower-left optimal).

The paper's headline: on SST-P1 cases, MaxEnt subsampling reaches lower
training loss at a fraction of the energy — "in one SST-P1 case MaxEnt
required about 85 kJ, compared to 1,000 kJ for UIPS and 3,183 kJ for full
sampling — 38x more energy than MaxEnt".  For isotropic GESTS "all methods
yield relatively high loss despite low energy use" (methods tie).

We run the full pipeline (subsample -> train) for the paper's H x X combos
on SST-P1F4 and the three point methods on GESTS-2048, reporting test loss
and total (sampling + training) energy.  Absolute joules are model-scale;
the reproduction targets are the *ratios* and the ordering.
"""

import numpy as np

from repro.nn import CNNTransformer, MLPTransformer
from repro.parallel.perfmodel import PerfModel
from repro.sampling import subsample
from repro.train import ArrayFeed, TrainLoop, build_reconstruction_data
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig
from repro.viz import ascii_scatter, format_table

from conftest import emit

CUBE = 16
NS_10PCT = 410  # 10% of a 16^3 cube
EPOCHS = 20
# Effective training throughput for virtual wall-clock: small-kernel numpy
# workloads sit far below peak; energy ratios are rate-independent anyway.
GPU_RATE = 2.0e9
# Sampling runs on accelerated readers in this scenario (sampling is cheap
# relative to training, as in the paper's totals).
SAMPLING_MODEL = PerfModel(compute_rate=2.0e7)

SST_COMBOS = [
    ("maxent", "maxent"),
    ("maxent", "uips"),
    ("random", "maxent"),
    ("random", "uips"),
    ("random", "full"),
]


def _case(h, x, ns=NS_10PCT, clusters=5, cube=CUBE):
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes=h, method=x, num_hypercubes=4, num_samples=ns,
            num_clusters=clusters, nxsl=cube, nysl=cube, nzsl=cube,
        ),
        train=TrainConfig(arch="cnn_transformer" if x == "full" else "mlp_transformer"),
    )


def _run_case(dataset, h, x, seed=0, cube=CUBE, ns=NS_10PCT, epochs=EPOCHS):
    res = subsample(dataset, _case(h, x, ns=ns, cube=cube), seed=seed, model=SAMPLING_MODEL)
    data = build_reconstruction_data(dataset, res, window=1, horizon=1)
    if x == "full":
        model = CNNTransformer(
            in_channels=data.in_channels, out_channels=data.out_channels,
            grid=data.grid, window=1, horizon=1, d_model=16, depth=1, n_heads=2, rng=seed,
        )
    else:
        model = MLPTransformer(
            in_channels=data.in_channels, n_points=data.n_points,
            out_channels=data.out_channels, grid=data.grid,
            window=1, horizon=1, d_model=16, depth=1, n_heads=2, rng=seed,
        )
    loop = TrainLoop(model, patience=5, seed=seed, gpu_flops_rate=GPU_RATE)
    result = loop.fit(ArrayFeed(data.x, data.y, batch=4, seed=seed), epochs=epochs)
    energy = res.energy.total_energy + result.energy.total_energy
    return result.final_test_loss, energy, res.energy.total_energy, result.energy.total_energy


def test_fig8_loss_vs_energy(benchmark, sst_p1f4_dataset, gests_dataset):
    def run():
        rows = []
        for h, x in SST_COMBOS:
            loss, energy, e_sub, e_train = _run_case(sst_p1f4_dataset, h, x)
            rows.append({
                "dataset": "SST-P1F4", "case": f"H{h}-X{x}",
                "loss": loss, "energy_J": energy,
                "sample_J": e_sub, "train_J": e_train,
            })
        for x in ("maxent", "uips", "random"):
            loss, energy, e_sub, e_train = _run_case(gests_dataset, "random", x)
            rows.append({
                "dataset": "GESTS-2048", "case": f"Hrandom-X{x}",
                "loss": loss, "energy_J": energy,
                "sample_J": e_sub, "train_J": e_train,
            })
        # Volume scaling of the full-vs-MaxEnt *training* energy gap: the
        # dense path's token count grows with cube volume (quadratic
        # attention + conv encoder + token decoder) while the 10%-sampled
        # path keeps a fixed compact token set — the mechanism behind the
        # paper's 38x at 32^3-scale cubes.
        from repro.data import build_dataset

        big_sst = build_dataset("SST-P1F4", scale=2.0, rng=0, n_snapshots=3)
        ratios = []
        for cube, ds in ((8, sst_p1f4_dataset), (16, sst_p1f4_dataset), (32, big_sst)):
            ns = max(2, int(0.1 * cube**3))
            _, _, _, t_full = _run_case(ds, "random", "full",
                                        cube=cube, ns=ns, epochs=3)
            _, _, _, t_me = _run_case(ds, "maxent", "maxent",
                                      cube=cube, ns=ns, epochs=3)
            ratios.append({"cube": cube, "full_train_J": t_full, "maxent_train_J": t_me,
                           "ratio": t_full / t_me})
        return rows, ratios

    rows, ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(rows, title="Fig 8 — training loss vs energy (lower-left optimal)")
    sst_rows = [r for r in rows if r["dataset"] == "SST-P1F4"]
    scatter = ascii_scatter(
        np.array([r["energy_J"] for r in sst_rows]),
        np.array([max(r["loss"], 1e-9) for r in sst_rows]),
        logx=True, title="SST-P1F4: loss (y) vs energy (x, log)",
    )
    by = {(r["dataset"], r["case"]): r for r in rows}
    full = by[("SST-P1F4", "Hrandom-Xfull")]
    me = by[("SST-P1F4", "Hmaxent-Xmaxent")]
    ratio = full["energy_J"] / me["energy_J"]
    ratio_table = format_table(
        ratios, title="full-vs-MaxEnt energy ratio vs cube size (paper: 38x at 32^3 scale)"
    )
    summary = (
        f"\nfull-vs-MaxEnt energy ratio @16^3: {ratio:.1f}x (paper: 38x on SST-P1 at 32^3)"
        f"\nMaxEnt loss {me['loss']:.4f} vs full loss {full['loss']:.4f}"
    )
    emit("fig8_loss_vs_energy", table + "\n\n" + scatter + summary + "\n\n" + ratio_table)

    # The headline shape: training on fully dense hypercubes costs several
    # times the energy at our reduced cube size...
    assert ratio > 2.5
    # ...and the gap widens with cube volume, reaching order-of-magnitude at
    # the paper's 32^3 cube size.
    assert ratios[-1]["ratio"] > ratios[0]["ratio"]
    assert ratios[-1]["ratio"] > 6.0
    # MaxEnt's loss stays comparable to full-data training.
    assert me["loss"] < full["loss"] * 3.0
    # GESTS (isotropic): methods tie — loss spread stays small.
    g_losses = [r["loss"] for r in rows if r["dataset"] == "GESTS-2048"]
    assert max(g_losses) / max(min(g_losses), 1e-12) < 3.0
