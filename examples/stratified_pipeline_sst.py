"""End-to-end SST pipeline: parallel sampling -> sparse reconstruction -> energy.

The paper's flagship workflow (Figs 3, 7, 8) on the stratified-turbulence
dataset: distribute the two-phase MaxEnt sampler over simulated MPI ranks,
train the MLP-Transformer to reconstruct the dense pressure field from the
sparse samples, and compare against training on fully dense hypercubes
(the CNN-Transformer 'full' baseline) on both loss and energy.

Run:  python examples/stratified_pipeline_sst.py
"""

from repro.data import build_dataset
from repro.metrics import ScalingSeries, find_knee, speedup_series
from repro.nn import CNNTransformer, MLPTransformer
from repro.sampling import subsample
from repro.train import ArrayFeed, TrainLoop, build_reconstruction_data
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig
from repro.viz import format_table

CUBE = 16
EPOCHS = 12


def case(method: str) -> CaseConfig:
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(
            hypercubes="maxent" if method != "full" else "random",
            method=method, num_hypercubes=4, num_samples=410,
            num_clusters=5, nxsl=CUBE, nysl=CUBE, nzsl=CUBE,
        ),
        train=TrainConfig(
            arch="cnn_transformer" if method == "full" else "mlp_transformer"
        ),
    )


def main() -> None:
    print("Generating SST-P1F4 (Taylor-Green under stable stratification)...")
    dataset = build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=6)

    # --- Parallel sampling scalability (cf. Fig 7) -------------------------
    print("\nSampling scalability (virtual time):")
    ranks = [1, 2, 4, 8]
    times = [subsample(dataset, case("maxent"), nranks=p, seed=0).virtual_time
             for p in ranks]
    series: ScalingSeries = speedup_series(ranks, times)
    rows = [series.row(i) for i in range(len(ranks))]
    print(format_table(rows))
    print(f"knee (efficiency >= 0.5): {find_knee(series)} ranks")

    # --- Sampled vs full training (cf. Fig 8) ------------------------------
    print("\nTraining comparison (sampled MLP-Transformer vs full CNN-Transformer):")
    rows = []
    for method in ("maxent", "full"):
        result = subsample(dataset, case(method), seed=0)
        data = build_reconstruction_data(dataset, result, window=1, horizon=1)
        if method == "full":
            model = CNNTransformer(in_channels=data.in_channels,
                                   out_channels=data.out_channels, grid=data.grid,
                                   d_model=16, depth=1, n_heads=2, rng=0)
        else:
            model = MLPTransformer(in_channels=data.in_channels,
                                   n_points=data.n_points,
                                   out_channels=data.out_channels, grid=data.grid,
                                   d_model=16, depth=1, n_heads=2, rng=0)
        loop = TrainLoop(model, patience=6, seed=0, gpu_flops_rate=2.0e9)
        fit = loop.fit(ArrayFeed(data.x, data.y, batch=4, seed=0), epochs=EPOCHS)
        print(fit.report())
        rows.append({
            "method": method,
            "test_loss": fit.final_test_loss,
            "train_energy_J": fit.energy.total_energy,
            "sample_energy_J": result.energy.total_energy,
            "n_parameters": model.n_parameters(),
        })
    print()
    print(format_table(rows, title="Loss vs energy (cf. paper Fig 8)"))
    ratio = rows[1]["train_energy_J"] / rows[0]["train_energy_J"]
    print(f"\nfull training consumed {ratio:.1f}x MaxEnt's training energy "
          "(paper: up to 38x at 32^3 scale)")


if __name__ == "__main__":
    main()
