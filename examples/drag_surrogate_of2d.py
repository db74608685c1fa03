"""OF2D drag surrogate: the paper's sample-single learning problem (§5, Fig 6).

Sparse probes in the cylinder wake feed an LSTM that predicts the drag
coefficient — the "predicting drag on a cylinder given samples from the
flowfield" use case.  Compares MaxEnt against random probe placement over
three seeds, reproducing Fig 6's mean ± std comparison at example scale.

Run:  python examples/drag_surrogate_of2d.py
"""

import numpy as np

from repro.data import build_dataset
from repro.nn import LSTMRegressor
from repro.sampling import subsample
from repro.train import ArrayFeed, TrainLoop, build_drag_data
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig
from repro.viz import ascii_bar, format_table

WINDOW = 3  # paper: --window 3
EPOCHS = 40
SEEDS = (0, 1, 2)


def case(method: str) -> CaseConfig:
    return CaseConfig(
        shared=SharedConfig(dims=2),
        subsample=SubsampleConfig(
            hypercubes="random", method=method, num_hypercubes=4,
            num_samples=48, num_clusters=5, nxsl=18, nysl=18, nzsl=1,
        ),
        train=TrainConfig(arch="lstm", window=WINDOW),
    )


def main() -> None:
    print("Generating OF2D (Karman vortex street + drag signal)...")
    dataset = build_dataset("OF2D", scale=0.6, rng=0, n_snapshots=60)
    print(f"  {dataset.n_snapshots} snapshots, drag mean "
          f"{dataset.target.mean():.3f} +- {dataset.target.std():.3f}")

    rows = []
    for method in ("random", "maxent"):
        losses = []
        for seed in SEEDS:
            result = subsample(dataset, case(method), seed=seed)
            x, y = build_drag_data(dataset, result, window=WINDOW, max_features=256)
            model = LSTMRegressor(input_dim=x.shape[2], hidden=24, rng=seed)
            loop = TrainLoop(model, lr=5e-3, patience=10, seed=seed)
            fit = loop.fit(ArrayFeed(x, y, batch=8, seed=seed), epochs=EPOCHS)
            losses.append(fit.final_test_loss)
            print(f"  {method} seed {seed}: test loss {fit.final_test_loss:.5f} "
                  f"({fit.energy.total_energy:.2f} J)")
        rows.append({
            "method": method,
            "mean_loss": float(np.mean(losses)),
            "std_loss": float(np.std(losses)),
        })

    print()
    print(format_table(rows, title="Drag surrogate, 3 seeds (cf. paper Fig 6)"))
    print()
    print(ascii_bar([r["method"] for r in rows], [r["mean_loss"] for r in rows],
                    title="mean test loss (lower is better)"))


if __name__ == "__main__":
    main()
