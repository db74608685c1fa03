"""Eq. 3 (section 6): Cost to Train ~ O(c(m)) + O(m * p * e).

Validates the cost model's structure against measured pipeline energies:
the training term scales linearly in samples m, parameters p, and epochs e,
and the one-time sampling cost c(m) amortizes — precisely the argument for
subsampling in data- or energy-constrained settings (§7).
"""

import numpy as np

from repro.energy import cost_to_train
from repro.nn import MLPTransformer
from repro.train import ArrayFeed, TrainLoop
from repro.viz import format_table

from conftest import emit


def _train_energy(n_samples: int, d_model: int, epochs: int, rng=0) -> float:
    gen = np.random.default_rng(rng)
    x = gen.standard_normal((n_samples, 1, 2, 16))
    y = gen.standard_normal((n_samples, 1, 1, 8, 8, 8))
    model = MLPTransformer(in_channels=2, n_points=16, out_channels=1,
                           grid=(8, 8, 8), d_model=d_model, depth=1, n_heads=2, rng=0)
    result = TrainLoop(model, seed=0).fit(ArrayFeed(x, y, batch=4, seed=0), epochs=epochs)
    return result.energy.model.dynamic_energy(result.energy.flops_gpu, 0.0)


def test_cost_model_linearity(benchmark):
    def run():
        base = _train_energy(n_samples=16, d_model=16, epochs=4)
        double_m = _train_energy(n_samples=32, d_model=16, epochs=4)
        double_e = _train_energy(n_samples=16, d_model=16, epochs=8)
        return base, double_m, double_e

    base, double_m, double_e = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {"variation": "baseline (m=16, e=4)", "energy_J": base, "ratio_vs_base": 1.0},
        {"variation": "2x samples", "energy_J": double_m, "ratio_vs_base": double_m / base},
        {"variation": "2x epochs", "energy_J": double_e, "ratio_vs_base": double_e / base},
    ]

    # Analytic Eq. 3 amortization example.
    full = cost_to_train(m=1e6, p=1e5, e=1000)
    sampled = cost_to_train(m=1e5, p=1e5, e=1000,
                            sampling_cost_per_point=100.0, points_scanned=1e6)
    rows.append({
        "variation": "Eq3: full vs 10% sampled (analytic)",
        "energy_J": sampled.total / full.total,
        "ratio_vs_base": full.total / sampled.total,
    })
    emit("cost_model_eq3", format_table(
        rows, title="Eq. 3 — cost-to-train linearity and amortization"
    ))

    # Training energy is linear in m and in e (within batching round-off).
    assert double_m / base == __import__("pytest").approx(2.0, rel=0.2)
    assert double_e / base == __import__("pytest").approx(2.0, rel=0.2)
    # Subsampling wins despite the full-scan sampling overhead.
    assert sampled.total < full.total
