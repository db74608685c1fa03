"""Hyperparameter search (the paper's DeepHyper ``--tune`` substitute).

Implements random search plus a lightweight TPE-style Bayesian strategy:
after a warmup of random trials, candidates are proposed near the
best-quantile configurations (kernel density in normalized space) and the
candidate maximizing the good/bad density ratio is evaluated.  No GP library
required, same asymptotic behaviour class as DeepHyper's default for
low-dimensional spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from repro.utils.rng import resolve_rng

__all__ = ["STRATEGIES", "SearchSpace", "Trial", "tune", "default_search_space"]

#: the search strategies :func:`tune` implements
STRATEGIES = ("bayes", "random")


@dataclass(frozen=True)
class SearchSpace:
    """Box space: per-parameter (low, high, kind) with kind in
    {'float', 'log', 'int', 'choice'} (choice uses `options`)."""

    params: dict[str, tuple] = field(default_factory=dict)

    def sample(self, rng: np.random.Generator) -> dict:
        out = {}
        for name, spec in self.params.items():
            kind = spec[0]
            if kind == "float":
                out[name] = float(rng.uniform(spec[1], spec[2]))
            elif kind == "log":
                out[name] = float(np.exp(rng.uniform(np.log(spec[1]), np.log(spec[2]))))
            elif kind == "int":
                out[name] = int(rng.integers(spec[1], spec[2] + 1))
            elif kind == "choice":
                out[name] = spec[1][rng.integers(len(spec[1]))]
            else:
                raise ValueError(f"unknown param kind {kind!r} for {name!r}")
        return out

    def normalize(self, config: dict) -> np.ndarray:
        """Map a config to [0, 1]^d for density modeling."""
        vec = []
        for name, spec in self.params.items():
            kind, v = spec[0], config[name]
            if kind == "float":
                vec.append((v - spec[1]) / max(spec[2] - spec[1], 1e-12))
            elif kind == "log":
                vec.append(
                    (np.log(v) - np.log(spec[1])) / max(np.log(spec[2]) - np.log(spec[1]), 1e-12)
                )
            elif kind == "int":
                vec.append((v - spec[1]) / max(spec[2] - spec[1], 1))
            elif kind == "choice":
                vec.append(spec[1].index(v) / max(len(spec[1]) - 1, 1))
        return np.asarray(vec)


def default_search_space() -> SearchSpace:
    """The search space ``repro-train --tune`` / ``Experiment.tune`` use by
    default: learning rate (log-uniform around the paper's 1e-3) and batch
    size — the two §5.2 knobs the paper's DeepHyper runs sweep."""
    return SearchSpace({
        "lr": ("log", 1e-4, 1e-2),
        "batch": ("choice", [4, 8, 16, 32]),
    })


@dataclass
class Trial:
    config: dict
    score: float


def tune(
    objective: Callable[[dict], float],
    space: SearchSpace,
    n_trials: int = 20,
    strategy: str = "bayes",
    warmup: int = 5,
    n_candidates: int = 32,
    gamma: float = 0.3,
    rng: np.random.Generator | int | None = None,
) -> tuple[Trial, list[Trial]]:
    """Minimize `objective`; returns (best trial, all trials)."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    rng = resolve_rng(rng)
    trials: list[Trial] = []

    def density(point: np.ndarray, refs: np.ndarray, bw: float = 0.15) -> float:
        if len(refs) == 0:
            return 1e-9
        d2 = ((refs - point) ** 2).sum(axis=1)
        return float(np.exp(-d2 / (2 * bw**2)).mean()) + 1e-9

    for t in range(n_trials):
        if strategy == "random" or t < warmup:
            config = space.sample(rng)
        else:
            scores = np.array([tr.score for tr in trials])
            order = np.argsort(scores)
            n_good = max(1, int(np.ceil(gamma * len(trials))))
            good = np.stack([space.normalize(trials[i].config) for i in order[:n_good]])
            bad = np.stack([space.normalize(trials[i].config) for i in order[n_good:]]) \
                if len(trials) > n_good else np.empty((0, good.shape[1]))
            candidates = [space.sample(rng) for _ in range(n_candidates)]
            ratios = [
                density(space.normalize(c), good) / density(space.normalize(c), bad)
                for c in candidates
            ]
            config = candidates[int(np.argmax(ratios))]
        score = float(objective(config))
        if not np.isfinite(score):
            score = np.inf
        trials.append(Trial(config=config, score=score))
    best = min(trials, key=lambda tr: tr.score)
    return best, trials
