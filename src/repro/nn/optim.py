"""Optimizers (SGD, Adam), gradient clipping, and LR scheduling.

The paper trains with Adam at lr=1e-3 and a reduce-on-plateau schedule with
patience 20; both are implemented here with PyTorch-compatible semantics.

Each optimizer packs its parameters into a :class:`~repro.nn.module.
ParamPack` and steps every run of consecutive parameters that hold a
gradient with one set of whole-span ufuncs: elementwise, so bitwise what a
loop over the parameters computes.  Its state (Adam's moments, SGD's
velocity) is one flat buffer per dtype, with a per-parameter view of each.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import ParamPack, Parameter

__all__ = ["SGD", "Adam", "clip_grad_norm", "ReduceLROnPlateau"]


class _Optimizer:
    def __init__(self, params: list[Parameter], lr: float) -> None:
        params = list(params)
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.pack = ParamPack.of(params)
        self.params = params
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(_Optimizer):
    """SGD with optional classical momentum."""

    def __init__(self, params: list[Parameter], lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = momentum
        self._vel_flat, self._velocity = self.pack.zeros()

    def step(self) -> None:
        for dt, span in self.pack.runs():
            p, g = self.pack.data[dt][span], self.pack.grad[dt][span]
            if self.momentum > 0:
                v = self._vel_flat[dt][span]
                v *= self.momentum
                v += g
                p -= self.lr * v
            else:
                p -= self.lr * g


class Adam(_Optimizer):
    """Adam with bias correction (Kingma & Ba 2015)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m_flat, self._m = self.pack.zeros()
        self._v_flat, self._v = self.pack.zeros()
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for dt, span in self.pack.runs():
            p, g = self.pack.data[dt][span], self.pack.grad[dt][span]
            m, v = self._m_flat[dt][span], self._v_flat[dt][span]
            if self.weight_decay > 0:
                g = g + self.weight_decay * p
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most `max_norm`.

    The squared norm adds one partial sum per parameter, in parameter
    order, each over the gradient in the memory order it arrived in; a
    single sum over the buffer would group the pairwise sum differently.
    The scaling is one multiply per run of the packed gradient buffer.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    pack = ParamPack.of(params)
    runs = pack.runs()
    total = 0.0
    for p in pack.params:
        if p.grad is not None:
            g = p.grad if p.grad_order is None else p.grad.transpose(p.grad_order)
            total += float(np.square(g, order="C").sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for dt, span in runs:
            pack.grad[dt][span] *= scale
    return norm


class ReduceLROnPlateau:
    """Multiply lr by `factor` after `patience` epochs without improvement."""

    def __init__(
        self,
        optimizer: _Optimizer,
        factor: float = 0.5,
        patience: int = 20,
        min_lr: float = 1e-6,
        threshold: float = 1e-4,
    ) -> None:
        if not (0.0 < factor < 1.0):
            raise ValueError("factor must lie in (0, 1)")
        if patience < 0:
            raise ValueError("patience must be >= 0")
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
        self.threshold = threshold
        self.best = np.inf
        self.bad_epochs = 0
        self.n_reductions = 0

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    def step(self, metric: float) -> None:
        if not np.isfinite(metric):
            metric = np.inf
        if metric < self.best * (1.0 - self.threshold):
            self.best = metric
            self.bad_epochs = 0
            return
        self.bad_epochs += 1
        if self.bad_epochs > self.patience:
            new_lr = max(self.optimizer.lr * self.factor, self.min_lr)
            if new_lr < self.optimizer.lr:
                self.optimizer.lr = new_lr
                self.n_reductions += 1
            self.bad_epochs = 0
