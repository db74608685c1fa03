"""Core layers: Linear, LayerNorm, Dropout, activations.

``Linear``, ``LayerNorm`` and ``GELU`` each build one autograd node for the
graph of primitive ``Tensor`` ops their docstrings spell out.  By the fused
node rule in ``nn.tensor``, each gives what that graph gave, bit for bit: the
same numpy calls in the same order, one ``_accumulate`` per primitive
contribution to an input, and the same ``account()`` charges.
``tests/nn/test_fused_reference.py`` keeps the primitive graphs as its
reference.
"""

from __future__ import annotations

import numpy as np

from repro.energy.meter import account
from repro.nn.amp import current_precision, quantize
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, _unbroadcast
from repro.utils.rng import resolve_rng

__all__ = ["Linear", "LayerNorm", "Dropout", "ReLU", "Tanh", "GELU", "xavier_uniform", "he_uniform"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: U(±gain * sqrt(6 / (fan_in + fan_out)))."""
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform for ReLU fan-in."""
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _cast(grad: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``grad`` in ``dtype``: the cast a primitive node's gradient copy made."""
    return grad if grad.dtype == dtype else grad.astype(dtype)


class Linear(Module):
    """y = x W^T + b over the last axis; respects emulated autocast.

    One node for ``x @ w.transpose() + b``.  Under autocast, ``x`` and ``w``
    enter the matmul as the straight-through ``quantize(v) + (v + -v)``: the
    forward sees the quantized values and the gradient passes to ``v``
    unchanged, cast to ``v``'s dtype.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be >= 1")
        rng = resolve_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.as_tensor(x)
        if x.ndim < 2:
            raise ValueError(f"expected an input of 2 or more dims, got shape {x.shape}")
        if x.shape[-1] != self.in_features:
            raise ValueError(f"expected last dim {self.in_features}, got {x.shape[-1]}")
        w, b = self.weight, self.bias
        xv, wv = x.data, w.data
        quantized = current_precision() != "fp32"
        if quantized:
            xv = quantize(xv) + (xv + -xv)
            wv = quantize(wv) + (wv + -wv)
        mm = xv @ wv.T
        account(flops=2.0 * mm.size * xv.shape[-1], device="gpu")

        def backward(g: np.ndarray) -> None:
            if b is not None:
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g, b.shape))
                g = _cast(g, mm.dtype)
            if x.requires_grad:
                gx = _unbroadcast(g @ wv, x.shape)
                x._accumulate(_cast(gx, xv.dtype) if quantized else gx)
            if w.requires_grad:
                gw = _unbroadcast(np.swapaxes(xv, -1, -2) @ g, wv.shape[::-1])
                w._accumulate(_cast(gw, wv.dtype).T)
            if x.requires_grad or w.requires_grad:
                account(flops=4.0 * g.size * xv.shape[-1], device="gpu")

        if b is None:
            return Tensor._make(mm, (x, w), backward)
        return Tensor._make(mm + b.data, (x, w, b), backward)


class LayerNorm(Module):
    """Normalize over the last axis with learned scale/shift.

    One node for ``mu = x.mean(-1, keepdims=True)``, ``centred = x - mu``,
    ``var = (centred * centred).mean(-1, keepdims=True)``,
    ``centred * (var + eps) ** -0.5 * gamma + beta``.
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.as_tensor(x)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected last dim {self.dim}, got {x.shape[-1]}")
        gamma, beta = self.gamma, self.beta
        xv = x.data
        # A float64 constant, as Tensor.mean's 1 / n: it promotes a float32
        # sum, so every value from mu on is float64.
        scale = np.float64(1.0 / xv.shape[-1])
        s1 = xv.sum(axis=-1, keepdims=True)
        mu = s1 * scale
        centred = xv + -mu
        sq = centred * centred
        var = sq.sum(axis=-1, keepdims=True) * scale
        ve = var + np.float64(self.eps)
        inv = ve**-0.5
        normed = centred * inv

        def backward(g: np.ndarray) -> None:
            if beta.requires_grad:
                beta._accumulate(_unbroadcast(g, beta.shape))
            if gamma.requires_grad:
                gamma._accumulate(_unbroadcast(g * normed, gamma.shape))
            if not x.requires_grad:
                return
            g_normed = g * gamma.data
            g_centred = g_normed * inv
            g_inv = _unbroadcast(g_normed * centred, inv.shape)
            g_ve = g_inv * -0.5 * ve**-1.5
            g_sq = np.broadcast_to(g_ve * scale, sq.shape).copy()
            g_centred += g_sq * centred
            g_centred += g_sq * centred
            x._accumulate(g_centred)
            g_mu = -_unbroadcast(g_centred, mu.shape)
            g_s1 = _cast(g_mu * scale, s1.dtype)
            x._accumulate(np.broadcast_to(g_s1, xv.shape).copy())

        return Tensor._make(normed * gamma.data + beta.data, (x, gamma, beta), backward)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not (0.0 <= p < 1.0):
            raise ValueError("p must lie in [0, 1)")
        self.p = p
        self.rng = resolve_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.as_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return Tensor.as_tensor(x).relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return Tensor.as_tensor(x).tanh()


# GELU's constants are float64 scalars, as the Tensor(0.5) of ``x * 0.5`` held
# a float64 array: a float32 x's values are float64 from ``k`` on.
_GELU_CUBIC = np.float64(0.044715)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_HALF = np.float64(0.5)
_ONE = np.float64(1.0)


class GELU(Module):
    """tanh-approximation GELU.

    One node for
    ``x * 0.5 * (((x + x * x * x * 0.044715) * sqrt(2 / pi)).tanh() + 1.0)``.
    """

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.as_tensor(x)
        xv = x.data
        xx = xv * xv
        xxx = xx * xv
        k = xxx * _GELU_CUBIC
        s = xv + k
        t = np.tanh(s * _SQRT_2_OVER_PI)
        half = xv * _HALF
        t1 = t + _ONE

        def backward(g: np.ndarray) -> None:
            x._accumulate(g * t1 * _HALF)
            g_s = g * half * (1.0 - t**2) * _SQRT_2_OVER_PI
            x._accumulate(g_s)
            g_xxx = _cast(g_s * _GELU_CUBIC, xxx.dtype)
            g_xx = _cast(g_xxx * xv, xx.dtype)
            x._accumulate(g_xxx * xx)
            x._accumulate(g_xx * xv)
            x._accumulate(g_xx * xv)

        return Tensor._make(half * t1, (x,), backward)

