"""3-D convolutions: Conv3d and ConvTranspose3d.

These back the paper's CNN-Transformer (Conv3D encoder, Conv3D decoder) and
MLP-Transformer (ConvTranspose3D decoder) architectures (Table 2).

Forward convolution is an im2col-free einsum over a sliding-window *view*
(no copy); the input gradient is assembled by looping over kernel offsets —
64 strided adds for the models' 4³ kernels — which is exact and keeps memory
flat.  ConvTranspose3d is implemented as the adjoint scatter of the same
stencil, so ``ConvTranspose3d`` with matching geometry exactly inverts
Conv3d's shape arithmetic; its forward scatter is one ``np.bincount`` over a
per-geometry index, with no loop.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.energy.meter import account
from repro.nn.layers import he_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import resolve_rng

__all__ = ["Conv3d", "ConvTranspose3d"]


def _triple(v) -> tuple[int, int, int]:
    if isinstance(v, int):
        return (v, v, v)
    out = tuple(int(x) for x in v)
    if len(out) != 3:
        raise ValueError(f"expected int or 3-tuple, got {v!r}")
    return out


class Conv3d(Module):
    """Cross-correlation over (B, C, D, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int, int] = 3,
        stride: int | tuple[int, int, int] = 1,
        padding: int | tuple[int, int, int] = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _triple(kernel_size)
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        if min(self.kernel_size) < 1 or min(self.stride) < 1 or min(self.padding) < 0:
            raise ValueError("kernel/stride must be >= 1 and padding >= 0")
        self.weight = Parameter(he_uniform((out_channels, in_channels, *self.kernel_size), rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def out_shape(self, spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        return tuple(
            (n + 2 * p - k) // s + 1
            for n, p, k, s in zip(spatial, self.padding, self.kernel_size, self.stride)
        )

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.as_tensor(x)
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (B, {self.in_channels}, D, H, W), got {x.shape}"
            )
        kd, kh, kw = self.kernel_size
        sd, sh, sw = self.stride
        pd, ph, pw = self.padding
        spatial = x.shape[2:]
        od, oh, ow = self.out_shape(spatial)
        if min(od, oh, ow) < 1:
            raise ValueError(f"kernel {self.kernel_size} too large for input {spatial}")

        xp = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
        windows = sliding_window_view(xp, (kd, kh, kw), axis=(2, 3, 4))
        windows = windows[:, :, ::sd, ::sh, ::sw]  # (B, C, od, oh, ow, kd, kh, kw)
        w = self.weight
        out_data = np.einsum("bcdhwijk,ocijk->bodhw", windows, w.data, optimize=True)
        flops = 2.0 * out_data.size * self.in_channels * kd * kh * kw
        account(flops=flops, device="gpu")

        parent_x, parent_w = x, w

        def backward(g: np.ndarray) -> None:
            if parent_w.requires_grad:
                gw = np.einsum("bcdhwijk,bodhw->ocijk", windows, g, optimize=True)
                parent_w._accumulate(gw)
            if parent_x.requires_grad:
                gx_pad = np.zeros_like(xp)
                # Scatter: contribution of each kernel offset.
                contrib = np.einsum("bodhw,ocijk->bcdhwijk", g, w.data, optimize=True)
                for a in range(kd):
                    for b_ in range(kh):
                        for c in range(kw):
                            gx_pad[
                                :, :,
                                a : a + sd * od : sd,
                                b_ : b_ + sh * oh : sh,
                                c : c + sw * ow : sw,
                            ] += contrib[..., a, b_, c]
                sl = (
                    slice(None), slice(None),
                    slice(pd, xp.shape[2] - pd),
                    slice(ph, xp.shape[3] - ph),
                    slice(pw, xp.shape[4] - pw),
                )
                parent_x._accumulate(gx_pad[sl])
            account(flops=2.0 * flops, device="gpu")

        out = Tensor._make(out_data, (x, w), backward)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1, 1)
        return out


class ConvTranspose3d(Module):
    """Adjoint of Conv3d: upsampling over (B, C, D, H, W)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int, int] = 3,
        stride: int | tuple[int, int, int] = 1,
        padding: int | tuple[int, int, int] = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _triple(kernel_size)
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        if min(self.kernel_size) < 1 or min(self.stride) < 1 or min(self.padding) < 0:
            raise ValueError("kernel/stride must be >= 1 and padding >= 0")
        self.weight = Parameter(he_uniform((in_channels, out_channels, *self.kernel_size), rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._scatter: dict[tuple[int, ...], np.ndarray] = {}

    def out_shape(self, spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        return tuple(
            (n - 1) * s - 2 * p + k
            for n, s, p, k in zip(spatial, self.stride, self.padding, self.kernel_size)
        )

    def _scatter_index(self, b: int, spatial: tuple[int, int, int]) -> np.ndarray:
        """Padded-canvas flat index of each contribution, kernel-offset-major:
        one strided slice of the canvas per offset, cached per geometry."""
        key = (b, *spatial)
        if key not in self._scatter:
            (sd, sh, sw), (di, hi, wi) = self.stride, spatial
            full = [n + 2 * p for n, p in zip(self.out_shape(spatial), self.padding)]
            canvas = np.arange(b * self.out_channels * int(np.prod(full)))
            canvas = canvas.reshape(b, self.out_channels, *full)
            self._scatter[key] = np.stack([
                canvas[:, :, a : a + sd * di : sd, c : c + sh * hi : sh, e : e + sw * wi : sw]
                for a, c, e in np.ndindex(*self.kernel_size)
            ]).ravel()
        return self._scatter[key]

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.as_tensor(x)
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise ValueError(f"expected (B, {self.in_channels}, D, H, W), got {x.shape}")
        kd, kh, kw = self.kernel_size
        sd, sh, sw = self.stride
        pd, ph, pw = self.padding
        b, _, di, hi, wi = x.shape
        od, oh, ow = self.out_shape((di, hi, wi))
        if min(od, oh, ow) < 1:
            raise ValueError("output would be empty; check geometry")
        w = self.weight

        # Scatter into the padded output canvas, then crop the padding.  The
        # weights run kernel-offset-major, so bincount adds each voxel's terms
        # in offset order, starting from zero.
        full = (od + 2 * pd, oh + 2 * ph, ow + 2 * pw)
        contrib = np.einsum("bcdhw,coijk->bodhwijk", x.data, w.data, optimize=True)
        out_pad = np.bincount(
            self._scatter_index(b, (di, hi, wi)),
            weights=contrib.transpose(5, 6, 7, 0, 1, 2, 3, 4).ravel(),
        ).reshape(b, self.out_channels, *full)
        sl = (
            slice(None), slice(None),
            slice(pd, full[0] - pd),
            slice(ph, full[1] - ph),
            slice(pw, full[2] - pw),
        )
        out_data = out_pad[sl]
        flops = 2.0 * x.data.size * self.out_channels * kd * kh * kw
        account(flops=flops, device="gpu")

        parent_x = x

        def backward(g: np.ndarray) -> None:
            g_pad = np.pad(g, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
            windows = sliding_window_view(g_pad, (kd, kh, kw), axis=(2, 3, 4))
            windows = windows[:, :, ::sd, ::sh, ::sw]  # (B, O, di, hi, wi, kd, kh, kw)
            if w.requires_grad:
                gw = np.einsum("bodhwijk,bcdhw->coijk", windows, parent_x.data, optimize=True)
                w._accumulate(gw)
            if parent_x.requires_grad:
                gx = np.einsum("bodhwijk,coijk->bcdhw", windows, w.data, optimize=True)
                parent_x._accumulate(gx)
            account(flops=2.0 * flops, device="gpu")

        out = Tensor._make(out_data, (x, w), backward)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1, 1)
        return out
