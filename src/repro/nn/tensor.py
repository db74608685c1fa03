"""Reverse-mode autograd tensor (the PyTorch substitute's core).

A :class:`Tensor` wraps a numpy array plus an optional gradient; operations
build a DAG of parent links and backward closures; :meth:`Tensor.backward`
runs reverse topological order.  Matmul-class ops charge their FLOPs to the
active :class:`~repro.energy.meter.EnergyMeter`, which is how training energy
(Figs 8/9) is measured.

Broadcasting follows numpy; gradients are un-broadcast (summed) back to each
parent's shape.

A layer may build one node for a whole composite (``nn.layers``' Linear,
LayerNorm and GELU do).  Such a fused node must give what the primitive
nodes it stands for gave, bit for bit: its forward evaluates the same
expressions, and its backward issues the same numpy calls in the same order,
with one :meth:`Tensor._accumulate` per primitive contribution to an input
and the same :func:`account` charges.  It may skip the copy a primitive node
made of the gradient it received, but not the cast to that node's dtype.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable

import numpy as np

from repro.energy.meter import account

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Thread-local so SPMD thread ranks (DDP) toggle grad mode independently —
# one rank evaluating must not disable autograd under its training peers.
_state = threading.local()

_F64 = np.dtype(np.float64)
_F32 = np.dtype(np.float32)


class no_grad:
    """Context manager disabling graph construction (evaluation mode)."""

    def __enter__(self) -> None:
        self._prev = is_grad_enabled()
        _state.enabled = False

    def __exit__(self, *exc: object) -> None:
        _state.enabled = self._prev


def is_grad_enabled() -> bool:
    return getattr(_state, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum leading extra axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were 1 in the original shape.
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """numpy-backed autograd tensor."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # numpy defers binary ops to us

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple[Tensor, ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        data = np.asarray(data)
        self.data = data.astype(np.float32 if data.dtype == np.float32 else np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # Construction helpers -----------------------------------------------------

    @staticmethod
    def as_tensor(value) -> Tensor:
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> Tensor:
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Graph machinery -----------------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple[Tensor, ...],
        backward: Callable[[np.ndarray], None],
    ) -> Tensor:
        # Built without __init__: an op's result is nearly always a float64
        # or float32 ndarray already, which __init__ would convert anyway.
        if type(data) is not np.ndarray or (data.dtype is not _F64 and data.dtype is not _F32):
            data = np.asarray(data)
            data = data.astype(np.float32 if data.dtype == np.float32 else np.float64, copy=False)
        out = object.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = ""
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        if is_grad_enabled():
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._backward = backward
                    break
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without gradient only valid for scalars")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.shape:
            raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Elementwise arithmetic ------------------------------------------------------

    def __add__(self, other) -> Tensor:
        other = Tensor.as_tensor(other)
        data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> Tensor:
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> Tensor:
        return self + (-Tensor.as_tensor(other))

    def __rsub__(self, other) -> Tensor:
        return Tensor.as_tensor(other) + (-self)

    def __mul__(self, other) -> Tensor:
        other = Tensor.as_tensor(other)
        data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Tensor:
        other = Tensor.as_tensor(other)
        data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g * self.data / other.data**2, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> Tensor:
        return Tensor.as_tensor(other) / self

    def __pow__(self, exponent: float) -> Tensor:
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    # Elementwise functions --------------------------------------------------------

    def exp(self) -> Tensor:
        data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> Tensor:
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def tanh(self) -> Tensor:
        data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> Tensor:
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> Tensor:
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def sqrt(self) -> Tensor:
        return self**0.5

    def abs(self) -> Tensor:
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    # Reductions ----------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> Tensor:
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = g
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> Tensor:
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = math.prod(self.shape[a % self.ndim] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> Tensor:
        data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = self.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = g if keepdims else np.expand_dims(g, axis)
            self._accumulate(mask * grad / counts)

        return Tensor._make(data, (self,), backward)

    # Shape ops --------------------------------------------------------------------------

    def reshape(self, *shape: int) -> Tensor:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> Tensor:
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)  # rejects a repeated or out-of-range axis
        inverse = [0] * len(axes)
        for i, a in enumerate(axes):
            inverse[a % self.ndim] = i

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, key) -> Tensor:
        data = self.data[key]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                # A basic slice selects each element at most once; a fancy
                # index may repeat one, which needs np.add.at's unbuffered sum.
                if all(k is None or k is Ellipsis or isinstance(k, slice)
                       or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
                       for k in (key if isinstance(key, tuple) else (key,))):
                    full[key] += g
                else:
                    np.add.at(full, key, g)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    @staticmethod
    def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
        tensors = [Tensor.as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0, *sizes])

        def backward(g: np.ndarray) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(sl)])

        return Tensor._make(data, tuple(tensors), backward)

    def pad(self, pad_width: tuple[tuple[int, int], ...]) -> Tensor:
        data = np.pad(self.data, pad_width)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                sl = tuple(slice(lo, g.shape[i] - hi) for i, (lo, hi) in enumerate(pad_width))
                self._accumulate(g[sl])

        return Tensor._make(data, (self,), backward)

    # Contractions ----------------------------------------------------------------------

    def matmul(self, other: Tensor) -> Tensor:
        other = Tensor.as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs operands of 2 or more dims, got {a.shape} @ {b.shape}")
        data = a @ b
        # FLOPs: 2 * (product of output dims) * inner dim.
        account(flops=2.0 * data.size * a.shape[-1], device="gpu")

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape))
            account(flops=4.0 * g.size * a.shape[-1], device="gpu")

        return Tensor._make(data, (self, other), backward)

    __matmul__ = matmul

    # Composite ops ------------------------------------------------------------------------

    def softmax(self, axis: int = -1) -> Tensor:
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        data = e / e.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                dot = (g * data).sum(axis=axis, keepdims=True)
                self._accumulate(data * (g - dot))

        return Tensor._make(data, (self,), backward)
