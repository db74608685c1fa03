"""Module base class: parameter tracking, train/eval mode, state dicts, and
the flat buffers an optimizer packs its parameters into."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Module", "ParamPack", "Parameter", "Sequential"]


def _keep_order(a: np.ndarray) -> tuple[int, ...] | None:
    """Axes, outermost first, of the memory ``np.array(a, copy=True)`` lays
    out (numpy's order 'K': by falling |stride|, ties by axis); None for C."""
    if a.flags.c_contiguous:
        return None
    return tuple(sorted(range(a.ndim), key=lambda i: (-abs(a.strides[i]), i)))


class Parameter(Tensor):
    """A Tensor registered as trainable.

    Once packed, ``data`` is a view into its :class:`ParamPack`'s buffer
    (write into it; rebinding it detaches the parameter from its optimizer)
    and ``slot`` the same span of the pack's gradient buffer: the first
    gradient of a step is copied into ``slot``, later ones add to it in place.
    ``grad_order`` keeps the memory order that first gradient arrived in
    (None for C order), the order a fresh copy of it would have had.
    """

    pack: ParamPack | None = None
    slot: np.ndarray | None = None
    grad_order: tuple[int, ...] | None = None

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None and self.slot is not None:
            self.take_grad(grad)
        else:
            super()._accumulate(grad)

    def take_grad(self, grad: np.ndarray) -> None:
        """Make ``grad`` this step's gradient, copied into the slot."""
        np.copyto(self.slot, grad)
        self.grad_order = _keep_order(grad)
        self.grad = self.slot


class ParamPack:
    """Parameters packed into one flat buffer per dtype, with a parallel
    gradient buffer, in list order.

    Optimizers step and DDP allreduces whole spans of these buffers instead
    of one array per parameter.  :meth:`of` returns the existing pack for a
    list it already packed, so a DDP wrapper and an optimizer over the same
    parameters share one.
    """

    def __init__(self, params: list[Parameter]) -> None:
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed twice")
        self.params = params
        self.spans: list[tuple[np.dtype, int, int]] = []
        self.sizes: dict[np.dtype, int] = {}
        for p in params:
            lo = self.sizes.get(p.data.dtype, 0)
            self.sizes[p.data.dtype] = lo + p.size
            self.spans.append((p.data.dtype, lo, lo + p.size))
        self.data, views = self.zeros()
        self.grad, slots = self.zeros()
        for p, view, slot in zip(params, views, slots):
            view[...] = p.data
            p.data, p.slot, p.pack = view, slot, self
            if p.grad is not None:
                p.take_grad(p.grad)

    @staticmethod
    def of(params) -> ParamPack:
        """The pack of exactly these parameters in this order, made if new
        (or if a parameter's data is no longer a view into it, as after a
        copy or a pickle round trip)."""
        params = list(params)
        pack = params[0].pack if params else None
        if (pack is None or len(pack.params) != len(params)
                or any(a is not b or a.data.base is not pack.data[dt]
                       for a, b, (dt, _, _) in zip(pack.params, params, pack.spans))):
            pack = ParamPack(params)
        return pack

    def zeros(self) -> tuple[dict[np.dtype, np.ndarray], list[np.ndarray]]:
        """Zeroed buffers laid out like the parameters, and each parameter's
        view into them (optimizer state)."""
        flat = {dt: np.zeros(n, dt) for dt, n in self.sizes.items()}
        return flat, [flat[dt][lo:hi].reshape(p.shape)
                      for p, (dt, lo, hi) in zip(self.params, self.spans)]

    def runs(self) -> list[tuple[np.dtype, slice]]:
        """(dtype, span) of each maximal run of consecutive parameters that
        hold a gradient.  A gradient assigned rather than accumulated is
        copied into its slot first."""
        out: list[list] = []
        for p, (dt, lo, hi) in zip(self.params, self.spans):
            if p.grad is None:
                continue
            if p.grad is not p.slot:
                p.take_grad(p.grad)
            if out and out[-1][0] == dt and out[-1][2] == lo:
                out[-1][2] = hi
            else:
                out.append([dt, lo, hi])
        return [(dt, slice(lo, hi)) for dt, lo, hi in out]


class Module:
    """Base class for layers and models (recursive parameter discovery)."""

    def __init__(self) -> None:
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # Introspection ---------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def modules(self) -> Iterator[Module]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # Modes ------------------------------------------------------------------------

    def train(self, mode: bool = True) -> Module:
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> Module:
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # Serialization -------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, p in own.items():
            value = np.asarray(state[name])
            if value.shape != p.shape:
                raise ValueError(f"{name}: shape {value.shape} != parameter shape {p.shape}")
            np.copyto(p.data, value)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
