"""Linear, LayerNorm and GELU's one-node autograd against the primitive
graphs they replaced.

The reference functions below are the earlier ``forward`` bodies, which
built one node per primitive ``Tensor`` op.  Each fused node must match its
graph bit for bit: output values and strides, every input and parameter
gradient with the memory order it arrived in (``grad_order`` for a packed
parameter, strides otherwise), and the FLOPs an ``EnergyMeter`` records.
"""

import numpy as np
import pytest

from repro.energy.meter import EnergyMeter
from repro.nn import GELU, LayerNorm, Linear, mse_loss
from repro.nn.amp import autocast, current_precision, quantize
from repro.nn.models import MLPTransformer
from repro.nn.module import ParamPack
from repro.nn.tensor import Tensor, no_grad

# ---- the replaced code -----------------------------------------------------------


def reference_linear(layer, x):
    x = Tensor.as_tensor(x)
    w = layer.weight
    if current_precision() != "fp32":
        x = Tensor(quantize(x.data), requires_grad=False) + (x - x.detach())
        w = Tensor(quantize(w.data), requires_grad=False) + (w - w.detach())
    out = x @ w.transpose()
    if layer.bias is not None:
        out = out + layer.bias
    return out


def reference_layernorm(layer, x):
    x = Tensor.as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    centred = x - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = (var + layer.eps) ** -0.5
    return centred * inv * layer.gamma + layer.beta


def reference_gelu(layer, x):
    x = Tensor.as_tensor(x)
    inner = (x + x * x * x * 0.044715) * np.sqrt(2.0 / np.pi)
    return x * 0.5 * (inner.tanh() + 1.0)


REFERENCES = {Linear: reference_linear, LayerNorm: reference_layernorm, GELU: reference_gelu}


# ---- cases -----------------------------------------------------------------------

DIM = 6


def make_layer(name):
    """A layer with random parameters (LayerNorm's start as ones and zeros,
    a bias as zeros, which would hide a misplaced product or sum)."""
    rng = np.random.default_rng(7)
    if name == "gelu":
        return GELU()
    if name == "layernorm":
        layer = LayerNorm(DIM)
    else:
        layer = Linear(DIM, 5, bias=name == "linear", rng=rng)
    for p in layer.parameters():
        p.data = rng.standard_normal(p.shape)
    return layer


def upstream(shape, kind, rng):
    """The gradient seeded at the layer's output."""
    if kind == "strided-upstream":
        return rng.standard_normal((*shape[:-1], 2 * shape[-1]))[..., ::2]
    if kind == "transposed-upstream":
        return rng.standard_normal(shape[::-1]).T
    return rng.standard_normal(shape)


def run(layer, forward, x_data, kind, precision):
    """Forward and backward through ``forward(layer, x)``: the output, the
    input tensor and the meter."""
    rng = np.random.default_rng(11)
    x = Tensor(x_data.copy(), requires_grad=kind != "frozen-input")
    if kind != "unpacked":
        ParamPack(layer.parameters())
    meter = EnergyMeter()
    with meter, autocast(precision):
        if kind == "eval":
            with no_grad():
                return forward(layer, x), x, meter
        out = forward(layer, x)
        if not out.requires_grad:
            return out, x, meter
        g = upstream(out.shape, kind, rng)
        if kind == "second-consumer":
            # x's other consumer comes first in the sum, so its gradient
            # reaches x before the layer's contributions do.
            h = Tensor(rng.standard_normal(x.shape))
            ((x * h).sum() + (out * Tensor(g)).sum()).backward()
        else:
            out.backward(g)
    return out, x, meter


def record(out, x, layer, meter):
    """Everything the two graphs must agree on, as bytes and layouts."""
    def grad(t):
        g = t.grad
        if g is None:
            return None
        return (g.dtype.str, g.shape, g.strides, getattr(t, "grad_order", None), g.tobytes())

    return {
        "out": (out.data.dtype.str, out.shape, out.data.strides, out.data.tobytes()),
        "out.requires_grad": out.requires_grad,
        "x": grad(x),
        **{name: grad(p) for name, p in layer.named_parameters()},
        "flops": (meter.flops_gpu.hex(), meter.flops_cpu.hex()),
    }


KINDS = ["plain", "float32", "frozen-input", "second-consumer", "strided-upstream",
         "transposed-upstream", "unpacked", "eval"]


@pytest.mark.parametrize("precision", ["fp32", "fp16", "bf16", "int8"])
@pytest.mark.parametrize("ndim", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["linear", "linear-nobias", "layernorm", "gelu"])
def test_fused_node_matches_primitive_graph(name, kind, ndim, precision):
    for batch in (1, 8):
        shape = (batch, 3, 2)[: ndim - 1] + (DIM,)
        x_data = np.random.default_rng(batch).standard_normal(shape) * 2.0
        if kind == "float32":
            x_data = x_data.astype(np.float32)
        fused, ref = make_layer(name), make_layer(name)
        out, x, meter = run(fused, type(fused).forward, x_data, kind, precision)
        got = record(out, x, fused, meter)
        out, x, meter = run(ref, REFERENCES[type(ref)], x_data, kind, precision)
        want = record(out, x, ref, meter)
        assert got == want, (shape, [k for k in want if got[k] != want[k]])


def test_each_layer_builds_one_node():
    x = Tensor(np.random.default_rng(0).standard_normal((2, DIM)), requires_grad=True)
    for name in ("linear", "linear-nobias", "layernorm", "gelu"):
        layer = make_layer(name)
        out = layer(x)
        assert out._parents == (x, *layer.parameters()), name


# ---- whole models ----------------------------------------------------------------


def mlp_transformer(**kwargs):
    """The MLP-Transformer at the size the training benchmarks fit."""
    return MLPTransformer(in_channels=3, n_points=64, out_channels=1, grid=(8, 8, 8),
                          d_model=32, n_heads=2, rng=0, **kwargs)


def graph_nodes(root):
    """Tensors with a backward in ``root``'s graph."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes += t._backward is not None
            stack.extend(t._parents)
    return nodes


def test_mlp_transformer_step_node_count():
    rng = np.random.default_rng(0)
    model = mlp_transformer(depth=1)
    loss = mse_loss(model(Tensor(rng.standard_normal((8, 1, 3, 64)))),
                    Tensor(rng.standard_normal((8, 1, 1, 8, 8, 8))))
    assert graph_nodes(loss) == 56  # 117 with a node per primitive op


def step(model, batch, precision):
    """One training step's loss, gradients (as packed) and FLOPs."""
    ParamPack(model.parameters())
    rng = np.random.default_rng(batch)
    x = Tensor(rng.standard_normal((batch, 2, 3, 64)))
    y = Tensor(rng.standard_normal((batch, 1, 1, 8, 8, 8)))
    meter = EnergyMeter()
    with meter, autocast(precision):
        loss = mse_loss(model(x), y)
        loss.backward()
    return {"loss": loss.data.tobytes(),
            **{name: (p.grad_order, p.grad.tobytes()) for name, p in model.named_parameters()},
            "flops": meter.flops_gpu.hex()}


@pytest.mark.parametrize("precision", ["fp32", "fp16", "bf16", "int8"])
@pytest.mark.parametrize("batch", [1, 8])
def test_mlp_transformer_step_matches_primitive_graphs(batch, precision, monkeypatch):
    """Residual streams and q/k/v projections share inputs, so this also pins
    where each fused node's contributions fall among other nodes'."""
    got = step(mlp_transformer(window=2, depth=2), batch, precision)
    for cls, forward in REFERENCES.items():
        monkeypatch.setattr(cls, "forward", forward)
    want = step(mlp_transformer(window=2, depth=2), batch, precision)
    assert got == want, [k for k in want if got[k] != want[k]]
