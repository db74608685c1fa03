"""The training step over packed parameter buffers against the
per-parameter code it replaced.

The reference functions below are the earlier per-array implementations:
``ConvTranspose3d``'s forward scatter as a loop of strided adds over kernel
offsets, Adam's and SGD's ``step`` and ``clip_grad_norm`` as loops over
parameters, and DDP's ``sync_gradients`` flattening every gradient into a
fresh buffer and copying the mean back out.  The flat code must match them
bit for bit: layer outputs and their memory layout, weights, gradients,
optimizer moments and returned norms.
"""

import pickle

import numpy as np
import pytest

from repro.nn import (
    SGD, Adam, DistributedDataParallel, Linear, Sequential, Tanh, Tensor, clip_grad_norm, mse_loss,
)
from repro.nn.conv import Conv3d, ConvTranspose3d
from repro.nn.module import Module, ParamPack
from repro.parallel import run_spmd

# ---- the replaced code -----------------------------------------------------------


def reference_convtranspose(layer, x):
    """ConvTranspose3d's forward without bias: 64 strided adds for a 4^3
    kernel into a zeroed canvas, then the padding cropped."""
    kd, kh, kw = layer.kernel_size
    sd, sh, sw = layer.stride
    pd, ph, pw = layer.padding
    b, _, di, hi, wi = x.shape
    od, oh, ow = layer.out_shape((di, hi, wi))
    full = (od + 2 * pd, oh + 2 * ph, ow + 2 * pw)
    out_pad = np.zeros((b, layer.out_channels, *full))
    contrib = np.einsum("bcdhw,coijk->bodhwijk", x, layer.weight.data, optimize=True)
    for a in range(kd):
        for b_ in range(kh):
            for c in range(kw):
                out_pad[
                    :, :,
                    a : a + sd * di : sd,
                    b_ : b_ + sh * hi : sh,
                    c : c + sw * wi : sw,
                ] += contrib[..., a, b_, c]
    return out_pad[:, :, pd : full[0] - pd, ph : full[1] - ph, pw : full[2] - pw]


class ReferenceAdam:
    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params, self.lr, self.betas, self.eps = params, lr, betas, eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0

    def step(self):
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay > 0:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class ReferenceSGD:
    def __init__(self, params, lr, momentum=0.0):
        self.params, self.lr, self.momentum = params, lr, momentum
        self._velocity = [np.zeros_like(p.data) for p in params]

    def step(self):
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


def reference_clip(params, max_norm):
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float((g**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def reference_sync(params, comm):
    spans, offset = [], 0
    for p in params:
        spans.append((offset, offset + p.size))
        offset += p.size
    flat = np.empty(offset, dtype=np.result_type(*(p.data.dtype for p in params)))
    for p, (lo, hi) in zip(params, spans):
        flat[lo:hi] = 0.0 if p.grad is None else p.grad.ravel()
    out = comm.allreduce(flat, op="sum") / comm.size
    for p, (lo, hi) in zip(params, spans):
        p.grad = out[lo:hi].reshape(p.shape).astype(p.data.dtype)


# ---- models ----------------------------------------------------------------------


class Net(Module):
    """Linear weights (gradients arrive transposed), a Conv3d (an einsum
    gradient), and ``skip``, a layer between them that forward leaves
    unused when ``use_skip`` is False (its gradients stay None)."""

    def __init__(self, seed, use_skip=True):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv = Conv3d(2, 3, kernel_size=2, rng=rng)
        self.skip = Linear(24, 24, rng=rng)
        self.head = Linear(24, 5, rng=rng)
        self.use_skip = use_skip

    def forward(self, x):
        h = self.conv(x).relu().reshape(x.shape[0], 24)
        if self.use_skip:
            h = self.skip(h).tanh()
        return self.head(h)


def twins(seed=0, use_skip=True):
    """Two identical nets: one for the code under test, one for the reference."""
    return Net(seed, use_skip), Net(seed, use_skip)


def backward(model, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 2, 3, 3, 3)) * scale)
    y = Tensor(rng.standard_normal((4, 5)))
    mse_loss(model(x), y).backward()


def assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_params(model, ref):
    for p, q in zip(model.parameters(), ref.parameters()):
        assert_same(p.data, q.data)


# ---- ConvTranspose3d -------------------------------------------------------------


@pytest.mark.parametrize("geometry", [(4, 2, 1), (3, 1, 1), (3, 2, 0), (2, 3, 0)])
@pytest.mark.parametrize("batch", [1, 8])
def test_convtranspose_scatter_matches_loop(geometry, batch):
    k, s, p = geometry
    rng = np.random.default_rng(k * 10 + s + batch)
    layer = ConvTranspose3d(3, 2, kernel_size=k, stride=s, padding=p, bias=False, rng=rng)
    dtype = np.float32 if geometry == (3, 2, 0) else np.float64
    x = rng.standard_normal((batch, 3, 3, 4, 2)).astype(dtype)
    want = reference_convtranspose(layer, x)
    for _ in range(2):  # the second call reuses the cached index
        got = layer(Tensor(x)).data
        assert_same(got, want)
        assert got.strides == want.strides


# ---- optimizers ------------------------------------------------------------------


@pytest.mark.parametrize("use_skip", [True, False], ids=["all-grads", "one-unused-layer"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_matches_per_parameter_loop(use_skip, weight_decay):
    model, ref = twins(use_skip=use_skip)
    opt = Adam(model.parameters(), lr=1e-2, weight_decay=weight_decay)
    ref_opt = ReferenceAdam(ref.parameters(), lr=1e-2, weight_decay=weight_decay)
    for step in range(4):
        for m, o in ((model, opt), (ref, ref_opt)):
            for q in m.parameters():
                q.zero_grad()
            backward(m, step)
            o.step()
        if not use_skip:
            assert model.skip.weight.grad is None
        assert_same_params(model, ref)
        for a, b in zip(opt._m + opt._v, ref_opt._m + ref_opt._v):
            assert_same(a, b)


def test_adam_steps_assigned_gradients():
    model, ref = twins()
    opt = Adam(model.parameters(), lr=1e-2)
    ref_opt = ReferenceAdam(ref.parameters(), lr=1e-2)
    rng = np.random.default_rng(5)
    for p, q in zip(model.parameters(), ref.parameters()):
        if p is not model.skip.bias:
            p.grad = rng.standard_normal(p.shape)
            q.grad = p.grad.copy()
    opt.step()
    ref_opt.step()
    assert_same_params(model, ref)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_matches_per_parameter_loop(momentum):
    model, ref = twins(use_skip=False)
    opt = SGD(model.parameters(), lr=0.05, momentum=momentum)
    ref_opt = ReferenceSGD(ref.parameters(), lr=0.05, momentum=momentum)
    for step in range(4):
        for m, o in ((model, opt), (ref, ref_opt)):
            for q in m.parameters():
                q.zero_grad()
            backward(m, step)
            o.step()
        assert_same_params(model, ref)
        for a, b in zip(opt._velocity, ref_opt._velocity):
            assert_same(a, b)


# ---- gradient clipping -----------------------------------------------------------


def mlp(seed):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(100, 120, rng=rng), Tanh(), Linear(120, 80, rng=rng))


def clip_twins():
    """Pairs of identical models after one backward pass: the conv net, and
    MLPs over ten seeds (summing a transposed gradient in C order instead
    changes the norm's last bit on some of them)."""
    model, ref = twins()
    backward(model, 0, scale=30.0)
    backward(ref, 0, scale=30.0)
    yield model, ref
    for seed in range(10):
        model, ref = mlp(seed), mlp(seed)
        rng = np.random.default_rng(100 + seed)
        x, y = Tensor(rng.standard_normal((6, 100)) * 30), Tensor(rng.standard_normal((6, 80)))
        for m in (model, ref):
            mse_loss(m(x), y).backward()
        yield model, ref


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["clips", "leaves"])
def test_clip_matches_per_parameter_sums(factor):
    for model, ref in clip_twins():
        Adam(model.parameters(), lr=1e-3)  # packed, as in a fit
        # Linear weights' gradients arrive as transposed views, and a fresh
        # copy keeps that layout; the norm must add them in that order.
        weight = ref.parameters()[-2]
        assert weight.grad.flags.f_contiguous and not weight.grad.flags.c_contiguous
        max_norm = factor * reference_clip(ref.parameters(), np.inf)
        got = clip_grad_norm(model.parameters(), max_norm)
        want = reference_clip(ref.parameters(), max_norm)
        assert got.hex() == want.hex()
        for p, q in zip(model.parameters(), ref.parameters()):
            assert_same(np.ascontiguousarray(p.grad), np.ascontiguousarray(q.grad))


def test_clip_packs_loose_parameters():
    lin, ref = Linear(6, 4, rng=np.random.default_rng(1)), Linear(6, 4, rng=np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).standard_normal((3, 6)) * 50)
    for m in (lin, ref):
        mse_loss(m(x), Tensor(np.zeros((3, 4)))).backward()
    assert lin.weight.pack is None
    assert clip_grad_norm(lin.parameters(), 1.0).hex() == reference_clip(ref.parameters(), 1.0).hex()
    assert lin.weight.pack is not None
    assert_same(np.ascontiguousarray(lin.weight.grad), np.ascontiguousarray(ref.weight.grad))


# ---- packing ---------------------------------------------------------------------


def test_pack_is_shared_and_idempotent():
    model = Net(0)
    pack = ParamPack.of(model.parameters())
    assert ParamPack.of(model.parameters()) is pack
    assert Adam(model.parameters(), lr=1e-3).pack is pack
    buf = pack.data[np.dtype(np.float64)]
    for p in model.parameters():
        assert np.shares_memory(p.data, buf)
    with pytest.raises(ValueError, match="listed twice"):
        ParamPack([model.head.weight, model.head.weight])


def test_a_copied_model_gets_its_own_pack():
    model = Net(0)
    Adam(model.parameters(), lr=1e-3)
    twin = pickle.loads(pickle.dumps(model))  # data arrays no longer view a buffer
    opt = Adam(twin.parameters(), lr=1e-3)
    assert opt.pack is not model.head.weight.pack
    buf = opt.pack.data[np.dtype(np.float64)]
    assert all(np.shares_memory(p.data, buf) for p in twin.parameters())
    backward(twin, 0)
    before = twin.head.weight.data.copy()
    opt.step()
    assert not np.array_equal(twin.head.weight.data, before)


def test_load_state_dict_after_optimizer_exists():
    model, ref = twins()
    state = Net(9).state_dict()
    opt = Adam(model.parameters(), lr=1e-2)
    model.load_state_dict(state)
    ref.load_state_dict(state)
    ref_opt = ReferenceAdam(ref.parameters(), lr=1e-2)
    buf = opt.pack.data[np.dtype(np.float64)]
    assert all(np.shares_memory(p.data, buf) for p in model.parameters())
    for step in range(3):
        for m, o in ((model, opt), (ref, ref_opt)):
            for q in m.parameters():
                q.zero_grad()
            backward(m, step)
            o.step()
        assert_same_params(model, ref)


# ---- DDP gradient sync -----------------------------------------------------------


def allreduce_sizes(comm, sync):
    """Run ``sync()``; the payload sizes of the allreduces it issued."""
    sizes, allreduce = [], comm.allreduce

    def counted(obj, op="sum"):
        sizes.append(obj.nbytes)
        return allreduce(obj, op=op)

    comm.allreduce = counted
    try:
        sync()
    finally:
        comm.allreduce = allreduce
    return sizes


def sync_both(comm):
    """This rank's gradients after the new and the reference sync, and the
    allreduce payload sizes each issued."""
    new, ref = Net(0, use_skip=False), Net(0, use_skip=False)
    ddp = DistributedDataParallel(new, comm)
    Adam(new.parameters(), lr=1e-3)
    for model in (new, ref):
        backward(model, 10 + comm.rank)
    sizes = {"new": allreduce_sizes(comm, ddp.sync_gradients),
             "ref": allreduce_sizes(comm, lambda: reference_sync(ref.parameters(), comm))}
    return {name: ([p.grad.copy() for p in model.parameters()], sizes[name])
            for name, model in (("new", new), ("ref", ref))}


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_sync_matches_flatten_and_copy_back(backend):
    res = run_spmd(sync_both, 2, backend=backend)
    for rank in res.values:
        (new, new_sizes), (ref, ref_sizes) = rank["new"], rank["ref"]
        assert new_sizes == ref_sizes and len(new_sizes) == 1
        for a, b in zip(new, ref):
            assert_same(a, b)
    for a, b in zip(res.values[0]["new"][0], res.values[1]["new"][0]):
        assert_same(a, b)


# ---- slice backward --------------------------------------------------------------


@pytest.mark.parametrize("key", [
    (slice(None), -1), (Ellipsis, slice(1, 3)), np.int64(1), (None, 0, slice(None, None, 2)),
], ids=["int", "ellipsis", "numpy-int", "newaxis"])
def test_basic_slice_backward_matches_add_at(key):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    out = x[key]
    g = rng.standard_normal(out.shape)
    g.flat[0] = -0.0
    out.backward(g)
    want = np.zeros_like(x.data)
    np.add.at(want, key, g)
    assert_same(x.grad, want)


def test_fancy_index_backward_sums_repeats():
    x = Tensor(np.arange(4.0), requires_grad=True)
    x[np.array([1, 1, 3])].backward(np.array([1.0, 2.0, 4.0]))
    assert x.grad.tolist() == [0.0, 3.0, 0.0, 4.0]
