"""Tests for modules, layers, convs, LSTM, attention."""

import numpy as np
import pytest

from repro.nn import (
    Conv3d,
    ConvTranspose3d,
    Dropout,
    LayerNorm,
    Linear,
    LSTM,
    MultiHeadAttention,
    Sequential,
    TransformerEncoder,
)
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import gradcheck

RNG = np.random.default_rng(1)


class TestModule:
    def test_parameter_discovery_recursive(self):
        model = Sequential(Linear(4, 8, rng=RNG), Linear(8, 2, rng=RNG))
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == 4  # 2 weights + 2 biases
        assert model.n_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        a = Linear(3, 3, rng=np.random.default_rng(2))
        b = Linear(3, 3, rng=np.random.default_rng(3))
        b.load_state_dict(a.state_dict())
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_rejected(self):
        a = Linear(3, 3, rng=RNG)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((3, 3))})

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), Sequential(Dropout(0.5)))
        model.eval()
        assert all(not m.training for m in model.modules())

    def test_zero_grad(self):
        lin = Linear(2, 2, rng=RNG)
        out = lin(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestLinear:
    def test_shapes(self):
        lin = Linear(5, 3, rng=RNG)
        out = lin(Tensor(RNG.standard_normal((7, 5))))
        assert out.shape == (7, 3)

    def test_batched_leading_dims(self):
        lin = Linear(5, 3, rng=RNG)
        out = lin(Tensor(RNG.standard_normal((2, 4, 5))))
        assert out.shape == (2, 4, 3)

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError):
            Linear(5, 3, rng=RNG)(Tensor(np.zeros((2, 4))))

    def test_1d_input_rejected_at_the_forward(self):
        """A (3,) input would run forward and die in the backward."""
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            Linear(3, 2, rng=RNG)(Tensor(np.zeros(3), requires_grad=True))

    def test_gradcheck_through_layer(self):
        lin = Linear(4, 2, rng=np.random.default_rng(4))
        x = RNG.standard_normal((3, 4))
        gradcheck(lambda t: (lin(t) ** 2).sum(), x)

    def test_weight_gradient_correct(self):
        lin = Linear(2, 1, bias=False, rng=RNG)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        lin(Tensor(x)).sum().backward()
        assert np.allclose(lin.weight.grad, x.sum(axis=0))


class TestLayerNorm:
    def test_normalizes(self):
        ln = LayerNorm(16)
        x = Tensor(RNG.standard_normal((4, 16)) * 10 + 5)
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self):
        ln = LayerNorm(6)
        x = RNG.standard_normal((2, 6))
        gradcheck(lambda t: (ln(t) ** 2).sum(), x, rtol=1e-3)

    def test_dim_checked(self):
        with pytest.raises(ValueError):
            LayerNorm(4)(Tensor(np.zeros((2, 5))))


class TestDropout:
    def test_eval_identity(self):
        d = Dropout(0.9, rng=RNG)
        d.eval()
        x = Tensor(np.ones((4, 4)))
        assert np.array_equal(d(x).data, x.data)

    def test_train_masks_and_scales(self):
        d = Dropout(0.5, rng=np.random.default_rng(5))
        out = d(Tensor(np.ones((100, 100)))).data
        kept = out > 0
        assert 0.4 < kept.mean() < 0.6
        assert np.allclose(out[kept], 2.0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConv3d:
    def test_output_shape(self):
        conv = Conv3d(2, 4, kernel_size=3, stride=1, padding=1, rng=RNG)
        out = conv(Tensor(RNG.standard_normal((2, 2, 6, 6, 6))))
        assert out.shape == (2, 4, 6, 6, 6)

    def test_stride_downsamples(self):
        conv = Conv3d(1, 3, kernel_size=4, stride=2, padding=1, rng=RNG)
        out = conv(Tensor(RNG.standard_normal((1, 1, 8, 8, 8))))
        assert out.shape == (1, 3, 4, 4, 4)

    def test_known_value_identity_kernel(self):
        conv = Conv3d(1, 1, kernel_size=1, bias=False, rng=RNG)
        conv.weight.data[:] = 2.0
        x = RNG.standard_normal((1, 1, 3, 3, 3))
        out = conv(Tensor(x))
        assert np.allclose(out.data, 2 * x)

    def test_gradcheck_input(self):
        conv = Conv3d(1, 2, kernel_size=2, stride=1, rng=np.random.default_rng(6))
        x = RNG.standard_normal((1, 1, 4, 4, 4))
        gradcheck(lambda t: (conv(t) ** 2).sum(), x, rtol=1e-3)

    def test_gradcheck_strided(self):
        conv = Conv3d(1, 1, kernel_size=2, stride=2, rng=np.random.default_rng(7))
        x = RNG.standard_normal((1, 1, 4, 4, 4))
        gradcheck(lambda t: (conv(t) ** 2).sum(), x, rtol=1e-3)

    def test_weight_gradcheck(self):
        x_data = Tensor(RNG.standard_normal((1, 1, 4, 4, 4)))
        conv = Conv3d(1, 1, kernel_size=3, padding=1, bias=False, rng=np.random.default_rng(8))
        w0 = conv.weight.data.copy()

        def build(t):
            conv.weight.data = t.data
            out = conv(x_data)
            # Route grads through the weight tensor we control.
            conv.weight.grad = None
            return (out * out).sum()

        # Manual check: finite differences on the weight.
        from tests.nn.gradcheck import numeric_grad

        conv.weight.data = w0
        out = (conv(x_data) ** 2).sum()
        out.backward()
        analytic = conv.weight.grad.copy()

        def f(w):
            conv.weight.data = w
            return float(((conv(x_data) ** 2).sum()).data)

        numeric = numeric_grad(f, w0.copy(), eps=1e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-6)

    def test_bad_input_shape(self):
        with pytest.raises(ValueError):
            Conv3d(2, 2, rng=RNG)(Tensor(np.zeros((1, 3, 4, 4, 4))))


class TestConvTranspose3d:
    def test_inverts_conv_shape(self):
        down = Conv3d(1, 2, kernel_size=4, stride=2, padding=1, rng=RNG)
        up = ConvTranspose3d(2, 1, kernel_size=4, stride=2, padding=1, rng=RNG)
        x = Tensor(RNG.standard_normal((1, 1, 8, 8, 8)))
        assert up(down(x)).shape == x.shape

    def test_upsamples(self):
        up = ConvTranspose3d(1, 1, kernel_size=4, stride=2, padding=1, rng=RNG)
        out = up(Tensor(RNG.standard_normal((1, 1, 4, 4, 4))))
        assert out.shape == (1, 1, 8, 8, 8)

    def test_gradcheck_input(self):
        up = ConvTranspose3d(1, 1, kernel_size=2, stride=2, rng=np.random.default_rng(9))
        x = RNG.standard_normal((1, 1, 3, 3, 3))
        gradcheck(lambda t: (up(t) ** 2).sum(), x, rtol=1e-3)

    def test_adjoint_of_conv(self):
        """<conv(x), y> == <x, convT(y)> when sharing the same weights."""
        rng = np.random.default_rng(10)
        # k=4/s=2/p=1 is exact-fit geometry (no output_padding ambiguity).
        conv = Conv3d(1, 1, kernel_size=4, stride=2, padding=1, bias=False, rng=rng)
        up = ConvTranspose3d(1, 1, kernel_size=4, stride=2, padding=1, bias=False, rng=rng)
        up.weight.data = conv.weight.data.transpose(1, 0, 2, 3, 4).copy()
        x = Tensor(rng.standard_normal((1, 1, 8, 8, 8)))
        y_shape = conv(x).shape
        y = Tensor(rng.standard_normal(y_shape))
        lhs = float((conv(x).data * y.data).sum())
        rhs = float((x.data * up(y).data).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestLSTM:
    def test_output_shape(self):
        lstm = LSTM(3, 8, num_layers=2, rng=RNG)
        out = lstm(Tensor(RNG.standard_normal((4, 5, 3))))
        assert out.shape == (4, 5, 8)

    def test_gradient_flows_through_time(self):
        lstm = LSTM(2, 4, rng=np.random.default_rng(11))
        x = Tensor(RNG.standard_normal((1, 6, 2)), requires_grad=True)
        lstm(x)[:, -1, :].sum().backward()
        # Early timesteps must receive gradient (BPTT).
        assert np.abs(x.grad[0, 0]).sum() > 0

    def test_gradcheck_small(self):
        lstm = LSTM(2, 3, rng=np.random.default_rng(12))
        x = RNG.standard_normal((1, 3, 2))
        gradcheck(lambda t: (lstm(t) ** 2).sum(), x, rtol=1e-3)

    def test_forget_bias_initialized(self):
        lstm = LSTM(2, 4, rng=RNG)
        assert np.all(lstm.cells[0].bias.data[4:8] == 1.0)


class TestAttention:
    def test_output_shape(self):
        mha = MultiHeadAttention(16, 4, rng=RNG)
        out = mha(Tensor(RNG.standard_normal((2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng=RNG)

    def test_gradcheck(self):
        mha = MultiHeadAttention(4, 2, rng=np.random.default_rng(13))
        x = RNG.standard_normal((1, 3, 4))
        gradcheck(lambda t: (mha(t) ** 2).sum(), x, rtol=1e-3)

    def test_permutation_equivariance(self):
        """Self-attention without positional encoding is permutation-equivariant."""
        mha = MultiHeadAttention(8, 2, rng=np.random.default_rng(14))
        x = RNG.standard_normal((1, 6, 8))
        perm = np.random.default_rng(15).permutation(6)
        out = mha(Tensor(x)).data
        out_perm = mha(Tensor(x[:, perm])).data
        assert np.allclose(out[:, perm], out_perm, atol=1e-10)

    def test_transformer_encoder(self):
        enc = TransformerEncoder(8, depth=2, n_heads=2, rng=RNG)
        out = enc(Tensor(RNG.standard_normal((2, 4, 8))))
        assert out.shape == (2, 4, 8)
        assert len(enc.layers) == 2
