"""Autograd engine tests: op correctness via finite differences."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from tests.nn.gradcheck import gradcheck

RNG = np.random.default_rng(0)


class TestBasics:
    def test_construction(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert t.shape == (2,)
        assert t.grad is None

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 3
        assert not out.requires_grad

    def test_detach(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad

    def test_grad_accumulates_over_reuse(self):
        t = Tensor([2.0], requires_grad=True)
        (t * t).backward()  # d(t^2)/dt = 4
        assert t.grad[0] == pytest.approx(4.0)

    def test_diamond_graph(self):
        """y = a*b + a: gradient wrt a must combine both paths."""
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b + a).backward()
        assert a.grad[0] == pytest.approx(6.0)
        assert b.grad[0] == pytest.approx(3.0)


class TestElementwiseGradients:
    def test_add_broadcast(self):
        x = RNG.standard_normal((3, 4))
        gradcheck(lambda t: (t + Tensor(np.ones(4))).sum(), x)

    def test_mul(self):
        x = RNG.standard_normal((2, 5))
        other = RNG.standard_normal((2, 5))
        gradcheck(lambda t: (t * Tensor(other)).sum(), x)

    def test_div(self):
        x = RNG.standard_normal((4,)) + 3.0
        gradcheck(lambda t: (Tensor([2.0, 1.0, 3.0, 4.0]) / t).sum(), x)

    def test_pow(self):
        x = np.abs(RNG.standard_normal(6)) + 0.5
        gradcheck(lambda t: (t**3).sum(), x)

    def test_exp_log(self):
        x = np.abs(RNG.standard_normal(5)) + 0.5
        gradcheck(lambda t: (t.log() * 2).exp().sum(), x)

    def test_tanh_sigmoid_relu(self):
        x = RNG.standard_normal(8)
        gradcheck(lambda t: t.tanh().sum(), x)
        gradcheck(lambda t: t.sigmoid().sum(), x)
        x_off_kink = x + np.where(np.abs(x) < 1e-3, 0.1, 0.0)
        gradcheck(lambda t: t.relu().sum(), x_off_kink)

    def test_abs_sqrt(self):
        x = np.abs(RNG.standard_normal(5)) + 0.3
        gradcheck(lambda t: t.sqrt().sum(), x)
        gradcheck(lambda t: t.abs().sum(), x)

    def test_neg_sub(self):
        x = RNG.standard_normal(4)
        gradcheck(lambda t: (5.0 - t).sum(), x)


class TestReductionsAndShape:
    def test_sum_axis(self):
        x = RNG.standard_normal((3, 4, 2))
        gradcheck(lambda t: (t.sum(axis=1) ** 2).sum(), x)

    def test_mean_keepdims(self):
        x = RNG.standard_normal((3, 4))
        gradcheck(lambda t: (t - t.mean(axis=1, keepdims=True)).pow(2).sum()
                  if hasattr(t, "pow") else ((t - t.mean(axis=1, keepdims=True)) ** 2).sum(), x)

    def test_max(self):
        x = RNG.standard_normal((4, 5))
        gradcheck(lambda t: (t.max(axis=1) ** 2).sum(), x)

    def test_reshape_transpose(self):
        x = RNG.standard_normal((2, 3, 4))
        gradcheck(lambda t: (t.reshape(6, 4).transpose() ** 2).sum(), x)

    @pytest.mark.parametrize("axes", [(0, -1, 1), (-1, -3, -2), (-2, 0, 2)])
    def test_transpose_negative_axes(self, axes):
        x = RNG.standard_normal((2, 3, 4))
        weights = Tensor(RNG.standard_normal(x.transpose(axes).shape))
        gradcheck(lambda t: (t.transpose(*axes) * weights).sum(), x)

    def test_getitem(self):
        x = RNG.standard_normal((5, 3))
        gradcheck(lambda t: (t[1:4, :2] ** 2).sum(), x)

    def test_concat(self):
        x = RNG.standard_normal((2, 3))
        other = Tensor(RNG.standard_normal((2, 2)))
        gradcheck(lambda t: (Tensor.concat([t, other], axis=1) ** 2).sum(), x)

    def test_pad(self):
        x = RNG.standard_normal((2, 3))
        gradcheck(lambda t: (t.pad(((1, 1), (0, 2))) ** 2).sum(), x)


class TestMatmulSoftmax:
    def test_matmul_2d(self):
        x = RNG.standard_normal((3, 4))
        w = Tensor(RNG.standard_normal((4, 2)))
        gradcheck(lambda t: ((t @ w) ** 2).sum(), x)

    def test_matmul_batched(self):
        x = RNG.standard_normal((2, 3, 4))
        w = Tensor(RNG.standard_normal((2, 4, 5)))
        gradcheck(lambda t: ((t @ w) ** 2).sum(), x)

    @pytest.mark.parametrize("a_shape,b_shape", [((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,))])
    def test_matmul_rejects_1d_operands(self, a_shape, b_shape):
        """A 1-D operand would run forward and die in the backward."""
        a = Tensor(np.ones(a_shape), requires_grad=True)
        with pytest.raises(ValueError, match=r"matmul needs operands of 2 or more dims"):
            a @ Tensor(np.ones(b_shape), requires_grad=True)

    def test_matmul_broadcast_weight_grad(self):
        """Batched x against unbatched w: w's grad must sum over the batch."""
        x = Tensor(RNG.standard_normal((2, 3, 4)))
        w = RNG.standard_normal((4, 2))
        gradcheck(lambda t: ((x @ t) ** 2).sum(), w)

    def test_softmax_rows_sum_one(self):
        t = Tensor(RNG.standard_normal((5, 7)))
        s = t.softmax(axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_softmax_gradient(self):
        x = RNG.standard_normal((3, 4))
        target = RNG.standard_normal((3, 4))
        gradcheck(lambda t: (t.softmax(axis=-1) * Tensor(target)).sum(), x)

    def test_softmax_stable_large_logits(self):
        s = Tensor(np.array([1000.0, 1001.0])).softmax()
        assert np.isfinite(s.data).all()


class TestEnergyAccounting:
    def test_matmul_charges_flops(self):
        from repro.energy import EnergyMeter

        a = Tensor(np.ones((8, 8)), requires_grad=True)
        b = Tensor(np.ones((8, 8)))
        with EnergyMeter() as meter:
            (a @ b).sum().backward()
        # Forward 2*8*8*8 plus backward 4*...
        assert meter.flops_gpu >= 2 * 8 * 8 * 8
