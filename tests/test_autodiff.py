import numpy as np
import pytest

from hotplug import autodiff as ad
from hotplug.autodiff import Tensor
from hotplug.encoders import ImageSpec, VisualEncoderConfig, encode_image, init_encoder
from hotplug.errors import (
    ContractError,
    DegenerateVectorError,
    DimensionError,
    ParameterError,
)


class TestMatmul:
    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert np.array_equal(ad.matmul(a, b).values, [[3.0], [7.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        eye = Tensor(np.eye(4))
        assert np.array_equal(ad.matmul(a, eye).values, a.values)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_with_shared_weight(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(5, 3, 4)))
        w = Tensor(rng.normal(size=(4, 2)))
        out = ad.matmul(a, w)
        assert out.shape == (5, 3, 2)
        expected = np.einsum("btk,kn->btn", a.values, w.values)
        np.testing.assert_allclose(out.values, expected)


class TestSoftmax:
    def test_symmetric_row(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(out.values, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form_row(self):
        out = ad.softmax_rows(Tensor([[np.log(2.0), 0.0]]), 1.0)
        np.testing.assert_allclose(out.values, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        a = ad.softmax_rows(Tensor(x), 1.0).values
        b = ad.softmax_rows(Tensor(x + 13.7), 1.0).values
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ad.softmax_rows(Tensor(rng.normal(size=(8, 5)) * 2), 1.0)
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)
        assert ((out.values > 0) & (out.values < 1)).all()

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            ad.softmax_rows(Tensor([[1.0]]), 0.0)


class TestL2Normalize:
    def test_hand_case(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-15)

    def test_already_unit(self):
        out = ad.l2_normalize_rows(Tensor([[1.0, 0.0]]))
        assert np.array_equal(out.values, [[1.0, 0.0]])

    def test_degenerate_row(self):
        with pytest.raises(DegenerateVectorError):
            ad.l2_normalize_rows(Tensor([[0.0, 0.0]]))

    @pytest.mark.parametrize("row", [[1e200, 1e200], [np.inf, 0.0], [np.nan, 1.0]],
                             ids=["overflowing", "inf", "nan"])
    def test_non_finite_norm_is_degenerate(self, row):
        # A finite row whose norm overflows would otherwise scale to zeros.
        with pytest.raises(DegenerateVectorError, match="not finite"):
            ad.l2_normalize_rows(Tensor([[1.0, 0.0], row]))

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        out = ad.l2_normalize_rows(Tensor(rng.normal(size=(10, 7))))
        np.testing.assert_allclose(np.linalg.norm(out.values, axis=-1), 1.0,
                                   atol=1e-12)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((1, 5), 3.0))
        gain = Tensor(np.ones(5))
        bias = Tensor(np.zeros(5))
        np.testing.assert_allclose(ad.layer_norm(x, gain, bias).values, 0.0,
                                   atol=1e-12)

    def test_two_point_row(self):
        x = Tensor([[1.0, 3.0]])
        out = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gain_gives_bias(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)))
        bias = Tensor(rng.normal(size=4))
        out = ad.layer_norm(x, Tensor(np.zeros(4)), bias)
        np.testing.assert_allclose(out.values,
                                   np.broadcast_to(bias.values, (3, 4)))


class TestActivations:
    def test_relu(self):
        out = ad.elementwise_activation(Tensor([-2.0, 3.0]), "relu")
        assert np.array_equal(out.values, [0.0, 3.0])

    def test_gelu_at_zero(self):
        assert ad.elementwise_activation(Tensor([0.0]), "gelu").values[0] == 0.0

    def test_gelu_at_one(self):
        val = ad.elementwise_activation(Tensor([1.0]), "gelu").values[0]
        assert abs(val - 0.841345) < 1e-6

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            ad.elementwise_activation(Tensor([1.0]), "swish")


class TestBackward:
    def test_square_gradient(self):
        with ad.new_tape():
            x = Tensor([3.0], trainable=True)
            loss = ad.sum_all(ad.mul(x, x))
            ad.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_independent_tensor_gets_no_grad(self):
        with ad.new_tape():
            x = Tensor([3.0], trainable=True)
            y = Tensor([2.0], trainable=True)
            loss = ad.sum_all(ad.mul(y, y))
            ad.backward(loss)
        assert x.grad is None

    def test_frozen_tensor_gets_no_grad(self):
        with ad.new_tape():
            x = Tensor([3.0], trainable=False)
            loss = ad.sum_all(ad.mul(x, x))
            ad.backward(loss)
        assert x.grad is None

    def test_trainable_loss_that_is_also_a_parent_counts_once(self):
        with ad.new_tape():
            x = Tensor(3.0, trainable=True)
            ad.scale(x, 2.0)
            ad.backward(x)
        assert x.grad == 1.0

    def test_non_scalar_loss_rejected(self):
        with ad.new_tape():
            x = Tensor([1.0, 2.0], trainable=True)
            with pytest.raises(ContractError):
                ad.backward(ad.mul(x, x))

    def test_grad_linearity(self):
        rng = np.random.default_rng(6)
        point = rng.normal(size=(4,))
        w1 = Tensor(rng.normal(size=(4,)))
        w2 = Tensor(rng.normal(size=(4,)))

        def losses(x):
            l1 = ad.sum_all(ad.mul(ad.mul(x, x), w1))
            l2 = ad.sum_all(ad.mul(x, w2))
            return l1, l2

        with ad.new_tape():
            x = Tensor(point, trainable=True)
            l1, l2 = losses(x)
            ad.backward(ad.add(l1, l2))
            combined = x.grad.copy()
        with ad.new_tape():
            x = Tensor(point, trainable=True)
            l1, l2 = losses(x)
            ad.backward(l1)
            g1 = x.grad.copy()
            x.zero_grad()
            ad.backward(l2)
            g2 = x.grad.copy()
        np.testing.assert_allclose(combined, g1 + g2, atol=1e-12)


class TestGradCheck:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(7)
        err = ad.grad_check(lambda x: ad.sum_all(ad.mul(x, x)),
                            rng.normal(size=(3, 3)), 1e-6)
        assert err < 1e-6

    def test_linear_nearly_exact(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(5,)))
        err = ad.grad_check(lambda x: ad.sum_all(ad.mul(x, w)),
                            rng.normal(size=(5,)), 1e-4)
        assert err < 1e-10

    def test_step_domain(self):
        with pytest.raises(ParameterError):
            ad.grad_check(lambda x: ad.sum_all(x), np.ones(2), 1e-2)

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            ad.grad_check(lambda x: ad.mul(x, x), np.ones(3), 1e-6)

    def test_relu_kink_policy(self):
        # Points are resampled away from the kink before checking.
        rng = np.random.default_rng(9)
        point = ad.random_point(rng, (4, 4), min_abs=1e-5)
        assert (np.abs(point) >= 1e-5).all()
        err = ad.grad_check(
            lambda x: ad.sum_all(ad.mul(ad.relu(x), ad.relu(x))), point, 1e-6)
        assert err < 1e-6


class TestDeterminism:
    def test_same_seed_same_values_and_grads(self):
        def run():
            rng = np.random.default_rng(11)
            with ad.new_tape():
                x = Tensor(rng.normal(size=(3, 4)), trainable=True)
                w = Tensor(rng.normal(size=(4, 2)), trainable=True)
                loss = ad.mean_all(ad.mul(ad.matmul(x, w), ad.matmul(x, w)))
                ad.backward(loss)
                return loss.values.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestFiniteness:
    def test_encodes_stay_finite(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(6, 8)) * 50)
        for out in (ad.softmax_rows(x, 0.05), ad.log_softmax_rows(x),
                    ad.gelu(x), ad.l2_normalize_rows(x)):
            assert np.isfinite(out.values).all()


class TestRecording:
    """Only ops that lead back to a trainable tensor go on the tape, and
    their closures form gradients only for inputs that need one."""

    def test_frozen_encoder_forward_records_nothing(self):
        cfg = VisualEncoderConfig(ImageSpec(8, 8, 1, 4), layers=2, width=8,
                                  heads=2, embed_dim=4)
        weights = init_encoder(cfg, seed=0)
        images = np.random.default_rng(13).normal(size=(3, 8, 8, 1))
        with ad.new_tape() as tape:
            emb = encode_image(weights, images)
        assert len(tape) == 0 and not emb.needs_grad

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(14)
        const = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)), trainable=True)
        with ad.new_tape() as tape:
            out = ad.matmul(const, w)
        ((recorded, parents, vjp),) = tape.records
        assert recorded is out and out.needs_grad
        d_const, d_w = vjp(np.ones(out.shape))
        assert d_const is None
        np.testing.assert_allclose(
            d_w, np.einsum("btk,btn->kn", const.values, np.ones(out.shape)))

    @pytest.mark.parametrize("op", [ad.relu, ad.gelu, ad.log_softmax_rows],
                             ids=["relu", "gelu", "log_softmax_rows"])
    def test_values_do_not_depend_on_recording(self, op):
        x = np.random.default_rng(15).normal(size=(4, 6)) * 3
        with ad.new_tape() as tape:
            recorded = op(Tensor(x, trainable=True)).values
            frozen = op(Tensor(x)).values
            with ad.no_grad():
                unrecorded = op(Tensor(x, trainable=True)).values
        assert len(tape) == 1
        assert np.array_equal(recorded, frozen)
        assert np.array_equal(recorded, unrecorded)

    def test_tape_entries_are_output_parents_closure_triples(self):
        rng = np.random.default_rng(16)
        w = Tensor(rng.normal(size=(3, 3)), trainable=True)
        g = Tensor(np.ones(3), trainable=True)
        with ad.new_tape() as tape:
            h = ad.layer_norm(ad.matmul(Tensor(rng.normal(size=(2, 3))), w), g,
                              Tensor(np.zeros(3)))
            ad.backward(ad.sum_all(ad.gelu(h)))
        assert len(tape) == 4
        for entry in tape.records:
            out, parents, vjp = entry
            assert isinstance(entry, tuple) and isinstance(out, Tensor)
            assert isinstance(parents, tuple) and callable(vjp)
            assert all(isinstance(p, Tensor) for p in parents)
