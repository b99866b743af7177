import numpy as np
import pytest

from amnet.tensor import (
    ContractError, MacCounter, MaskError, NumericError, ShapeError, Tape,
    TapeError, Tensor, add, concat_cols, cross_entropy,
    cross_entropy_rows, grad_check, interleave_rows, matmul, mix_rows, mul,
    repeat_rows, reshape, scale, sigmoid, softmax_masked, sum_all,
    take_rows, tanh,
)


def rand(rng, *shape, grad=True):
    return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, b).data, b.data)

    def test_hand_computed(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert matmul(a, b).item() == 11.0

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 5, 4), rand(rng, 4, 3)
        err = grad_check(lambda x, y: sum_all(matmul(x, y)), [a, b])
        assert err < 1e-4


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).item() == 0.5

    def test_tanh_zero(self):
        assert tanh(Tensor([0.0])).item() == 0.0

    def test_add_vectors(self):
        out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_bias_row(self):
        out = add(Tensor(np.zeros((3, 2))), Tensor([1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]] * 3)

    def test_add_rejects_other_broadcasts(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 1))))

    def test_saturation_does_not_overflow(self):
        big = Tensor([1000.0, -1000.0])
        np.testing.assert_allclose(sigmoid(big).data, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(tanh(big).data, [1.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("op", [add, mul])
    def test_binary_gradients(self, op):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 4), rand(rng, 3, 4)
        err = grad_check(lambda x, y: sum_all(mul(op(x, y), y)), [a, b])
        assert err < 1e-4

    @pytest.mark.parametrize("op", [tanh, sigmoid])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(2)
        x = rand(rng, 4, 3)
        err = grad_check(lambda t: sum_all(mul(op(t), t)), [x])
        assert err < 1e-4


class TestSoftmaxMasked:
    def test_uniform(self):
        out = softmax_masked(Tensor([2.0, 2.0, 2.0]), np.ones(3))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_single_live_entry(self):
        out = softmax_masked(Tensor([0.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_extreme_logits_stable(self):
        out = softmax_masked(Tensor([1000.0, 0.0]), np.ones(2))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_all_zero_mask_rejected(self):
        with pytest.raises(MaskError):
            softmax_masked(Tensor([1.0, 2.0]), np.zeros(2))

    def test_rows_sum_to_one_and_masked_exactly_zero(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(8, 5)))
        mask = (rng.uniform(size=(8, 5)) < 0.6).astype(float)
        mask[:, 0] = 1.0
        out = softmax_masked(logits, mask)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(8), atol=1e-6)
        assert (out.data[mask == 0] == 0.0).all()
        assert (out.data[mask == 1] > 0.0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=7)
        mask = np.array([1, 1, 0, 1, 0, 1, 1], dtype=float)
        a = softmax_masked(Tensor(logits), mask).data
        b = softmax_masked(Tensor(logits + 123.456 * mask), mask).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 2, 4)
        mask = np.array([[1, 1, 0, 1], [1, 1, 1, 1]], dtype=float)
        w = Tensor(rng.normal(size=(2, 4)))
        err = grad_check(lambda t: sum_all(mul(softmax_masked(t, mask), w)), [x])
        assert err < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros(4)), 2)
        assert abs(loss.item() - np.log(4.0)) < 1e-12

    def test_confident_logits_near_zero(self):
        logits = np.zeros(6)
        logits[3] = 30.0
        assert cross_entropy(Tensor(logits), 3).item() < 1e-6

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=11)
        t = 7
        want = -np.log(np.exp(logits[t]) / np.exp(logits).sum())
        got = cross_entropy(Tensor(logits), t).item()
        assert abs(got - want) < 1e-10

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros(4)), 4)

    def test_rows_matches_single(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(3, 5))
        targets = [0, 4, 2]
        batched = cross_entropy_rows(Tensor(logits), targets).data
        singles = [cross_entropy(Tensor(row), t).item() for row, t in zip(logits, targets)]
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        x = rand(rng, 9)
        assert grad_check(lambda t: cross_entropy(t, 4), [x]) < 1e-4
        y = rand(rng, 3, 6)
        err = grad_check(lambda t: sum_all(cross_entropy_rows(t, [1, 0, 5])), [y])
        assert err < 1e-4


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_matmul_chain_depth3(self):
        rng = np.random.default_rng(9)
        ts = [rand(rng, 3, 3) for _ in range(4)]

        def f(a, b, c, d):
            return sum_all(matmul(matmul(matmul(a, b), c), d))

        assert grad_check(f, ts) < 1e-4

    def test_no_grad_without_requires_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=False)
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(matmul(x, w))
        tape.backward(loss)
        assert x.grad is None
        assert w.grad is not None

    def test_second_backward_is_error(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = scale(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_loss_from_other_tape_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = sum_all(x)
        with Tape() as other:
            sum_all(x)
        with pytest.raises(ContractError):
            other.backward(loss)

    def test_node_off_the_loss_path_is_skipped(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            side = matmul(x, w)  # recorded, but never reaches the loss
            loss = sum_all(x)
        assert len(tape.nodes) == 2
        tape.backward(loss)
        assert side.grad is None and w.grad is None
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_reused_operand_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])


class TestGradCheck:
    def test_sum_of_sigmoid(self):
        rng = np.random.default_rng(10)
        x = rand(rng, 4, 4)
        assert grad_check(lambda t: sum_all(sigmoid(t)), [x]) < 1e-6

    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(11)
        x = rand(rng, 5)
        w = Tensor(rng.normal(size=5))
        assert grad_check(lambda t: sum_all(mul(t, w)), [x]) < 1e-8

    def test_epsilon_range_enforced(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ContractError):
            grad_check(lambda t: sum_all(t), [x], epsilon=1e-2)

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ContractError):
            grad_check(lambda t: scale(t, 1.0), [x])


class TestStructuralOps:
    def test_concat_and_reshape_gradients(self):
        rng = np.random.default_rng(12)
        a, b = rand(rng, 3, 2), rand(rng, 3, 4)
        w = Tensor(rng.normal(size=(3, 6)))

        def f(x, y):
            return sum_all(mul(concat_cols(x, y), w))

        assert grad_check(f, [a, b]) < 1e-4
        x = rand(rng, 2, 6)
        assert grad_check(lambda t: sum_all(reshape(t, (3, 4))), [x]) < 1e-8

    def test_repeat_rows_layout_and_gradient(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        out = repeat_rows(x, 3)
        np.testing.assert_array_equal(out.data[:3], [[1.0, 2.0]] * 3)
        np.testing.assert_array_equal(out.data[3:], [[3.0, 4.0]] * 3)
        rng = np.random.default_rng(13)
        w = Tensor(rng.normal(size=(6, 2)))
        assert grad_check(lambda t: sum_all(mul(repeat_rows(t, 3), w)), [x]) < 1e-4

    def test_take_rows_gather_and_scatter(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = take_rows(table, [2, 0, 2])
        np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])
        with Tape() as tape:
            loss = sum_all(take_rows(table, [2, 0, 2]))
        tape.backward(loss)
        expect = np.zeros((4, 3))
        expect[2] = 2.0
        expect[0] = 1.0
        np.testing.assert_array_equal(table.grad, expect)

    def test_take_rows_bounds(self):
        with pytest.raises(IndexError):
            take_rows(Tensor(np.zeros((2, 2))), [0, 2])

    def test_interleave_rows_layout_and_gradient(self):
        rng = np.random.default_rng(14)
        a, b = rand(rng, 2, 3), rand(rng, 2, 3)
        out = interleave_rows([a, b])
        np.testing.assert_array_equal(out.data[0], a.data[0])
        np.testing.assert_array_equal(out.data[1], b.data[0])
        np.testing.assert_array_equal(out.data[2], a.data[1])
        w = Tensor(rng.normal(size=(4, 3)))
        assert grad_check(lambda x, y: sum_all(mul(interleave_rows([x, y]), w)), [a, b]) < 1e-4

    def test_mix_rows_is_the_weighted_sum(self):
        rng = np.random.default_rng(15)
        w = rand(rng, 2, 3)
        rows = rand(rng, 6, 4)
        out = mix_rows(w, rows)
        r3 = rows.data.reshape(2, 3, 4)
        want = np.einsum("bk,bke->be", w.data, r3)
        np.testing.assert_allclose(out.data, want, atol=1e-12)
        assert grad_check(lambda a, b: sum_all(mix_rows(a, b)), [w, rows]) < 1e-4


class TestNumericSurface:
    def test_nan_input_rejected_at_creation(self):
        with pytest.raises(NumericError):
            Tensor([np.nan, 1.0])

    def test_determinism(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        one = matmul(tanh(Tensor(a)), sigmoid(Tensor(b))).data
        two = matmul(tanh(Tensor(a)), sigmoid(Tensor(b))).data
        np.testing.assert_array_equal(one, two)

    def test_mac_counter_counts_matmul(self):
        with MacCounter() as c:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))))
            mul(Tensor(np.ones(4)), Tensor(np.ones(4)))
        assert c.total == 2 * 3 * 5 + 4

    def test_double_precision_default_from_lists(self):
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_single_precision_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float32))
        assert sigmoid(x).dtype == np.float32


class TestRandomOpGradients:
    """Every registered op on random small shapes, per the engine contract."""

    def test_sweep(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            m, k, n = rng.integers(1, 7, size=3)
            a, b = rand(rng, m, k), rand(rng, k, n)
            assert grad_check(lambda x, y: sum_all(matmul(x, y)), [a, b]) < 1e-4
            x, y = rand(rng, m, n), rand(rng, m, n)
            bias = rand(rng, n)
            mask = (rng.uniform(size=(m, n)) < 0.7).astype(float)
            mask[:, 0] = 1.0

            def f(p, q, r):
                s = add(mul(tanh(p), sigmoid(q)), r)
                return sum_all(mul(softmax_masked(s, mask), q))

            assert grad_check(f, [x, y, bias]) < 1e-4
