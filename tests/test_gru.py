import numpy as np
import pytest

from amnet.analysis import gru_step_macs
from amnet.gru import (
    ConfigError, GruParams, StackSpec, apply_dropout, gru_layer, gru_step,
    run_bidirectional, run_sequence,
)
from amnet.tensor import (
    ContractError, MacCounter, NumericError, ShapeError, Tape, Tensor, add, grad_check, mul,
    sum_all,
)


def zero_params(d_in, d):
    z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    return GruParams(z(d_in, d), z(d_in, d), z(d_in, d),
                     z(d, d), z(d, d), z(d, d), z(d), z(d), z(d))


def random_params(d_in, d, rng):
    return GruParams.create(d_in, d, rng, dtype=np.float64)


def scalar_loop_gru(x, h, p):
    """Independent per-coordinate reimplementation of the cell equations."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    d = h.shape[0]
    z = np.empty(d)
    r = np.empty(d)
    for j in range(d):
        z[j] = sig(x @ p.w_z.data[:, j] + h @ p.u_z.data[:, j] + p.b_z.data[j])
        r[j] = sig(x @ p.w_r.data[:, j] + h @ p.u_r.data[:, j] + p.b_r.data[j])
    h_tilde = np.empty(d)
    for j in range(d):
        h_tilde[j] = np.tanh(x @ p.w_h.data[:, j] + (r * h) @ p.u_h.data[:, j] + p.b_h.data[j])
    return (1.0 - z) * h + z * h_tilde


class TestGruStep:
    def test_zero_parameters_halve_state(self):
        p = zero_params(3, 4)
        h_prev = Tensor(np.array([[1.0, -2.0, 0.5, 4.0]]))
        out = gru_step(Tensor(np.ones((1, 3))), h_prev, p)
        # z = r = 0.5 and h~ = 0, so h = 0.5 * h_prev
        np.testing.assert_allclose(out.data, 0.5 * h_prev.data)

    def test_zero_parameters_zero_state(self):
        p = zero_params(3, 4)
        out = gru_step(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 4))), p)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        p = random_params(5, 3, rng)
        x = rng.normal(size=5)
        h = rng.normal(size=3)
        got = gru_step(Tensor(x[None, :]), Tensor(h[None, :]), p).data[0]
        want = scalar_loop_gru(x, h, p)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_dimension_mismatch(self):
        p = zero_params(3, 4)
        with pytest.raises(Exception):
            gru_step(Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))), p)

    def test_row_count_mismatch(self):
        p = zero_params(3, 4)
        with pytest.raises(ShapeError):
            gru_step(Tensor(np.ones((2, 3))), Tensor(np.zeros((1, 4))), p)

    def test_output_is_convex_combination(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_params(4, 6, rng)
            x = Tensor(rng.normal(size=(2, 4)))
            h = Tensor(rng.normal(size=(2, 6)))
            out = gru_step(x, h, p)
            z = 1.0 / (1.0 + np.exp(-(x.data @ p.w_z.data + h.data @ p.u_z.data + p.b_z.data)))
            r = 1.0 / (1.0 + np.exp(-(x.data @ p.w_r.data + h.data @ p.u_r.data + p.b_r.data)))
            ht = np.tanh(x.data @ p.w_h.data + (r * h.data) @ p.u_h.data + p.b_h.data)
            lo = np.minimum(h.data, ht)
            hi = np.maximum(h.data, ht)
            assert (out.data >= lo - 1e-12).all() and (out.data <= hi + 1e-12).all()

    def test_gradients(self):
        rng = np.random.default_rng(2)
        p = random_params(3, 3, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        tensors = [x, h] + [t for _, t in p.named()]

        def f(*ts):
            return sum_all(gru_step(ts[0], ts[1], p))

        assert grad_check(f, tensors) < 1e-4


def steps_tensor(x3):
    """[B, n, d_in] array -> the batch-major [B*n, d_in] sequence tensor."""
    b, n, d_in = x3.shape
    return Tensor(x3.reshape(b * n, d_in))


class TestGruLayer:
    # 3 rows of lengths 4, 2 and 3: step 4 is fully padded, steps 2 and 3
    # are partly padded
    MASK = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0]], dtype=float)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_masked_depth2(self, reverse):
        rng = np.random.default_rng(13)
        spec = StackSpec([random_params(2, 3, rng), random_params(3, 3, rng)])
        x = Tensor(rng.normal(size=(15, 2)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(15, 3)))
        tensors = [x, h0] + [t for _, t in spec.named("s")]

        def f(x, h0, *_):
            states, final = run_sequence(x, h0, spec, self.MASK, reverse=reverse)
            return add(sum_all(mul(states, w)), sum_all(mul(final, final)))

        assert grad_check(f, tensors) < 1e-4

    def test_macs_match_closed_form(self):
        rng = np.random.default_rng(14)
        p = random_params(2, 3, rng)
        with MacCounter() as c:
            gru_layer(Tensor(rng.normal(size=(15, 2))), Tensor(np.zeros((3, 3))), p, self.MASK)
        active, partial = 4, 2
        assert c.total == active * 3 * gru_step_macs(2, 3) + partial * 2 * 3 * 3

    def test_one_tape_node_per_layer(self):
        rng = np.random.default_rng(15)
        p = random_params(2, 3, rng)
        with Tape() as tape:
            gru_layer(Tensor(rng.normal(size=(15, 2))), Tensor(np.zeros((3, 3))), p, self.MASK)
        assert len(tape.nodes) == 1

    def test_non_finite_weight_names_the_op(self):
        rng = np.random.default_rng(16)
        p = random_params(2, 3, rng)
        p.u_z.data[0, 0] = np.inf
        with pytest.raises(NumericError, match="gru_layer"):
            gru_layer(Tensor(rng.normal(size=(15, 2))), Tensor(np.ones((3, 3))), p, self.MASK)


class TestRunSequence:
    def test_single_step_equals_gru_step(self):
        rng = np.random.default_rng(3)
        p = random_params(4, 4, rng)
        spec = StackSpec([p])
        x = Tensor(rng.normal(size=(1, 4)))
        h0 = Tensor(rng.normal(size=(1, 4)))
        states, final = run_sequence(x, h0, spec)
        want = gru_step(x, h0, p).data
        np.testing.assert_array_equal(states.data, want)
        np.testing.assert_array_equal(final.data, want)

    def test_empty_sequence_rejected(self):
        spec = StackSpec([zero_params(2, 2)])
        with pytest.raises(ContractError):
            run_sequence(Tensor(np.zeros((0, 2))), Tensor(np.zeros((1, 2))), spec)

    def test_padding_copies_state_forward(self):
        rng = np.random.default_rng(4)
        p = random_params(3, 3, rng)
        spec = StackSpec([p])
        x = Tensor(rng.normal(size=(3, 3)))
        h0 = Tensor(np.zeros((1, 3)))
        states, final = run_sequence(x, h0, spec, mask=[1, 1, 0])
        np.testing.assert_array_equal(final.data[0], states.data[1])
        np.testing.assert_array_equal(states.data[2], states.data[1])

    def test_equals_explicit_fold(self):
        rng = np.random.default_rng(5)
        p = random_params(2, 5, rng)
        spec = StackSpec([p])
        x3 = rng.normal(size=(3, 4, 2))
        h0 = Tensor(np.zeros((3, 5)))
        states, final = run_sequence(steps_tensor(x3), h0, spec)
        h = h0
        for t in range(4):
            h = gru_step(Tensor(x3[:, t]), h, p)
            np.testing.assert_allclose(states.data.reshape(3, 4, 5)[:, t], h.data, atol=1e-12)
        np.testing.assert_allclose(final.data, h.data, atol=1e-12)

    def test_depth2_equals_manual_composition(self):
        rng = np.random.default_rng(6)
        p1 = random_params(3, 4, rng)
        p2 = random_params(4, 4, rng)
        x = steps_tensor(rng.normal(size=(2, 5, 3)))
        h0 = Tensor(rng.normal(size=(2, 4)))
        states, final = run_sequence(x, h0, StackSpec([p1, p2]))
        inner_states, _ = run_sequence(x, h0, StackSpec([p1]))
        outer_states, outer_final = run_sequence(
            inner_states, Tensor(np.zeros((2, 4))), StackSpec([p2]))
        np.testing.assert_allclose(states.data, outer_states.data, atol=1e-12)
        np.testing.assert_allclose(final.data, outer_final.data, atol=1e-12)

    def test_per_row_masks(self):
        rng = np.random.default_rng(7)
        p = random_params(2, 3, rng)
        spec = StackSpec([p])
        x3 = rng.normal(size=(2, 3, 2))
        mask = np.array([[1, 1, 1], [1, 0, 0]], dtype=float)  # row 1 is length 1
        _, final = run_sequence(steps_tensor(x3), Tensor(np.zeros((2, 3))), spec, mask)
        _, solo = run_sequence(Tensor(x3[1, :1]), Tensor(np.zeros((1, 3))), spec)
        np.testing.assert_allclose(final.data[1], solo.data[0], atol=1e-12)

    def test_gradients_through_sequence(self):
        rng = np.random.default_rng(8)
        p = random_params(3, 3, rng)
        spec = StackSpec([p])
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        h0 = Tensor(np.zeros((1, 3)))
        tensors = [x] + [t for _, t in p.named()]

        def f(x, *_):
            _, final = run_sequence(x, h0, spec, mask=[1, 1, 1, 0])
            return sum_all(final)

        assert grad_check(f, tensors) < 1e-4


class TestBidirectional:
    def test_single_step_is_sum_of_directions(self):
        rng = np.random.default_rng(9)
        pf = random_params(3, 3, rng)
        pb = random_params(3, 3, rng)
        x = Tensor(rng.normal(size=(1, 3)))
        h0f = Tensor(rng.normal(size=(1, 3)))
        h0b = Tensor(rng.normal(size=(1, 3)))
        states, final = run_bidirectional(x, h0f, h0b, StackSpec([pf]), StackSpec([pb]))
        want = gru_step(x, h0f, pf).data + gru_step(x, h0b, pb).data
        np.testing.assert_allclose(states.data, want, atol=1e-12)
        np.testing.assert_allclose(final.data, want, atol=1e-12)

    def test_palindrome_symmetry_with_shared_params(self):
        rng = np.random.default_rng(10)
        p = random_params(2, 4, rng)
        spec = StackSpec([p])
        a, b = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        x = Tensor(np.vstack([a, b, a]))  # palindrome
        h0 = Tensor(np.zeros((1, 4)))
        states, _ = run_bidirectional(x, h0, h0, spec, spec)
        np.testing.assert_allclose(states.data[0], states.data[2], atol=1e-12)

    def test_equals_two_reversed_runs(self):
        rng = np.random.default_rng(11)
        pf = random_params(3, 4, rng)
        pb = random_params(3, 4, rng)
        x3 = rng.normal(size=(2, 5, 3))
        h0f = Tensor(rng.normal(size=(2, 4)))
        h0b = Tensor(rng.normal(size=(2, 4)))
        states, final = run_bidirectional(steps_tensor(x3), h0f, h0b,
                                          StackSpec([pf]), StackSpec([pb]))
        f_states, f_final = run_sequence(steps_tensor(x3), h0f, StackSpec([pf]))
        # the backward direction by hand: reverse the steps, run, flip back
        b_states, b_final = run_sequence(steps_tensor(x3[:, ::-1]), h0b, StackSpec([pb]))
        b_states = b_states.data.reshape(2, 5, 4)[:, ::-1].reshape(10, 4)
        np.testing.assert_allclose(states.data, f_states.data + b_states, atol=1e-12)
        np.testing.assert_allclose(final.data, f_final.data + b_final.data, atol=1e-12)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert apply_dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inference_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert apply_dropout(x, 0.2, training=False) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            apply_dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_survivor_fraction_and_mean(self):
        rng = np.random.default_rng(12)
        x = Tensor(np.ones((400, 250)))  # 1e5 elements
        out = apply_dropout(x, 0.1, training=True, rng=rng)
        survivors = (out.data != 0).mean()
        assert abs(survivors - 0.9) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02
