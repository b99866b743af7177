import numpy as np
import pytest

from amnet.analysis import gru_step_macs
from amnet.gru import (
    GruParams, StackSpec, gru_layer, gru_step, run_bidirectional, run_sequence,
)
from amnet.tensor import (
    ContractError, MacCounter, NumericError, ShapeError, Tape, Tensor, add, grad_check, mul,
    sum_all,
)


def zero_params(d_in, d):
    z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    return GruParams(z(d_in, 3 * d), z(d, 3 * d), z(3 * d))


def random_params(d_in, d, rng):
    return GruParams.create(d_in, d, rng, dtype=np.float64)


def per_gate(p):
    """The cell's arrays split at their gate columns: {"w_z": W_z, ..., "b_h": b_h}."""
    return {f"{name}_{gate}": a for name, t in p.named()
            for gate, a in zip("zrh", np.split(t.data, 3, axis=-1))}


def scalar_loop_gru(x, h, p):
    """Independent per-coordinate reimplementation of the cell equations."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    m = per_gate(p)
    d = h.shape[0]
    z = np.empty(d)
    r = np.empty(d)
    for j in range(d):
        z[j] = sig(x @ m["w_z"][:, j] + h @ m["u_z"][:, j] + m["b_z"][j])
        r[j] = sig(x @ m["w_r"][:, j] + h @ m["u_r"][:, j] + m["b_r"][j])
    h_tilde = np.empty(d)
    for j in range(d):
        h_tilde[j] = np.tanh(x @ m["w_h"][:, j] + (r * h) @ m["u_h"][:, j] + m["b_h"][j])
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
            m = per_gate(p)
            z = 1.0 / (1.0 + np.exp(-(x.data @ m["w_z"] + h.data @ m["u_z"] + m["b_z"])))
            r = 1.0 / (1.0 + np.exp(-(x.data @ m["w_r"] + h.data @ m["u_r"] + m["b_r"])))
            ht = np.tanh(x.data @ m["w_h"] + (r * h.data) @ m["u_h"] + m["b_h"])
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


def solo_runs(x3, h0, spec, lengths, reverse=False):
    """run_sequence over each row's real steps alone, optionally reversed and
    flipped back: (states [B][L_b, d], finals [B, d])."""
    states, finals = [], []
    for b, n in enumerate(lengths):
        steps = x3[b, :n][::-1] if reverse else x3[b, :n]
        s, f = run_sequence(Tensor(steps.copy()), Tensor(h0.data[b:b + 1]), spec)
        states.append(s.data[::-1] if reverse else s.data)
        finals.append(f.data[0])
    return states, np.array(finals)


class TestGruLayer:
    # 3 rows of lengths 4, 2 and 3: a prefix mask, real steps then padding
    MASK = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0]], dtype=float)

    @pytest.mark.parametrize("pair", [False, True])
    def test_gradients_masked_depth2(self, pair):
        rng = np.random.default_rng(13)
        spec = StackSpec([random_params(2, 3, rng), random_params(3, 3, rng)])
        rev = StackSpec([random_params(2, 3, rng), random_params(3, 3, rng)])
        x = Tensor(rng.normal(size=(15, 2)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        h0_rev = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(15, 3)))
        tensors = [x, h0] + [t for _, t in spec.named("s")]
        if pair:  # both directions, each layer one op over the pair of cells
            tensors += [h0_rev] + [t for _, t in rev.named("r")]

        def f(x, h0, *_):
            if pair:
                states, final = run_bidirectional(x, h0, h0_rev, spec, rev, self.MASK)
            else:
                states, final = run_sequence(x, h0, spec, self.MASK)
            return add(sum_all(mul(states, w)), sum_all(mul(final, final)))

        assert grad_check(f, tensors) < 1e-4

    def test_macs_match_closed_form(self):
        # every step of every row is computed: no blend, no skipped step
        rng = np.random.default_rng(14)
        p = random_params(2, 3, rng)
        with MacCounter() as c:
            gru_layer(Tensor(rng.normal(size=(15, 2))), Tensor(np.zeros((3, 3))), p)
        assert c.total == 3 * 5 * gru_step_macs(2, 3)

    def test_one_tape_node_per_layer(self):
        rng = np.random.default_rng(15)
        p = random_params(2, 3, rng)
        with Tape() as tape:
            gru_layer(Tensor(rng.normal(size=(15, 2))), Tensor(np.zeros((3, 3))), p)
        assert len(tape.nodes) == 1

    def test_non_finite_weight_names_the_op(self):
        rng = np.random.default_rng(16)
        p = random_params(2, 3, rng)
        p.u.data[0, 0] = np.inf  # U_z[0, 0]
        with pytest.raises(NumericError, match="gru_layer"):
            gru_layer(Tensor(rng.normal(size=(15, 2))), Tensor(np.ones((3, 3))), p)

    @pytest.mark.parametrize("pair", [False, True])
    def test_padded_inputs_do_not_reach_real_states(self, pair):
        rng = np.random.default_rng(23)
        fwd = StackSpec([GruParams.create(2, 3, rng), GruParams.create(3, 3, rng)])
        bwd = StackSpec([GruParams.create(2, 3, rng), GruParams.create(3, 3, rng)])
        x = rng.normal(size=(15, 2)).astype(np.float32)
        h0 = Tensor(rng.normal(size=(3, 3)).astype(np.float32))
        padded = self.MASK.reshape(-1) == 0
        noisy = x.copy()
        noisy[padded] = rng.normal(size=(int(padded.sum()), 2)) * 100

        def run(inputs):
            if pair:
                return run_bidirectional(Tensor(inputs), h0, h0, fwd, bwd, self.MASK)
            return run_sequence(Tensor(inputs), h0, fwd, self.MASK)

        (s1, f1), (s2, f2) = run(x), run(noisy)
        np.testing.assert_array_equal(s1.data[~padded], s2.data[~padded])
        np.testing.assert_array_equal(f1.data, f2.data)

    def test_float32_outputs_pinned(self):
        # float32 states at the real positions of a ragged batch, pinned bit
        # for bit to the layer whose gates are (1 + tanh(a/2))/2 and whose
        # update is h + z*(h~ - h)
        rng = np.random.default_rng(22)
        spec = StackSpec([GruParams.create(2, 2, rng)])
        x = Tensor(rng.normal(size=(15, 2)).astype(np.float32))
        states, final = run_sequence(x, Tensor(np.zeros((3, 2), np.float32)), spec, self.MASK)
        want = np.array([
            [0.12154816091060638, 0.1553146243095398],
            [-0.2259417027235031, 0.1054970994591713],
            [0.09168209135532379, 0.2606746554374695],
            [-0.31053680181503296, 0.28849196434020996],
            [0.36433419585227966, -0.4464985430240631],
            [0.14288195967674255, -0.08460679650306702],
            [-0.12323369830846786, -0.2883172631263733],
            [-0.12910287082195282, -0.46196413040161133],
            [-0.3169562816619873, -0.3646438717842102],
        ], dtype=np.float32)
        assert states.dtype == np.float32
        np.testing.assert_array_equal(states.data[self.MASK.reshape(-1) == 1], want)
        np.testing.assert_array_equal(final.data, want[[3, 5, 8]])

    def test_ragged_batch_equals_scalar_fold(self):
        rng = np.random.default_rng(26)
        fwd, bwd = StackSpec([random_params(2, 3, rng)]), StackSpec([random_params(2, 3, rng)])
        x3 = rng.normal(size=(3, 5, 2))
        h0f, h0b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        lengths = self.MASK.sum(axis=1).astype(int)

        def fold(spec, h, steps):
            out = []
            for x in steps:
                h = scalar_loop_gru(x, h, spec.layers[0])
                out.append(h)
            return np.array(out)

        f_want = [fold(fwd, h0f[b], x3[b, :n]) for b, n in enumerate(lengths)]
        b_want = [fold(bwd, h0b[b], x3[b, :n][::-1])[::-1] for b, n in enumerate(lengths)]
        real = self.MASK.reshape(-1) == 1
        states, final = run_sequence(steps_tensor(x3), Tensor(h0f), fwd, self.MASK)
        np.testing.assert_allclose(states.data[real], np.concatenate(f_want), rtol=0, atol=1e-10)
        np.testing.assert_allclose(final.data, [f[-1] for f in f_want], rtol=0, atol=1e-10)
        states, final = run_bidirectional(steps_tensor(x3), Tensor(h0f), Tensor(h0b),
                                          fwd, bwd, self.MASK)
        np.testing.assert_allclose(states.data[real], np.concatenate(f_want) + np.concatenate(b_want),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(final.data, [f[-1] + b[0] for f, b in zip(f_want, b_want)],
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [1e4, 1e30])
    def test_saturated_gates_keep_state_or_take_candidate(self, dtype, scale):
        rng = np.random.default_rng(27)
        p = GruParams.create(2, 3, rng, dtype=dtype)
        x = (rng.normal(size=(3, 5, 2)) * scale).astype(dtype)
        states = gru_layer(Tensor(x.reshape(15, 2)), Tensor(np.zeros((3, 3), dtype)), p).data
        assert np.isfinite(states).all()
        # every pre-activation is far past where float64 tanh reaches +-1, so
        # z and r are exactly 0 or 1 and h~ exactly -1 or 1: from h0 = 0 each
        # step keeps the state or takes the candidate, with no rounding
        m = {name: a.astype(np.float64) for name, a in per_gate(p).items()}
        h = np.zeros((3, 3))
        for t in range(5):
            xt = x[:, t].astype(np.float64)
            a_z = xt @ m["w_z"] + h @ m["u_z"] + m["b_z"]
            a_r = xt @ m["w_r"] + h @ m["u_r"] + m["b_r"]
            a_h = xt @ m["w_h"] + ((a_r > 0) * h) @ m["u_h"] + m["b_h"]
            assert min(abs(a_z).min(), abs(a_r).min(), abs(a_h).min()) > 50
            h = np.where(a_z > 0, np.sign(a_h), h)
            np.testing.assert_array_equal(states.reshape(3, 5, 3)[:, t], h)

    @pytest.mark.parametrize("pair", [False, True])
    @pytest.mark.parametrize("mask", [[[1, 0, 1]], [[1, 1, 0.5]]], ids=["hole", "fraction"])
    def test_non_prefix_mask_rejected(self, pair, mask):
        rng = np.random.default_rng(24)
        spec = StackSpec([random_params(2, 3, rng)])
        x, h0 = Tensor(rng.normal(size=(3, 2))), Tensor(np.zeros((1, 3)))
        with pytest.raises(ContractError, match="prefix"):
            if pair:
                run_bidirectional(x, h0, h0, spec, spec, mask)
            else:
                run_sequence(x, h0, spec, mask)


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

    def test_final_is_state_at_last_real_step(self):
        rng = np.random.default_rng(4)
        spec = StackSpec([random_params(3, 3, rng), random_params(3, 3, rng)])
        x = Tensor(rng.normal(size=(12, 3)))
        h0 = Tensor(np.zeros((3, 3)))
        states, final = run_sequence(x, h0, spec, mask=[[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 0, 0]])
        np.testing.assert_array_equal(final.data, states.data[[1, 7, 8]])

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


class TestPairLayer:
    MASK = TestGruLayer.MASK

    def specs(self, depth, rng):
        return [StackSpec([random_params(2 if i == 0 else 3, 3, rng) for i in range(depth)])
                for _ in range(2)]

    @pytest.mark.parametrize("depth", [1, 2])
    def test_equals_forward_plus_reversed_run(self, depth):
        rng = np.random.default_rng(18)
        fwd, bwd = self.specs(depth, rng)
        x3 = rng.normal(size=(3, 5, 2))
        h0f, h0b = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3)))
        states, final = run_bidirectional(steps_tensor(x3), h0f, h0b, fwd, bwd, self.MASK)
        # each row alone over its real steps, forward and reversed
        lengths = self.MASK.sum(axis=1).astype(int)
        f_states, f_final = solo_runs(x3, h0f, fwd, lengths)
        b_states, b_final = solo_runs(x3, h0b, bwd, lengths, reverse=True)
        want = np.concatenate([f + b for f, b in zip(f_states, b_states)])
        real = self.MASK.reshape(-1) == 1
        np.testing.assert_allclose(states.data[real], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final.data, f_final + b_final, rtol=0, atol=1e-12)

    def test_gradients_masked_depth1(self):
        rng = np.random.default_rng(19)
        fwd, bwd = self.specs(1, rng)
        x = Tensor(rng.normal(size=(15, 2)), requires_grad=True)
        h0f = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        h0b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(15, 3)))
        tensors = [x, h0f, h0b] + [t for _, t in fwd.named("f")] + [t for _, t in bwd.named("b")]

        def f(x, h0f, h0b, *_):
            states, final = run_bidirectional(x, h0f, h0b, fwd, bwd, self.MASK)
            return add(sum_all(mul(states, w)), sum_all(mul(final, final)))

        assert grad_check(f, tensors) < 1e-4

    def test_one_tape_node_and_macs_per_direction(self):
        rng = np.random.default_rng(20)
        fwd, bwd = self.specs(1, rng)
        x = rng.normal(size=(15, 2))
        with Tape() as tape, MacCounter() as c:
            # each cell reads its own input columns
            out = gru_layer(Tensor(np.hstack([x, x[::-1]])), Tensor(np.zeros((3, 6))),
                            fwd.layers[0], bwd.layers[0])
        assert len(tape.nodes) == 1 and out.shape == (15, 6)
        with MacCounter() as one:
            gru_layer(Tensor(x), Tensor(np.zeros((3, 3))), fwd.layers[0])
        assert c.total == 2 * one.total

    @pytest.mark.parametrize("depth", [1, 2])
    def test_non_finite_backward_weight_names_the_op(self, depth):
        rng = np.random.default_rng(21)
        fwd, bwd = self.specs(depth, rng)
        bwd.layers[0].u.data[0, 0] = np.inf  # U_z[0, 0]
        h0 = Tensor(np.ones((3, 3)))
        with pytest.raises(NumericError, match="gru_layer"):
            run_bidirectional(Tensor(rng.normal(size=(15, 2))), h0, h0, fwd, bwd, self.MASK)


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
