import numpy as np
import pytest

from amnet.data import EncodedExample, TaskData, Vocabulary, make_batch
from amnet.gru import ConfigError
from amnet.model import ModelConfig, init_params
from amnet.tensor import ContractError, Tensor
from amnet.training import (
    AdamState, AnnealSchedule, TrainConfig, adam_step, clip_gradients,
    evaluate, train, write_log,
)


class TestAdam:
    def test_zero_gradients_leave_params(self):
        p = Tensor(np.ones((3, 3)), requires_grad=True)
        state = AdamState([p])
        before = p.data.copy()
        adam_step([p], [np.zeros((3, 3))], state, lr=0.5)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_minus_lr(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        state = AdamState([p])
        adam_step([p], [np.ones(4)], state, lr=0.5)
        # bias-corrected m_hat = v_hat = 1, so the update is -lr/(1+eps)
        np.testing.assert_allclose(p.data, -0.5, atol=1e-7)

    def test_descends_a_convex_quadratic(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=6)
        p = Tensor(np.zeros(6), requires_grad=True)
        state = AdamState([p])
        losses = []
        for _ in range(100):
            g = 2.0 * (p.data - target)
            losses.append(float(((p.data - target) ** 2).sum()))
            adam_step([p], [g], state, lr=0.1)
        assert all(b < a for a, b in zip(losses[:6], losses[1:7]))
        assert losses[-1] < 1e-4 * losses[0]

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState([p])
        with pytest.raises(ContractError):
            adam_step([p], [np.zeros(4)], state, lr=0.1)


class TestClip:
    def test_below_threshold_unchanged(self):
        g = [np.array([3.0])]
        clip_gradients(g, 5.0)
        np.testing.assert_array_equal(g[0], [3.0])

    def test_analytic_scaling(self):
        g = [np.array([6.0, 8.0])]
        clip_gradients(g, 5.0)
        np.testing.assert_allclose(g[0], [3.0, 4.0])

    def test_returns_global_norm(self):
        assert clip_gradients([np.array([6.0, 8.0])], 5.0) == 10.0
        assert clip_gradients([np.array([3.0])], 5.0) == 3.0

    def test_non_finite_norm_leaves_gradients(self):
        g = [np.array([np.inf, 1.0]), np.array([2.0])]
        assert clip_gradients(g, 5.0) == np.inf
        np.testing.assert_array_equal(g[0], [np.inf, 1.0])
        np.testing.assert_array_equal(g[1], [2.0])

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gs = [rng.normal(size=s) for s in [(3, 4), (7,), (2, 2)]]
            max_norm = float(rng.uniform(0.1, 3.0))
            before = [g.copy() for g in gs]
            clip_gradients(gs, max_norm)
            norm = np.sqrt(sum((g ** 2).sum() for g in gs))
            assert norm <= max_norm + 1e-6
            for b, a in zip(before, gs):
                assert (np.abs(a) <= np.abs(b) + 1e-12).all()

    @pytest.mark.parametrize("max_norm", [0.0, np.nan, np.inf])
    def test_max_norm_must_be_positive_and_finite(self, max_norm):
        with pytest.raises(ConfigError):
            clip_gradients([np.array([6.0, 8.0])], max_norm)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["lr", "max_grad_norm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    def test_lr_and_clip_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_target_val_error_must_lie_in_unit_interval(self, value):
        with pytest.raises(ConfigError, match="target_val_error"):
            TrainConfig(target_val_error=value)

    @pytest.mark.parametrize("value", [None, 0.0, 0.5, 1.0])
    def test_target_val_error_in_unit_interval_accepted(self, value):
        assert TrainConfig(target_val_error=value).target_val_error == value


def anneal(lr, history):
    """Replay the default annealing rule over (train_loss, val_error) evaluations."""
    sched = AnnealSchedule()
    for train_loss, val_error in history:
        lr = sched.update(train_loss, val_error, lr)
    return lr


class TestAnneal:
    def test_improving_val_unchanged(self):
        history = [(1.0, 0.5), (0.8, 0.4), (0.6, 0.3)]
        assert anneal(1.0, history) == 1.0

    def test_three_bad_evaluations_halve_once(self):
        history = [(1.0, 0.5), (1.0, 0.5), (1.0, 0.5), (1.0, 0.5)]
        # evals 2-4 fail to improve the best train loss -> one halving
        assert anneal(1.0, history) == 0.5

    def test_alternating_never_halves(self):
        history = [(1.0, 0.5), (0.9, 0.6), (0.8, 0.5), (0.7, 0.6), (0.6, 0.5), (0.5, 0.6)]
        assert anneal(1.0, history) == 1.0

    def test_streak_resets_after_halving(self):
        sched = AnnealSchedule()
        lr = 1.0
        for i in range(5):
            lr = sched.update(1.0, 0.5, lr)
        # strikes at evals 2,3,4 halve; eval 5 starts a fresh streak
        assert lr == 0.5
        assert sched.streak == 1

    def test_val_rise_counts_as_strike(self):
        history = [(1.0, 0.1), (0.5, 0.2), (0.3, 0.3), (0.1, 0.4)]
        # train improves every time, val rises three times in a row
        assert anneal(1.0, history) == 0.5


def tiny_dataset(n_train=6, n_val=2, vocab_size=12, seed=0):
    rng = np.random.default_rng(seed)

    def example():
        tok = lambda n: rng.integers(4, vocab_size, size=n).tolist()
        story = [tok(3), tok(3)]
        return EncodedExample(story=story, line_numbers=[1, 2],
                              question=tok(2), answer=[story[0][0]], supporting=[0])

    vocab = Vocabulary([f"w{i}" for i in range(vocab_size - 4)])
    train_exs = [example() for _ in range(n_train)]
    val_exs = [example() for _ in range(n_val)]
    return TaskData(vocab, train_exs, val_exs, [], 3, 1)


def tiny_config(vocab_size=12):
    return ModelConfig(size=8, depth=1, memories=1,
                       vocab_size=vocab_size, max_sentence_len=3, max_answer_len=1)


class TestTrainLoop:
    def test_zero_batches_returns_untrained(self):
        data = tiny_dataset()
        cfg = TrainConfig(lr=0.1, batch_size=2, eval_every=4, max_batches=0, seed=3)
        result = train(tiny_config(), cfg, data)
        assert result.log == []
        assert result.batches == 0
        fresh = init_params(tiny_config(), seed=3)
        for (_, a), (_, b) in zip(result.params.named_parameters(),
                                  fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_identical_runs(self):
        outs = []
        for _ in range(2):
            data = tiny_dataset()
            cfg = TrainConfig(lr=0.01, batch_size=2, eval_every=4, max_batches=12, seed=5)
            outs.append(train(tiny_config(), cfg, data))
        a, b = outs
        assert len(a.log) == len(b.log) == 6  # eval every 4/2 = 2 batches
        for ea, eb in zip(a.log, b.log):
            assert (ea.batch, ea.train_loss, ea.val_error, ea.lr) == \
                   (eb.batch, eb.train_loss, eb.val_error, eb.lr)
        for (_, ta), (_, tb) in zip(a.params.named_parameters(),
                                    b.params.named_parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_lr_non_increasing_and_exact_halvings(self):
        data = tiny_dataset()
        cfg = TrainConfig(lr=0.5, batch_size=2, eval_every=2, max_batches=30, seed=7)
        result = train(tiny_config(), cfg, data)
        lrs = [cfg.lr] + [e.lr for e in result.log]
        for prev, cur in zip(lrs, lrs[1:]):
            assert cur <= prev
            assert cur == prev or cur == prev / 2
        assert [e.batch for e in result.log] == sorted({e.batch for e in result.log})

    def test_batch_accounting(self):
        data = tiny_dataset(n_train=8)
        cfg = TrainConfig(lr=0.01, batch_size=2, eval_every=4, max_batches=9, seed=1)
        result = train(tiny_config(), cfg, data)
        assert result.batches == 9
        assert all(e.batch % 2 == 0 for e in result.log)

    def test_target_val_error_stops_early(self):
        # target of 1.0 is met by the very first evaluation
        data = tiny_dataset()
        cfg = TrainConfig(lr=0.01, batch_size=2, eval_every=2, max_batches=50,
                          target_val_error=1.0, seed=2)
        result = train(tiny_config(), cfg, data)
        assert result.batches == 1 * (cfg.eval_every // cfg.batch_size)

    def test_non_finite_loss_aborts_with_diagnostic(self, monkeypatch):
        import amnet.training as T
        from amnet.tensor import NumericError, Tensor

        def poisoned(batch, params, config, **kw):
            loss = Tensor([1.0])
            loss.data = np.array(np.nan)
            return type("R", (), {"loss": loss})()

        monkeypatch.setattr(T, "forward_batch", poisoned)
        data = tiny_dataset()
        cfg = TrainConfig(lr=0.25, batch_size=2, eval_every=4, max_batches=5, seed=0)
        with pytest.raises(NumericError, match=r"batch 1.*lr=0.25"):
            train(tiny_config(), cfg, data)

    def test_non_finite_gradient_aborts_before_adam(self, monkeypatch):
        import amnet.training as T
        from amnet.tensor import NumericError, Tape

        real_backward = Tape.backward
        seen = []

        def poisoned(tape, loss):
            real_backward(tape, loss)
            weight = next(t for node in tape.nodes for t in node.inputs
                          if t.requires_grad and t.grad is not None and t.data.ndim == 2)
            weight.grad[0, 0] = np.inf
            seen.append(weight)

        monkeypatch.setattr(Tape, "backward", poisoned)
        data = tiny_dataset()
        cfg = TrainConfig(lr=0.25, batch_size=2, eval_every=4, max_batches=5, seed=0)
        with pytest.raises(NumericError, match=r"non-finite gradient at batch 1 \(lr=0.25\)"):
            train(tiny_config(), cfg, data)
        assert len(seen) == 1 and np.isfinite(seen[0].data).all()

    def test_write_log_format(self, tmp_path):
        from amnet.training import TrainLogEntry
        path = tmp_path / "log.tsv"
        write_log([TrainLogEntry(20, 1.23456789, 0.52, 0.1, 3.21)], path)
        line = path.read_text().strip().split("\t")
        assert line == ["20", "1.234568", "0.5200", "0.1", "3.210"]


class TestEvaluate:
    def test_vocabulary_mismatch(self):
        data = tiny_dataset(vocab_size=30)
        config = tiny_config(vocab_size=12)
        params = init_params(config, seed=0)
        with pytest.raises(ContractError):
            evaluate(params, config, data.train)

    def test_perfect_predictions_zero_error(self, monkeypatch):
        data = tiny_dataset()
        config = tiny_config()
        params = init_params(config, seed=0)
        import amnet.training as T

        def fake_predict(batch, params, config, want_records=False):
            return [list(e.answer) for e in batch.examples], None

        monkeypatch.setattr(T, "predict_batch", fake_predict)
        assert evaluate(params, config, data.train) == 0.0

    def test_untrained_error_near_one(self):
        data = tiny_dataset(n_train=20)
        config = tiny_config()
        params = init_params(config, seed=0)
        assert evaluate(params, config, data.train) > 0.5
