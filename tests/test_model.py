import dataclasses
import hashlib
import io
import itertools
import struct

import numpy as np
import pytest

import amnet.model as model_module
from amnet.analysis import stack_macs
from amnet.cli import main
from amnet.data import EOS, GO, EncodedExample, Vocabulary, make_batch
from amnet.gru import ConfigError, StackSpec, gru_step, run_bidirectional, run_sequence
from amnet.model import (
    AttentionParams, Checkpoint, CheckpointError, ModelConfig, ModelParams,
    cut_at_eos, decode_greedy, decode_teacher_forced, encode_document, encode_question,
    forward_batch, forward_example, init_params, load_checkpoint, memory_module,
    predict_batch, save_checkpoint,
)
from amnet.tensor import (
    ContractError, MacCounter, MaskError, NumericError, ShapeError, Tape, Tensor, add,
    concat_cols, grad_check, interleave_rows, matmul, mix_rows, mul, repeat_rows, reshape,
    softmax_masked, sum_all, take_rows, tanh,
)


def toy_config(**kw):
    base = dict(size=6, depth=1, memories=1, dropout=0.0, vocab_size=14,
                max_sentence_len=5, max_answer_len=2)
    base.update(kw)
    return ModelConfig(**base)


def toy_example(rng, n_sent=2, sent_len=3, q_len=3, ans_len=1, vocab=14):
    tok = lambda n: rng.integers(4, vocab, size=n).tolist()
    return EncodedExample(
        story=[tok(sent_len) for _ in range(n_sent)],
        line_numbers=list(range(1, n_sent + 1)),
        question=tok(q_len),
        answer=tok(ans_len),
        supporting=[0],
    )


def read_document(batch, params, config):
    """`encode_document` over a batch's word table: (h_que, h_sen, h_final, S)."""
    return encode_document(batch.sentences, batch.word_lengths, batch.sentence_rows,
                           batch.story_lengths, batch.question_rows, params, config)


class TestModelConfig:
    def test_nonzero_dropout_rejected(self):
        with pytest.raises(ConfigError, match="dropout"):
            toy_config(dropout=0.3)


@pytest.fixture
def setup():
    config = toy_config()
    params = init_params(config, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    return config, params, rng


class TestAttend:
    def test_single_state(self, setup):
        config, params, rng = setup
        q = Tensor(rng.normal(size=(1, 6)))
        h = Tensor(rng.normal(size=(1, 6)))
        d, a = attend(q, h, params.memory_attention)
        np.testing.assert_array_equal(a.data, [[1.0]])
        np.testing.assert_allclose(d.data, h.data, atol=1e-12)

    def test_zero_parameters_give_uniform_mean(self, setup):
        config, params, rng = setup
        zeros = lambda *s: Tensor(np.zeros(s))
        att = AttentionParams(zeros(6, 6), zeros(6, 6), zeros(6, 1), zeros(12, 6))
        q = Tensor(rng.normal(size=(1, 6)))
        h = Tensor(rng.normal(size=(4, 6)))
        d, a = attend(q, h, att)
        np.testing.assert_allclose(a.data, np.full((1, 4), 0.25), atol=1e-12)
        np.testing.assert_allclose(d.data[0], h.data.mean(axis=0), atol=1e-12)

    def test_matches_explicit_weighted_sum(self, setup):
        config, params, rng = setup
        att = params.memory_attention
        q = Tensor(rng.normal(size=(1, 6)))
        h = Tensor(rng.normal(size=(5, 6)))
        d, a = attend(q, h, att)
        u = np.array([att.v.data[:, 0] @ np.tanh(att.w1.data.T @ h.data[i] +
                                                 att.w2.data.T @ q.data[0])
                      for i in range(5)])
        e = np.exp(u - u.max())
        want_a = e / e.sum()
        np.testing.assert_allclose(a.data[0], want_a, atol=1e-10)
        want_d = sum(want_a[i] * h.data[i] for i in range(5))
        np.testing.assert_allclose(d.data[0], want_d, atol=1e-10)

    def test_empty_states_rejected(self, setup):
        config, params, rng = setup
        q = Tensor(rng.normal(size=(1, 6)))
        with pytest.raises(ContractError):
            attend(q, Tensor(np.zeros((0, 6))), params.memory_attention)

    def test_batched_rows_sum_to_one_under_mask(self, setup):
        config, params, rng = setup
        q = Tensor(rng.normal(size=(3, 6)))
        h = Tensor(rng.normal(size=(12, 6)))
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
        d, a = attend(q, h, params.memory_attention, mask)
        np.testing.assert_allclose(a.data.sum(axis=1), np.ones(3), atol=1e-6)
        assert (a.data[mask == 0] == 0).all()


class TestAttentiveCellStep:
    def test_projection_selects_context(self, setup):
        config, params, rng = setup
        att = AttentionParams(params.memory_attention.w1, params.memory_attention.w2,
                              params.memory_attention.v,
                              Tensor(np.vstack([np.eye(6), np.zeros((6, 6))])))
        x = Tensor(rng.normal(size=(1, 6)))
        h = Tensor(rng.normal(size=(1, 6)))
        states = Tensor(rng.normal(size=(4, 6)))
        out, _, a, d = attentive_cell_step(x, h, states, params.memory_cell, att)
        np.testing.assert_allclose(out.data, d.data, atol=1e-12)

    def test_projection_selects_candidate(self, setup):
        config, params, rng = setup
        att = AttentionParams(params.memory_attention.w1, params.memory_attention.w2,
                              params.memory_attention.v,
                              Tensor(np.vstack([np.zeros((6, 6)), np.eye(6)])))
        x = Tensor(rng.normal(size=(1, 6)))
        h = Tensor(rng.normal(size=(1, 6)))
        states = Tensor(rng.normal(size=(4, 6)))
        out, _, a, _ = attentive_cell_step(x, h, states, params.memory_cell, att)
        want = gru_step(x, h, params.memory_cell.layers[0])
        np.testing.assert_allclose(out.data, want.data, atol=1e-12)

    def test_equals_manual_composition(self, setup):
        config, params, rng = setup
        att = params.memory_attention
        x = Tensor(rng.normal(size=(1, 6)))
        h = Tensor(rng.normal(size=(1, 6)))
        states = Tensor(rng.normal(size=(3, 6)))
        out, _, a, d = attentive_cell_step(x, h, states, params.memory_cell, att)
        cand = gru_step(x, h, params.memory_cell.layers[0])
        d2, a2 = attend(cand, states, att)
        want = np.concatenate([d2.data, cand.data], axis=1) @ att.proj.data
        np.testing.assert_allclose(out.data, want, atol=1e-12)
        np.testing.assert_allclose(a.data, a2.data, atol=1e-12)


class TestEncoders:
    def test_single_token_question_is_one_gru_step(self, setup):
        config, params, rng = setup
        ids = np.array([[7]])
        h = encode_question(ids, [1], params, config)
        x = take_rows(params.embedding, ids[:, 0])
        want = gru_step(x, Tensor(np.zeros((1, 6))), params.encoder.layers[0])
        np.testing.assert_allclose(h.data, want.data, atol=1e-12)

    def test_identical_questions_identical_states(self, setup):
        config, params, rng = setup
        ids = np.array([[5, 6, 7]])
        a = encode_question(ids, [3], params, config)
        b = encode_question(ids, [3], params, config)
        np.testing.assert_array_equal(a.data, b.data)

    def test_weight_tying_question_equals_sentence_encoding(self, setup):
        config, params, rng = setup
        tokens = np.array([4, 9, 11])
        h_que = encode_question(tokens[None, :], [3], params, config)
        x = take_rows(params.embedding, tokens)
        _, sent_vec = run_sequence(x, Tensor(np.zeros((1, 6))), params.encoder)
        np.testing.assert_allclose(h_que.data, sent_vec.data, atol=1e-12)

    def test_mutating_tied_weights_moves_both_paths(self, setup):
        config, params, rng = setup
        ids = np.array([[5, 6]])
        before = encode_question(ids, None, params, config).data.copy()
        params.encoder.layers[0].w.data[:, :config.size] += 0.05  # W_z
        after = encode_question(ids, None, params, config).data
        assert not np.allclose(before, after)
        # the same parameter object is observed through the document path
        ex = EncodedExample(story=[[5, 6]], line_numbers=[1], question=[5],
                            answer=[4], supporting=[0])
        batch = make_batch([ex])
        h_que, h_sen, _, _ = read_document(batch, params, config)
        assert h_sen.data.shape == (1, 6)

    def test_word_permutation_changes_only_its_sentence_row(self, setup):
        config, params, rng = setup
        sents = [[4, 5, 6], [7, 8, 9], [10, 11, 12]]

        def word_vectors(sentences):
            rows = []
            for sent in sentences:
                x = take_rows(params.embedding, np.array(sent))
                _, final = run_sequence(x, Tensor(np.zeros((1, 6))), params.encoder)
                rows.append(final.data[0])
            return np.stack(rows)

        base = word_vectors(sents)
        permuted = word_vectors([sents[0], [9, 7, 8], sents[2]])
        np.testing.assert_array_equal(base[0], permuted[0])
        np.testing.assert_array_equal(base[2], permuted[2])
        assert not np.allclose(base[1], permuted[1])

    def test_document_matches_manual_pipeline(self, setup):
        config, params, rng = setup
        ex = toy_example(rng, n_sent=3, sent_len=4)
        batch = make_batch([ex])
        h_que, h_sen, h_final, s = read_document(batch, params, config)
        # manual: word-level per sentence, then bidirectional over the vectors
        sent_vecs = []
        for sent in ex.story:
            x = take_rows(params.embedding, np.array(sent))
            _, final = run_sequence(x, Tensor(np.zeros((1, 6))), params.encoder)
            sent_vecs.append(final.data[0])
        states, final = run_bidirectional(Tensor(np.vstack(sent_vecs)), h_que, h_que,
                                          params.sentence_fwd, params.sentence_bwd)
        np.testing.assert_allclose(h_sen.data, states.data, atol=1e-12)
        np.testing.assert_allclose(h_final.data, final.data, atol=1e-12)

    def test_single_sentence_document(self, setup):
        config, params, rng = setup
        ex = toy_example(rng, n_sent=1)
        batch = make_batch([ex])
        h_que, h_sen, h_final, s = read_document(batch, params, config)
        assert h_sen.shape == (1, 6) and s == 1

    def test_empty_inputs_rejected(self, setup):
        config, params, rng = setup
        with pytest.raises(ContractError):
            encode_question(np.zeros((1, 0), dtype=int), None, params, config)
        with pytest.raises(ContractError):
            encode_document(np.zeros((0, 3), dtype=int), None, np.zeros((1, 0), dtype=int),
                            None, [0], params, config)
        # an empty question is the table's all-PAD row: refused, not read
        empty = EncodedExample(story=[[5, 6]], line_numbers=[1], question=[], answer=[4],
                               supporting=[0])
        with pytest.raises(ContractError, match="question"):
            forward_batch(make_batch([empty, toy_example(rng)]), params, config)


class TestMemoryModule:
    def run_modules(self, setup, n_sent=3, m=1):
        _, params, rng = setup
        config = toy_config(memories=m)
        ex = toy_example(rng, n_sent=n_sent)
        batch = make_batch([ex])
        h_que, h_sen, h_final, _ = read_document(batch, params, config)
        out = memory_module(h_que, h_sen, batch.story_lengths, h_final, params, config)
        return out, h_que, h_sen, h_final, batch

    def test_single_sentence_weight_is_one(self, setup):
        (memories, weights, _), *_ = self.run_modules(setup, n_sent=1, m=1)
        np.testing.assert_array_equal(weights, [[[1.0]]])

    def test_rows_sum_to_one(self, setup):
        (memories, weights, _), *_ = self.run_modules(setup, n_sent=4, m=3)
        assert weights.shape == (3, 1, 4)
        np.testing.assert_allclose(weights.sum(axis=2), np.ones((3, 1)), atol=1e-6)

    def test_first_memory_starts_from_document_state(self, setup):
        config, params, rng = setup
        (memories, weights, _), h_que, h_sen, h_final, batch = \
            self.run_modules(setup, n_sent=3, m=1)
        out, _, a, _ = attentive_cell_step(
            h_que, h_final, h_sen, params.memory_cell,
            params.memory_attention, batch.sentence_mask, 3)
        assert memories.shape == (1, 6)
        np.testing.assert_allclose(memories.data, out.data, atol=1e-12)
        np.testing.assert_allclose(weights[0], a.data, atol=1e-12)

    def test_second_memory_is_one_more_attentive_step(self, setup):
        config, params, rng = setup
        (memories, weights, _), h_que, h_sen, h_final, batch = \
            self.run_modules(setup, n_sent=3, m=2)
        out, _, a, _ = attentive_cell_step(
            h_que, Tensor(memories.data[:1]), h_sen, params.memory_cell,
            params.memory_attention, batch.sentence_mask, 3)
        np.testing.assert_allclose(memories.data[1:], out.data, atol=1e-12)
        np.testing.assert_allclose(weights[1], a.data, atol=1e-12)

    def test_zero_memories_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(memories=0)


class TestDecoder:
    def prepare(self, setup, m=1, ans=(5,)):
        config, params, rng = setup
        config = toy_config(memories=m)
        ex = toy_example(rng)
        ex.answer = list(ans)
        batch = make_batch([ex])
        h_que, h_sen, h_final, _ = read_document(batch, params, config)
        memories, _, _ = memory_module(h_que, h_sen, batch.story_lengths,
                                       h_final, params, config)
        return config, params, batch, memories

    def test_single_memory_attention_is_one(self, setup):
        config, params, batch, memories = self.prepare(setup, m=1)
        logits, weights = decode_teacher_forced(memories, batch.answer, params)
        np.testing.assert_array_equal(weights, np.ones((2, 1, 1)))

    def test_single_token_answer_two_steps(self, setup):
        config, params, batch, memories = self.prepare(setup, ans=(5,))
        logits, weights = decode_teacher_forced(memories, batch.answer, params)
        assert logits.shape == (2, 14) and weights.shape == (2, 1, 1)  # token then EOS

    def test_teacher_forced_without_targets_rejected(self, setup):
        config, params, batch, memories = self.prepare(setup)
        with pytest.raises(ContractError):
            decode_teacher_forced(memories, None, params)

    def test_greedy_matches_stepwise_argmax(self, setup):
        config, params, batch, memories = self.prepare(setup, m=2)
        tokens, _ = decode_greedy(memories, params, config)
        # re-run manually, one argmax at a time
        hs = [Tensor(memories.data[-1:])]
        prev = np.array([GO])
        out_ids = []
        for _ in range(config.max_answer_len + 1):
            x = take_rows(params.embedding, prev)
            out, hs, a, _ = attentive_cell_step(x, hs, memories, params.decoder_cell,
                                                params.decoder_attention, None, 2)
            ids = (out.data @ params.out_w.data + params.out_b.data).argmax(axis=1)
            out_ids.append(int(ids[0]))
            if ids[0] == EOS:
                break
            prev = ids
        assert tokens[0].tolist()[:len(out_ids)] == out_ids

    def test_decoder_initial_state_is_last_memory(self, setup):
        config, params, batch, memories = self.prepare(setup, m=2)
        logits, weights = decode_teacher_forced(memories, batch.answer, params)
        x = take_rows(params.embedding, np.array([GO]))
        out, _, a, _ = attentive_cell_step(x, Tensor(memories.data[-1:]), memories,
                                           params.decoder_cell,
                                           params.decoder_attention, None, 2)
        want = out.data @ params.out_w.data + params.out_b.data
        np.testing.assert_allclose(logits.data[:1], want, atol=1e-12)  # row 0: step 0

    def test_cut_at_eos(self):
        rows = np.array([[5, EOS, 7], [4, 5, 6], [EOS, 0, 0], [6, EOS, EOS]])
        assert cut_at_eos(rows) == [[5], [4, 5, 6], [], [6]]
        assert cut_at_eos(np.array([[EOS], [4]])) == [[], [4]]  # a single column

    def test_cut_at_eos_equals_per_row_search(self):
        rows = np.random.default_rng(0).integers(0, 6, size=(200, 4))
        want = [list(r[:list(r).index(EOS)]) if EOS in r else list(r) for r in rows]
        assert cut_at_eos(rows) == want


def attend(query: Tensor, states: Tensor, params: AttentionParams,
           mask=None, k: int | None = None):
    """Additive attention of ``query`` [B, e] over ``states`` [B*k, e], as
    composed tape ops: the reference for the attention inside
    `memory_module` and `_decoder_layer`, which compute the same values.

    Returns (context [B, e], weights [B, k]). ``mask`` ([B, k]) hides
    padded states; with B=1 this is plain attention over k state rows.
    """
    b = query.shape[0]
    rows = states.shape[0]
    if k is None:
        if rows == 0 or rows % b:
            raise ContractError(f"cannot split {rows} states into {b} groups")
        k = rows // b
    if k < 1:
        raise ContractError("attend needs at least one state")
    if rows != b * k:
        raise ShapeError(f"{rows} state rows do not match batch {b} x k {k}")
    scores = matmul(states, params.w1)
    qpart = repeat_rows(matmul(query, params.w2), k)
    u = matmul(tanh(add(scores, qpart)), params.v)
    weights = softmax_masked(reshape(u, (b, k)),
                             np.ones((b, k)) if mask is None else mask)
    return mix_rows(weights, states), weights


def attentive_cell_step(x: Tensor, h_prev, states: Tensor, cell: StackSpec,
                        att: AttentionParams, mask=None, k: int | None = None):
    """One attentive recurrent step: candidate = gru(x, h); attend with the
    candidate as query; output = proj(context || candidate). Composed tape
    ops: the reference for a step of `memory_module` and `_decoder_layer`.

    ``h_prev`` is a [B, e] tensor (depth 1) or a per-layer list. Returns
    (output, new_states, weights, context); the output replaces the top
    layer's carried state.
    """
    hs = [h_prev] if isinstance(h_prev, Tensor) else list(h_prev)
    if len(hs) != cell.depth:
        raise ShapeError(f"{len(hs)} states for a depth-{cell.depth} cell")
    new_hs: list[Tensor] = []
    inp = x
    for layer, h in zip(cell.layers, hs):
        inp = gru_step(inp, h, layer)
        new_hs.append(inp)
    candidate = new_hs[-1]
    context, weights = attend(candidate, states, att, mask, k)
    out = matmul(concat_cols(context, candidate), att.proj)
    new_hs[-1] = out
    return out, new_hs, weights, context


def composed_memory(h_que, h_sen, lengths, h_final, params, config):
    """The memory module as composed tape ops, one `attentive_cell_step` per
    step; returns per step (memories, weights, contexts), the [B, e] and
    [B, k] tensors that `memory_module` returns stacked."""
    hs = [h_final] + [Tensor(np.zeros_like(h_final.data)) for _ in range(config.depth - 1)]
    k = h_sen.shape[0] // h_que.shape[0]
    mask = None if lengths is None else (np.arange(k) < np.asarray(lengths)[:, None]).astype(float)
    memories, weights, contexts = [], [], []
    for _ in range(config.memories):
        out, hs, w, context = attentive_cell_step(h_que, hs, h_sen, params.memory_cell,
                                                  params.memory_attention, mask, k)
        memories.append(out)
        weights.append(w)
        contexts.append(context)
    return memories, weights, contexts


def composed_decoder(memories, targets, params, depth):
    """Teacher-forced decoding as composed tape ops over the memories
    [B*m, e]; returns the logits per step, [B, V] each."""
    b = len(targets)
    m = memories.shape[0] // b
    last = take_rows(memories, np.arange(b) * m + m - 1)
    hs = [last] + [Tensor(np.zeros_like(last.data)) for _ in range(depth - 1)]
    prev, logits = np.full(b, GO), []
    for t in range(targets.shape[1]):
        x = take_rows(params.embedding, prev)
        out, hs, _, _ = attentive_cell_step(x, hs, memories, params.decoder_cell,
                                            params.decoder_attention, None, m)
        logits.append(add(matmul(out, params.out_w), params.out_b))
        prev = targets[:, t]
    return logits


def weighted_loss(tensor, weights):
    return sum_all(mul(tensor, Tensor(weights)))


def attentive_case(depth, m, b, steps, seed=0, dtype=np.float64):
    """Parameters, question, sentence states (padded when B > 1) and their
    lengths, targets and loss weights for the attentive-op tests, float64
    unless ``dtype``."""
    config = toy_config(size=5, depth=depth, memories=m, vocab_size=9)
    params = init_params(config, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    k = 4
    state = lambda rows: Tensor(rng.normal(size=(rows, 5)).astype(dtype), requires_grad=True)
    h_que, h_sen, h_final = state(b), state(b * k), state(b)
    lengths = np.array([k, 2, 1][:b])
    targets = rng.integers(0, 9, size=(b, steps))
    weights = rng.normal(size=(b * m, 5)), rng.normal(size=(b * steps, 9))
    return config, params, (h_que, h_sen, lengths, h_final), targets, weights


class TestAttentiveOps:
    """`memory_module` and the decoder against the composed-op reference."""

    @pytest.mark.parametrize("depth, m, b, steps", [
        (1, 1, 1, 1), (1, 3, 3, 2), (2, 1, 3, 3), (2, 3, 1, 3), (2, 3, 3, 1)])
    def test_equal_to_composed_ops(self, depth, m, b, steps):
        config, params, states, targets, (mw, lw) = attentive_case(depth, m, b, steps)
        h_que, h_sen, _, h_final = states
        inputs = [h_que, h_sen, h_final] + params.tensors()

        def composed():
            memories = interleave_rows(composed_memory(*states, params, config)[0])
            return memories, interleave_rows(composed_decoder(memories, targets, params, depth))

        def fused():
            memories = memory_module(*states, params, config)[0]
            return memories, decode_teacher_forced(memories, targets, params)[0]

        results = []
        for run in (composed, fused):
            for t in inputs:
                t.grad = None
            with Tape() as tape:
                memories, logits = run()
                loss = add(weighted_loss(memories, mw), weighted_loss(logits, lw))
            tape.backward(loss)
            results.append((loss.item(), [None if t.grad is None else t.grad.copy()
                                          for t in inputs]))
        (want, want_grads), (got, got_grads) = results
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        for a, g in zip(want_grads, got_grads):
            assert (a is None) == (g is None)
            if a is not None:
                np.testing.assert_allclose(g, a, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("depth, m, b, steps",
                             itertools.product((1, 2), (1, 3), (1, 3), (1, 3)))
    def test_float32_forward_equals_composed_ops_bit_for_bit(self, depth, m, b, steps):
        config, params, states, targets, _ = attentive_case(depth, m, b, steps, seed=m + b,
                                                            dtype=np.float32)
        memories, weights, contexts = memory_module(*states, params, config)
        logits = decode_teacher_forced(memories, targets, params)[0]
        want_memories, want_weights, want_contexts = composed_memory(*states, params, config)
        want_logits = composed_decoder(memories, targets, params, depth)
        step_major = lambda ts: np.stack([t.data for t in ts])
        for got, want in [
                (memories.data, interleave_rows(want_memories).data),
                (weights, step_major(want_weights)),
                (contexts, step_major(want_contexts)),
                (logits.data.reshape(b, steps, 9), step_major(want_logits).transpose(1, 0, 2))]:
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("depth, m, b", itertools.product((1, 2), (1, 3), (1, 3)))
    def test_memory_layer_grad_check(self, depth, m, b):
        config, params, (h_que, h_sen, lengths, h_final), _, (mw, _) = \
            attentive_case(depth, m, b, 1, seed=depth + m + b)
        tensors = [h_que, h_sen, h_final] + [t for name, t in params.named_parameters()
                                             if name.startswith("memory")]
        err = grad_check(lambda *_: weighted_loss(memory_module(
            h_que, h_sen, lengths, h_final, params, config)[0], mw), tensors)
        assert err < 1e-4

    @pytest.mark.parametrize("depth, m, b, steps",
                             itertools.product((1, 2), (1, 3), (1, 3), (1, 2, 3)))
    def test_decoder_layer_grad_check(self, depth, m, b, steps):
        config, params, _, targets, (_, lw) = attentive_case(depth, m, b, steps, seed=depth + m)
        rng = np.random.default_rng(steps)
        memories = Tensor(rng.normal(size=(b * m, 5)), requires_grad=True)
        tensors = [memories, params.embedding, params.out_w, params.out_b] + [
            t for name, t in params.named_parameters() if name.startswith("decoder")]
        err = grad_check(lambda *_: weighted_loss(
            decode_teacher_forced(memories, targets, params)[0], lw), tensors)
        assert err < 1e-4

    def test_each_op_records_one_node(self, setup):
        _, params, rng = setup
        config = toy_config(memories=3)
        batch = make_batch([toy_example(rng, n_sent=4, ans_len=2)])
        h_que, h_sen, h_final, _ = read_document(batch, params, config)
        with Tape() as tape:
            memories, _, _ = memory_module(h_que, h_sen, batch.story_lengths, h_final,
                                           params, config)
            assert len(tape.nodes) == 1 and tape.nodes[0].output is memories
            assert memories.shape == (3, 6)  # B=1 x 3 memories
            logits, _ = decode_teacher_forced(memories, batch.answer, params)
        assert len(tape.nodes) == 2 and tape.nodes[1].output is logits
        assert logits.shape == (3, 14)  # B=1 x 3 answer positions

    def test_task1_shaped_batch_records_16_nodes(self):
        # document 10 (one word-level read of statements and questions, with
        # the question gather), memory 1, decoder 1, loss 4 (one pass over all positions)
        config = toy_config(size=32, memories=1, vocab_size=14, max_answer_len=1)
        params = init_params(config, seed=0)
        rng = np.random.default_rng(5)
        batch = make_batch([toy_example(rng, n_sent=n, sent_len=6, q_len=3, ans_len=1)
                            for n in (2, 7, 4, 10, 5)])
        with Tape() as tape:
            forward_batch(batch, params, config, training=True)
        assert len(tape.nodes) == 16

    def test_story_row_without_live_state_rejected(self, setup):
        config, params, rng = setup
        h_que = Tensor(rng.normal(size=(2, 6)))
        h_sen = Tensor(rng.normal(size=(6, 6)))
        with pytest.raises(MaskError):  # a story of no statements
            memory_module(h_que, h_sen, np.array([2, 0]), h_que, params, config)
        with pytest.raises(MaskError):  # more statements than the 3 states
            memory_module(h_que, h_sen, np.array([2, 4]), h_que, params, config)
        with pytest.raises(ShapeError):
            memory_module(h_que, h_sen, np.ones((2, 2)), h_que, params, config)

    def test_non_finite_pre_activation_names_the_op(self, setup):
        config, params, rng = setup
        batch = make_batch([toy_example(rng, n_sent=3)])
        h_que, h_sen, h_final, _ = read_document(batch, params, config)
        params.memory_attention.w1.data[0, 0] = np.inf
        with pytest.raises(NumericError, match="memory_layer"):
            memory_module(h_que, h_sen, batch.story_lengths, h_final, params, config)
        params.decoder_cell.layers[0].b.data[0] = np.inf
        with pytest.raises(NumericError, match="decoder_layer"):
            decode_greedy(h_final, params, config)


class TestForward:
    def test_loss_nonnegative_and_records_normalized(self, setup):
        config, params, rng = setup
        ex = toy_example(rng, n_sent=3)
        loss, prediction, record = forward_example(ex, params, config)
        assert loss.item() >= 0.0
        np.testing.assert_allclose(record.memory_attention.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(record.decoder_attention.sum(axis=1), 1.0, atol=1e-6)
        assert record.memory_attention.shape == (1, 3)

    def test_untrained_loss_near_log_vocab(self):
        config = toy_config(vocab_size=20, size=8)
        params = init_params(config, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        losses = []
        for _ in range(10):
            ex = toy_example(rng, vocab=20)
            loss, _, _ = forward_example(ex, params, config)
            losses.append(loss.item())
        assert abs(np.mean(losses) - np.log(20)) < 0.5

    def test_repeated_forward_is_deterministic(self, setup):
        config, params, rng = setup
        ex = toy_example(rng)
        a = forward_example(ex, params, config)
        b = forward_example(ex, params, config)
        assert a[0].item() == b[0].item()
        assert a[1] == b[1]
        np.testing.assert_array_equal(a[2].memory_attention, b[2].memory_attention)

    def test_padding_neutrality(self, setup):
        config, params, rng = setup
        ex = toy_example(rng, n_sent=2, sent_len=3)
        plain = forward_batch(make_batch([ex]), params, config).loss.item()
        # pad the same example inside a batch with a larger one
        big = toy_example(rng, n_sent=4, sent_len=5, q_len=4, ans_len=2)
        batch = make_batch([ex, big])
        assert batch.story.shape == (2, 4, 5)
        h_que, h_sen, h_final, _ = read_document(batch, params, config)
        memories, _, _ = memory_module(h_que, h_sen, batch.story_lengths,
                                       h_final, params, config)
        logits, _ = decode_teacher_forced(memories, batch.answer, params)
        total = 0.0
        for t, row in enumerate(logits.data.reshape(2, -1, 14)[0]):  # example 0's steps
            if t < batch.answer_lengths[0]:
                shifted = row - row.max()
                total += np.log(np.exp(shifted).sum()) - shifted[batch.answer[0, t]]
        padded = total / batch.answer_lengths[0]
        assert abs(padded - plain) < 1e-6

    def test_parameter_count_closed_form(self):
        config = toy_config(size=32, depth=1, memories=1, vocab_size=23)
        params = init_params(config, seed=0)
        e, v = 32, 23
        gru = 3 * (e * e + e * e + e)
        attn = e * e + e * e + e + 2 * e * e
        want = v * e + 5 * gru + 2 * attn + e * v + v
        got = sum(t.size for _, t in params.named_parameters())
        assert got == want

    def test_out_of_vocabulary_at_training_time(self, setup):
        from amnet.data import DataError
        config, params, rng = setup
        ex = toy_example(rng)
        ex.answer = [config.vocab_size + 3]
        with pytest.raises(DataError):
            forward_batch(make_batch([ex]), params, config, training=True)

    def test_batch_equals_mean_of_examples(self, setup):
        config, params, rng = setup
        exs = [toy_example(rng, n_sent=2, sent_len=3, ans_len=1) for _ in range(3)]
        batch = make_batch(exs)
        batch_loss = forward_batch(batch, params, config).loss.item()
        pieces = [forward_batch(make_batch([e]), params, config) for e in exs]
        total = sum(p.loss.item() * p.n_positions for p in pieces)
        want = total / sum(p.n_positions for p in pieces)
        assert abs(batch_loss - want) < 1e-9


def shared_batch():
    """Two stories sharing sentences, the first padded by two slots."""
    a, b, c = [4, 5, 6], [7, 8], [9, 10, 11]
    exs = [EncodedExample(story=[a, b], line_numbers=[1, 2], question=[12, 4],
                          answer=[6], supporting=[0]),
           EncodedExample(story=[b, c, a, b], line_numbers=[1, 2, 3, 4],
                          question=[13, 7, 9], answer=[8, 10], supporting=[1])]
    return make_batch(exs)


def unshared(batch):
    """The same batch with one table row per story slot, then one per question."""
    b, s, lw = batch.story.shape
    rows = np.concatenate([batch.sentence_rows.reshape(b * s), batch.question_rows])
    return dataclasses.replace(
        batch, sentences=batch.sentences[rows], word_lengths=batch.word_lengths[rows],
        sentence_rows=np.arange(b * s).reshape(b, s), question_rows=b * s + np.arange(b))


class TestSharedSentences:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_shared_rows_equal_per_slot_rows(self, depth):
        config = toy_config(depth=depth, memories=2)
        params = init_params(config, seed=3, dtype=np.float64)
        batch = shared_batch()
        assert len(batch.sentences) == 6  # three sentences, the all-PAD row, two questions
        results = []
        for bt in (batch, unshared(batch)):
            for t in params.tensors():
                t.grad = None
            with Tape() as tape:
                loss = forward_batch(bt, params, config).loss
            tape.backward(loss)
            predictions, records = predict_batch(bt, params, config, want_records=True)
            results.append((loss.item(), [t.grad.copy() for t in params.tensors()],
                            predictions, records))
        (loss_a, grads_a, pred_a, rec_a), (loss_b, grads_b, pred_b, rec_b) = results
        assert abs(loss_a - loss_b) <= 1e-12
        for ga, gb in zip(grads_a, grads_b):
            np.testing.assert_allclose(ga, gb, rtol=0, atol=1e-12)
        assert pred_a == pred_b
        for ra, rb in zip(rec_a, rec_b):
            np.testing.assert_array_equal(ra.memory_attention, rb.memory_attention)

    def test_gradient_through_a_shared_row(self):
        config = toy_config(size=5)
        params = init_params(config, seed=0, dtype=np.float64)
        batch = shared_batch()
        tensors = [params.embedding] + [t for _, t in params.encoder.named("encoder")]
        err = grad_check(lambda *ts: forward_batch(batch, params, config).loss, tensors,
                         epsilon=1e-4)
        assert err < 1e-4

    def test_identical_sentences_cost_one_row(self, setup):
        config, params, rng = setup
        sent = np.array([[4, 9, 11, 6]])  # asked as the question too
        with MacCounter() as shared:
            encode_document(sent, None, np.zeros((1, 4), dtype=int), None, [0], params, config)
        with MacCounter() as per_slot:
            encode_document(np.repeat(sent, 5, axis=0), None, np.arange(4), None, [4],
                            params, config)
        with MacCounter() as one_row:
            encode_question(sent, None, params, config)
        assert one_row.total == 4 * stack_macs(6, 6, 1)
        assert per_slot.total - shared.total == 4 * one_row.total


def shared_question_batch(b, seed, vocab=20):
    """B examples of 2-4 statements whose questions repeat (every third
    example asks the first example's question list)."""
    rng = np.random.default_rng(seed)
    exs = [toy_example(rng, n_sent=int(rng.integers(2, 5)), sent_len=int(rng.integers(3, 7)),
                       q_len=int(rng.integers(2, 6)), vocab=vocab) for _ in range(b)]
    for ex in exs[3::3]:
        ex.question = exs[0].question
    return make_batch(exs)


class TestQuestionRows:
    """The question is a row of the batch's word table, read with the statements."""

    @pytest.mark.parametrize("depth, b", itertools.product((1, 2), (1, 7, 50)))
    def test_h_que_equals_encode_question_bit_for_bit(self, depth, b):
        config = toy_config(size=32, depth=depth, vocab_size=20)
        params = init_params(config, seed=depth + b)
        batch = shared_question_batch(b, seed=b)
        h_que, *_ = read_document(batch, params, config)
        q = batch.question_rows
        want = encode_question(batch.sentences[q], batch.word_lengths[q], params, config)
        assert h_que.data.dtype == want.data.dtype == np.float32
        np.testing.assert_array_equal(h_que.data, want.data)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_one_word_level_read_per_batch(self, depth, monkeypatch):
        import amnet.gru

        config = toy_config(depth=depth)
        params = init_params(config, seed=0)
        batch = shared_question_batch(7, seed=1, vocab=14)
        calls, inside = [], []

        def sequence(*args, **kwargs):
            inside.append(True)
            try:
                return real_sequence(*args, **kwargs)
            finally:
                inside.pop()

        def layer(x, h0, p, rev=None):
            calls.append((bool(inside), x.shape[0]))
            return real_layer(x, h0, p, rev)

        def no_question_read(*args, **kwargs):
            raise AssertionError("forward_batch read the questions apart")

        real_sequence, real_layer = model_module.run_sequence, amnet.gru.gru_layer
        monkeypatch.setattr(model_module, "run_sequence", sequence)
        monkeypatch.setattr(amnet.gru, "gru_layer", layer)
        monkeypatch.setattr(model_module, "encode_question", no_question_read)
        forward_batch(batch, params, config)
        word_level = [rows for inner, rows in calls if inner]
        # one call per encoder layer, over every row of the table at once
        assert word_level == [batch.sentences.size] * depth
        assert len(calls) == 2 * depth  # and the sentence-level pair

    def test_gradient_through_a_shared_question_row(self):
        config = toy_config(size=5, memories=2)
        params = init_params(config, seed=4, dtype=np.float64)
        batch = shared_question_batch(4, seed=2, vocab=14)
        assert batch.question_rows[0] == batch.question_rows[3]
        tensors = [params.embedding] + [t for _, t in params.encoder.named("encoder")]
        err = grad_check(lambda *ts: forward_batch(batch, params, config).loss, tensors,
                         epsilon=1e-4)
        assert err < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_identical(self, setup, tmp_path):
        config = toy_config()
        params = init_params(config, seed=7, dtype=np.float32)
        vocab = Vocabulary([f"w{i}" for i in range(10)])
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path, vocab)
        ckpt = load_checkpoint(path)
        assert ckpt.config == config
        assert ckpt.vocab.id_to_token == vocab.id_to_token
        for (name, a), (_, b) in zip(params.named_parameters(),
                                     ckpt.params.named_parameters()):
            assert a.data.dtype == b.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_builds_the_file_arrays_without_a_random_model(self, tmp_path, monkeypatch):
        config = toy_config(depth=2)
        params = init_params(config, seed=7)
        path, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
        save_checkpoint(params, config, path)
        monkeypatch.setattr(model_module, "init_params", None)  # load must not call it
        loaded = load_checkpoint(path).params
        for (name, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
            assert b.data.tobytes() == a.data.tobytes() and b.data.dtype == np.float32, name
            assert b.requires_grad and b.data.flags.writeable and b.data.flags.c_contiguous
        save_checkpoint(loaded, config, again)
        assert again.read_bytes() == path.read_bytes()

    def test_corrupted_magic(self, setup, tmp_path):
        config = toy_config()
        params = init_params(config, seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file(self, setup, tmp_path):
        config = toy_config()
        params = init_params(config, seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", ["oversized-dims", "oversized-config"])
    def test_untrusted_header_never_sizes_a_read(self, tmp_path, monkeypatch, corrupt):
        config = toy_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(config, seed=7), config, path,
                        Vocabulary([f"w{i}" for i in range(10)]))
        raw = bytearray(path.read_bytes())
        if corrupt == "oversized-dims":
            # after the name: rank u8, then dims (14, 6) as u32; make it (14, 10**9)
            at = raw.index(b"embedding") + len(b"embedding") + 1 + 4
            raw[at:at + 4] = struct.pack("<I", 10**9)
        else:
            at = raw.index(b"size=6") - 4  # the line's u32 length prefix
            line = b"size=100000"
            raw[at:at + 10] = struct.pack("<I", len(line)) + line
        path.write_bytes(raw)
        sizes = []
        read = model_module._read_exact
        monkeypatch.setattr(model_module, "_read_exact",
                            lambda fh, n, what: sizes.append(n) or read(fh, n, what))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert 0 < max(sizes) <= len(raw)
        argv = ["eval", "--model", str(path), "--data-dir", str(tmp_path), "--task", "1"]
        assert main(argv) == 2
        assert max(sizes) <= len(raw)

    def test_non_finite_array_refused(self, tmp_path, monkeypatch, capsys):
        config = toy_config(size=8)
        params = init_params(config, seed=7, dtype=np.float32)
        dict(params.named_parameters())["sentence_fwd.0.u"].data[0, 0] = np.nan  # U_z[0, 0]
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path, Vocabulary([f"w{i}" for i in range(10)]))
        with pytest.raises(CheckpointError, match=r"model\.ckpt: array sentence_fwd\.0\.u_z"):
            load_checkpoint(path)
        monkeypatch.setattr("sys.stdin", io.StringIO("w4 w5\n? w6\n"))
        assert main(["ask", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "sentence_fwd.0.u_z" in err

    @pytest.mark.parametrize("line, bad", [(b"dropout=0.0", b"dropout=0.3"),
                                           (b"depth=1", b"depth=0")])
    def test_bad_header_config_names_the_file(self, tmp_path, monkeypatch, capsys, line, bad):
        config = toy_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(config, seed=7), config, path,
                        Vocabulary([f"w{i}" for i in range(10)]))
        raw = path.read_bytes()
        assert raw.count(line) == 1
        path.write_bytes(raw.replace(line, bad))  # same length, so the framing holds
        with pytest.raises(CheckpointError, match=r"model\.ckpt: "):
            load_checkpoint(path)
        monkeypatch.setattr("sys.stdin", io.StringIO("w4 w5\n? w6\n"))
        assert main(["ask", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and len(err.splitlines()) == 1

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        config = toy_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(config, seed=7), config, path)
        before = path.read_bytes()
        params = init_params(config, seed=8)
        params.out_b.data = np.array(["x"] * config.vocab_size, dtype=object)  # the last array
        with pytest.raises(ValueError):
            save_checkpoint(params, config, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_param_shapes_match_init_params(self):
        config = toy_config(depth=2)
        want = {n: a.shape for n, a in model_module._file_arrays(init_params(config))}
        assert {n: s for n, (s, _) in model_module._param_table(config).items()} == want
        assert want["encoder.1.w_z"] == (6, 6) and want["encoder.1.b_h"] == (6,)

    def test_file_bytes_pinned(self, tmp_path):
        # a fixed model's AMN1 bytes: the file keeps each GRU cell as nine
        # per-gate arrays, whatever layout the parameters have in memory
        config = toy_config(depth=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(config, seed=0), config, path,
                        Vocabulary([f"w{i}" for i in range(10)]))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "605e27ac99d5ce1c1c36bedf54b8d10abd7fd5f7566cb9aaaf0d7effc347d021")

    def test_double_params_round_trip_at_stored_precision(self, setup, tmp_path):
        config = toy_config()
        params = init_params(config, seed=9, dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        ckpt = load_checkpoint(path)
        for (_, a), (_, b) in zip(params.named_parameters(),
                                  ckpt.params.named_parameters()):
            np.testing.assert_array_equal(a.data.astype(np.float32), b.data)
