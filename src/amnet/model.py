"""The attentive memory network.

Pipeline: one word-level encoder pass reads each distinct statement and
question of a batch once, so a question's final state (the query state)
and each sentence's vector come from the same weights and the same read;
a bidirectional sentence-level encoder, initialized from the question
state, mixes the sentence vectors; the memory module runs a few
attentive GRU steps over the sentence states, fed the question state at
every step; the decoder runs attentive GRU steps over the memory states
and projects each state onto the vocabulary.

All attention sites share one additive form: score each state against
the query through a tanh bottleneck, softmax, mix, then project the
concatenated context and candidate state back to width e. The memory
module and the decoder are each one tape op (`memory_module`,
`_decoder_layer`) whose forward is plain numpy that projects the attention
keys once per call and whose backward is BPTT; their GRU cell is the
kernels of `amnet.gru` (its "Arithmetic"). One embedding matrix serves
question, document and answer tokens.

Everything is batch-first ([B, e] states); single-example calls use B=1.
A batch's rows live in one tensor, example-major: the sentence states
[B*S, e] (row b*S+s is sentence s of example b), the memories [B*m, e]
and the teacher-forced logits [B*T, V] alike. Attention weights and
contexts carry no gradient and come back as step-major arrays [steps, B, ...].
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from amnet.data import EOS, GO, DataError, Vocabulary, make_batch
from amnet.gru import (
    ConfigError, GruParams, StackSpec, _cell_step_back, _cell_steps, _u_grad, gru_step,
    run_bidirectional, run_sequence,
)
from amnet.tensor import (
    ContractError, MaskError, ShapeError, Tensor, _count_macs, _emit, _finite, _wrap, add,
    concat_cols, constant, cross_entropy_rows, matmul, mix_rows, mul, repeat_rows,
    reshape, scale, softmax_masked, sum_all, take_rows, tanh,
)

__all__ = [
    "AttentionParams", "AttentionRecord", "Checkpoint", "CheckpointError",
    "ForwardResult", "ModelConfig", "ModelParams", "attend",
    "attentive_cell_step", "decode_greedy", "decode_teacher_forced",
    "encode_document", "encode_question", "forward_batch",
    "forward_example", "init_params", "load_checkpoint", "memory_module",
    "save_checkpoint",
]


@dataclass
class ModelConfig:
    """Architecture sizes. One width ``size`` serves every embedding and state.

    Dropout is not implemented: ``dropout`` must be 0. The field stays so
    that the checkpoint header keeps its ``dropout=`` line.
    """

    size: int
    depth: int = 1
    memories: int = 1
    dropout: float = 0.0
    vocab_size: int = 5
    max_sentence_len: int = 16
    max_answer_len: int = 1

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"size must be positive, got {self.size}")
        if self.depth < 1:
            raise ConfigError(f"depth must be positive, got {self.depth}")
        if self.memories < 1:
            raise ConfigError(f"need at least one memory step, got {self.memories}")
        if self.dropout != 0.0:
            raise ConfigError(f"dropout {self.dropout} is not supported; only 0 is")
        if self.vocab_size < 5:
            raise ConfigError("vocabulary must hold the 4 reserved ids plus content")
        if self.max_sentence_len < 1 or self.max_answer_len < 1:
            raise ConfigError("sequence length caps must be positive")


@dataclass
class AttentionParams:
    """Additive attention: score i = v . tanh(W1 h_i + W2 query); then
    the context and candidate concat is mapped back to width e by proj."""

    w1: Tensor   # [e, e]
    w2: Tensor   # [e, e]
    v: Tensor    # [e, 1]
    proj: Tensor  # [2e, e]

    def named(self, prefix: str):
        for name in ("w1", "w2", "v", "proj"):
            yield f"{prefix}.{name}", getattr(self, name)


# the GRU cell stacks of ModelParams, in creation and file order
_STACKS = ("encoder", "sentence_fwd", "sentence_bwd", "memory_cell", "decoder_cell")


@dataclass
class ModelParams:
    """Every learned array. ``encoder`` is shared by the question encoder
    and the word-level document encoder (weight tying)."""

    embedding: Tensor
    encoder: StackSpec
    sentence_fwd: StackSpec
    sentence_bwd: StackSpec
    memory_cell: StackSpec
    decoder_cell: StackSpec
    memory_attention: AttentionParams
    decoder_attention: AttentionParams
    out_w: Tensor
    out_b: Tensor

    @property
    def dtype(self):
        return self.embedding.dtype

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = [("embedding", self.embedding)]
        for stack in _STACKS:
            named += getattr(self, stack).named(stack)
        named += list(self.memory_attention.named("memory_attention"))
        named += list(self.decoder_attention.named("decoder_attention"))
        named += [("out_w", self.out_w), ("out_b", self.out_b)]
        return named

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    """Each array of the checkpoint file (`_param_table`), in file order,
    drawn uniform from +-bound, or zeros where the bound is 0 (biases).

    Weight matrices draw from +-0.5 and attention score vectors from +-1.0:
    wide enough that attention logits differentiate from the start. With a
    timid init (say +-0.08 everywhere) the attention stays uniform and
    training stalls near the answer-prior plateau for thousands of batches.
    """
    rng = np.random.default_rng(seed)
    arrays = {name: rng.uniform(-bound, bound, shape) if bound else np.zeros(shape)
              for name, (shape, bound) in _param_table(config).items()}
    return _build_params(arrays, config, dtype)


@dataclass
class AttentionRecord:
    """Attention introspection for one example."""

    memory_attention: np.ndarray    # [m, |S|], each row sums to 1
    decoder_attention: np.ndarray   # [T, m], each row sums to 1
    memory_contexts: np.ndarray     # [m, e]


def attend(query: Tensor, states: Tensor, params: AttentionParams,
           mask=None, k: int | None = None):
    """Additive attention of ``query`` [B, e] over ``states`` [B*k, e], as
    composed tape ops (the model runs it inside `memory_module` and
    `_decoder_layer`, which compute the same values).

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


def _zeros_like_state(batch: int, e: int, dtype) -> Tensor:
    return constant(np.zeros((batch, e), dtype=dtype))


def _read_words(ids: np.ndarray, mask, params: ModelParams, config: ModelConfig) -> Tensor:
    """Final state of the tied encoder stack over each row of word ids
    [n, L], zero-initialized; ``mask`` is None or [n, L]."""
    x = take_rows(params.embedding, ids.reshape(-1))
    h0 = _zeros_like_state(ids.shape[0], config.size, params.dtype)
    _, final = run_sequence(x, h0, params.encoder, mask)
    return final


def encode_question(question_ids, question_mask, params: ModelParams,
                    config: ModelConfig) -> Tensor:
    """Final state of the (tied) encoder stack over question rows alone,
    zero-initialized: the read `encode_document` makes of its whole table."""
    ids = np.atleast_2d(np.asarray(question_ids, dtype=np.int64))
    if ids.shape[1] == 0:
        raise ContractError("empty question")
    m = None
    if question_mask is not None:
        m = np.atleast_2d(np.asarray(question_mask, dtype=np.float64))
        if (m.sum(axis=1) == 0).any():
            raise ContractError("a question in the batch has no tokens")
    return _read_words(ids, m, params, config)


def encode_document(sentences, word_mask, sentence_rows, sentence_mask, question_rows,
                    params: ModelParams, config: ModelConfig, kept: list | None = None):
    """The question encoding, then word-level and sentence-level encoding
    of the story, from one read of a word table.

    ``sentences`` [U, Lw] holds word ids, statements and questions alike,
    ``word_mask`` None or [U, Lw]; ``sentence_rows`` [B, S] is the row read
    at each story slot and ``question_rows`` [B] the row of each question.
    The tied word-level encoder runs once per row, however many slots and
    questions share it (a raw [S, Lw] story passes ``np.arange(S)``).

    ``kept``, for a story that grows between calls (`amn ask`), is a list
    of [k, e] arrays: the word-level vectors of the table rows read by
    earlier calls. ``sentences`` then holds only the rows after them, read
    together and appended to ``kept``; the row indices address the whole table.

    Returns (h_que [B, e], h_sen [B*S, e], h_sen_final [B, e], S): the
    question states, the sentence-level states to attend over (row b*S+s is
    sentence s of example b) and the fused final state. Both directions of
    the sentence-level encoder are initialized from the question state.
    """
    ids = np.asarray(sentences, dtype=np.int64)
    rows = np.atleast_2d(np.asarray(sentence_rows, dtype=np.int64))
    questions = np.asarray(question_rows, dtype=np.int64).reshape(-1)
    s = rows.shape[1]
    if s == 0 or ids.shape[1] == 0:
        raise ContractError("empty document")
    if len(questions) != len(rows):
        raise ShapeError(f"{len(questions)} question rows for {len(rows)} stories")
    if sentence_mask is not None:
        sm = np.atleast_2d(np.asarray(sentence_mask, dtype=np.float64))
        if (sm.sum(axis=1) == 0).any():
            raise ContractError("a story in the batch has no sentences")
    else:
        sm = None

    # word level over the rows not read yet, then gathers to the questions and
    # the [B*S] slots
    wm = None if word_mask is None else np.asarray(word_mask, dtype=np.float64)
    if kept is None and wm is not None and (wm[questions].sum(axis=1) == 0).any():
        raise ContractError("a question in the batch has no tokens")
    table = None if kept and len(ids) == 0 else _read_words(ids, wm, params, config)
    if kept is not None:
        if table is not None:
            kept.append(table.data)
        table = constant(np.concatenate(kept))
    h_que = take_rows(table, questions)
    h_wrd = take_rows(table, rows.reshape(-1))

    # sentence-level bidirectional pass: row b*S+s of h_wrd is step s of story b
    h_sen, h_sen_final = run_bidirectional(
        h_wrd, h_que, h_que, params.sentence_fwd, params.sentence_bwd, sm)
    return h_que, h_sen, h_sen_final, s


class _Recurrence:
    """An attentive GRU recurrence in plain numpy over fixed ``states``
    [B*k, e]: per step, the cell stack's top state is the candidate, which
    queries additive attention over the states, and proj(context ||
    candidate) becomes the output and the top layer's carried state. The
    keys ``states @ W1`` are projected once, and so is a fixed ``query``
    input [B, d_in], which each `step` without an input takes. The cell is `amnet.gru`'s
    "Arithmetic": per step and layer one `_cell_steps` call with n = 1, and
    one `_cell_step_back` call back.
    Working arrays are step-major, sized for at most ``steps`` steps; `step`
    runs one, `backward` is BPTT over the steps run."""

    def __init__(self, states: np.ndarray, mask, first: np.ndarray, cell: StackSpec,
                 att: AttentionParams, steps: int, query: np.ndarray | None = None):
        (b, e), rows = first.shape, states.shape[0]
        if rows == 0 or rows % b:
            raise ContractError(f"cannot split {rows} states into {b} groups")
        k, d, depth = rows // b, cell.d, cell.depth
        if states.shape[1] != e or d != e or att.proj.shape != (2 * e, e):
            raise ShapeError(f"attentive cell of width {d} over states {states.shape} "
                             f"from {first.shape}")
        self.live = None
        if mask is not None:
            live = np.asarray(mask) != 0
            if live.shape != (b, k):
                raise ShapeError(f"mask shape {live.shape} does not match {b} rows x {k} states")
            if not live.any(axis=1).all():
                raise MaskError("attention mask must keep at least one state per row")
            self.live = None if live.all() else live
        self.b, self.k, self.e, self.depth = b, k, e, depth
        self.cell, self.att, self.states = cell, att, states
        self.s3 = states.reshape(b, k, e)
        self.keys = (states @ att.w1.data).reshape(b, k, e)
        # per layer: W, b, U_z|U_r, U_h, and U_z|U_r halved as `_cell_steps` takes it
        self.layers = [(p.w.data, p.b.data, p.u.data[:, :2 * d], p.u.data[:, 2 * d:],
                        p.u.data[:, :2 * d] * 0.5) for p in cell.layers]
        dt = np.result_type(states, first, att.w1.data, *self.layers[0])
        self.pre = np.empty((steps, depth, b, 3 * d), dt)  # GRU pre-activations
        self.zr = np.empty((steps, depth, b, 2 * d), dt)   # gates z | r
        self.cand = np.empty((steps, depth, b, d), dt)     # h~
        self.rh = np.empty((steps, depth, b, d), dt)       # r * h, the input of U_h
        self.h = np.zeros((steps + 1, depth, b, d), dt)    # carried states; the top's is the output
        self.h[0, 0] = first
        self.att_pre = np.empty((steps, b, k, e), dt)      # keys + query part
        self.tanh = np.empty((steps, b, k, e), dt)
        self.p = np.empty((steps, b, k), dt)               # attention weights
        self.cat = np.empty((steps, b, 2 * e), dt)         # context | candidate
        self.x: list[np.ndarray] = []                      # input of each step
        self.n = 0
        self.query = query
        if query is not None:  # its layer-0 projection, made once
            self.query_pre = query @ self.layers[0][0] + self.layers[0][1]

    def step(self, x: np.ndarray | None = None) -> np.ndarray:
        """One step on input ``x`` [B, d_in], or on the fixed query if None;
        returns the output [B, e]."""
        t, e, top = self.n, self.e, self.depth - 1
        self.x.append(self.query if x is None else x)
        for li, (w, bias, _, u_h, half_u_zr) in enumerate(self.layers):
            pre = self.pre[t, li]
            if li == 0 and x is None:
                pre[...] = self.query_pre
            else:
                np.matmul(x, w, out=pre)
                pre += bias
            x = self.cat[t, :, e:] if li == top else self.h[t + 1, li]
            _cell_steps(pre[None], self.h[t, li], half_u_zr, u_h, self.zr[t:t + 1, li],
                        self.rh[t:t + 1, li], self.cand[t:t + 1, li], x[None])
        # additive attention with the candidate x as query, then the projection
        a = np.add(self.keys, (x @ self.att.w2.data)[:, None, :], out=self.att_pre[t])
        th = np.tanh(a, out=self.tanh[t])
        u = (th.reshape(-1, e) @ self.att.v.data).reshape(self.b, self.k)
        p = self.p[t]
        if self.live is None:
            np.subtract(u, u.max(axis=1, keepdims=True), out=p)
            np.exp(p, out=p)
        else:
            u = np.where(self.live, u, -np.inf)
            u -= u.max(axis=1, keepdims=True)
            np.copyto(p, np.where(self.live, np.exp(np.where(self.live, u, 0.0)), 0.0))
        p /= p.sum(axis=1, keepdims=True)
        np.einsum("bk,bke->be", p, self.s3, out=self.cat[t, :, :e])
        self.n += 1
        return np.matmul(self.cat[t], self.att.proj.data, out=self.h[t + 1, top])

    def check(self, op: str) -> None:
        """Count the MACs of the steps run and check their GRU and attention
        pre-activations; the callers check the outputs."""
        d, e, b, k, n = self.e, self.e, self.b, self.k, self.n
        cell = sum(3 * (w.shape[0] * d + d * d + d) for w, *_ in self.layers)
        # a fixed query's layer-0 projection is made once, not per step
        once = 0 if self.query is None else 3 * self.layers[0][0].shape[0] * d
        _count_macs(b * (k * e * e + once + n * (cell - once + e * e + 2 * k * e + 2 * e * e)))
        _finite(self.pre[:n], op)
        _finite(self.att_pre[:n], op)

    def params(self) -> list[Tensor]:
        return [t for layer in self.cell.layers for _, t in layer.named()] + [
            self.att.w1, self.att.w2, self.att.v, self.att.proj]

    def backward(self, douts):
        """BPTT from the gradients of the step outputs ``douts`` [n, B, e].

        Returns the gradients of the layer-0 pre-activations per step
        [n, B, 3d] (the caller maps them onto its inputs), of the states
        [B*k, e], of ``first``, and of `params` in order."""
        n, b, k, e, d, top = self.n, self.b, self.k, self.e, self.e, self.depth - 1
        w1, w2, v, proj = (t.data for t in (self.att.w1, self.att.w2, self.att.v, self.att.proj))
        da = np.empty((n, self.depth, b, 3 * d), self.pre.dtype)  # of the GRU pre-activations
        d_out, d_u, d_q = (np.empty((n, b, c), da.dtype) for c in (e, k, e))
        d_att = np.empty((n, b, k, e), da.dtype)
        d_s3 = np.zeros((b, k, e), da.dtype)
        carry = [np.zeros((b, d), da.dtype) for _ in range(self.depth)]
        for t in range(n - 1, -1, -1):
            dout = douts[t] + carry[top]
            d_out[t] = dout
            dcat = dout @ proj.T
            dctx, p = dcat[:, :e], self.p[t]
            dp = np.einsum("be,bke->bk", dctx, self.s3)
            d_s3 += p[:, :, None] * dctx[:, None, :]
            np.multiply(p, dp - (dp * p).sum(axis=1, keepdims=True), out=d_u[t])
            th = self.tanh[t]
            np.multiply(d_u[t][:, :, None] * v[:, 0], 1.0 - th * th, out=d_att[t])
            np.sum(d_att[t], axis=1, out=d_q[t])
            dh = dcat[:, e:] + d_q[t] @ w2.T
            for li in range(top, -1, -1):
                w, _, u_zr, u_h, _ = self.layers[li]
                if li < top:
                    dh = dx + carry[li]
                carry[li] = _cell_step_back(dh, self.zr[t, li], self.cand[t, li],
                                            self.h[t, li], u_zr, u_h, da[t, li])
                if li:
                    dx = da[t, li] @ w.T
        # weight gradients: one product over all steps each
        grads = []
        for li, (w, *_) in enumerate(self.layers):
            x = np.stack(self.x) if li == 0 else self.h[1:n + 1, li - 1]
            flat = da[:, li].reshape(-1, 3 * d)
            grads += [x.reshape(-1, w.shape[0]).T @ flat,
                      _u_grad(self.h[:n, li], self.rh[:n, li], flat), flat.sum(axis=0)]
        d_keys = d_att.sum(axis=0).reshape(b * k, e)
        grads += [self.states.T @ d_keys,
                  self.cat[:n, :, e:].reshape(-1, e).T @ d_q.reshape(-1, e),
                  self.tanh[:n].reshape(-1, e).T @ d_u.reshape(-1, 1),
                  self.cat[:n].reshape(-1, 2 * e).T @ d_out.reshape(-1, e)]
        d_states = d_s3.reshape(b * k, e) + d_keys @ w1.T
        return da[:, 0], d_states, carry[0], grads


def _by_example(a: np.ndarray) -> np.ndarray:
    """Step-major [n, B, c] -> example-major [B*n, c]; row b*n+t is a[t, b]."""
    return a.transpose(1, 0, 2).reshape(-1, a.shape[2])


def memory_module(h_que: Tensor, h_sen: Tensor, sentence_mask, h_sen_final: Tensor,
                  params: ModelParams, config: ModelConfig):
    """``config.memories`` = m attentive steps over the sentence states
    ``h_sen`` [B*k, e] (``sentence_mask`` None or [B, k]), each fed the
    question state ``h_que`` [B, e]: one tape op.

    The cell starts from the document encoding (m_0 = h_sen_final; upper
    layers from 0). Returns (memories [B*m, e], row b*m+j the state after
    step j of example b; attention weights [m, B, k]; contexts [m, B, e]).
    Only the memories are a tensor, the rest carry no gradient.
    """
    cell = params.memory_cell
    if h_que.shape != h_sen_final.shape or h_que.shape[1] != cell.layers[0].d_in:
        raise ShapeError(f"memory query {h_que.shape} and start {h_sen_final.shape} "
                         f"for a {cell.layers[0].d_in}-input cell")
    rec = _Recurrence(h_sen.data, sentence_mask, h_sen_final.data, cell,
                      params.memory_attention, config.memories, query=h_que.data)
    for _ in range(config.memories):
        rec.step()
    rec.check("memory_layer")
    n, b, e = rec.n, rec.b, rec.e

    def back(g):
        da0, d_states, d_first, grads = rec.backward(g.reshape(b, n, e).transpose(1, 0, 2))
        # the query is every step's input: one product for all steps
        return (da0.sum(axis=0) @ rec.layers[0][0].T, d_states, d_first, *grads)

    inputs = (h_que, h_sen, h_sen_final, *rec.params())
    memories = _emit(_by_example(rec.h[1:, -1]), "memory_layer", inputs, back)
    return memories, rec.p[:n], rec.cat[:n, :, :e]


def _decoder_layer(memories: Tensor, m: int, params: ModelParams, steps: int, targets=None):
    """The decoder's step loop as one tape op: attentive steps over the
    ``memories`` [B*m, e], from each example's last memory, each output
    projected onto the vocabulary.

    Step 1 consumes the GO embedding. With ``targets`` [B, steps] step t+1
    consumes target t (teacher forcing); without, it consumes the argmax of
    step t's logits, and the loop stops once every row has emitted EOS.
    Returns (logits [B*steps, V], row b*steps+t step t of example b, only
    with targets; attention weights [n, B, m]; argmax ids [B, n], only
    without), for the n steps run.
    """
    rows, e = memories.shape
    if rows == 0 or rows % m:
        raise ShapeError(f"{rows} memory rows do not split into groups of {m}")
    b = rows // m
    emb, out_w, out_b = params.embedding, params.out_w, params.out_b
    rec = _Recurrence(memories.data, None, memories.data[m - 1::m], params.decoder_cell,
                      params.decoder_attention, steps)
    logits = np.empty((steps, b, out_w.shape[1]), rec.pre.dtype)
    ids = np.empty((steps + 1, b), np.int64)  # row t: the ids step t consumes
    ids[0] = GO
    done = np.zeros(b, dtype=bool)
    for t in range(steps):
        np.matmul(rec.step(emb.data[ids[t]]), out_w.data, out=logits[t])
        logits[t] += out_b.data
        if targets is not None:
            ids[t + 1] = targets[:, t]
            continue
        ids[t + 1] = logits[t].argmax(axis=1)
        done |= ids[t + 1] == EOS
        if done.all():
            break
    n = rec.n
    _count_macs(b * n * e * out_w.shape[1])
    rec.check("decoder_layer")
    _finite(rec.h[1:n + 1, -1], "decoder_layer")
    if targets is None:
        _finite(logits[:n], "decoder_layer")
        return None, rec.p[:n], ids[1:n + 1].T

    def back(g):
        # step-major and contiguous, the layout the forward computed in
        dl = np.ascontiguousarray(g.reshape(b, n, -1).transpose(1, 0, 2))
        outs = rec.h[1:n + 1, -1]
        da0, d_states, d_first, grads = rec.backward(dl @ out_w.data.T)
        d_emb = np.zeros_like(emb.data)
        np.add.at(d_emb, ids[:n].reshape(-1), (da0 @ rec.layers[0][0].T).reshape(-1, e))
        d_states[m - 1::m] += d_first
        return (d_states, d_emb, *grads,
                outs.reshape(-1, e).T @ dl.reshape(-1, dl.shape[2]), dl.sum(axis=(0, 1)))

    inputs = (memories, emb, *rec.params(), out_w, out_b)
    return _emit(_by_example(logits[:n]), "decoder_layer", inputs, back), rec.p[:n], None


def decode_teacher_forced(memories: Tensor, targets, params: ModelParams):
    """Gold tokens drive the decoder (`_decoder_layer`) over the memories
    [B*m, e]; B is the number of target rows.

    Step 1 consumes the GO embedding, step t+1 the embedding of target t.
    Returns (logits [B*T, V], row b*T+t step t of example b; attention
    weights [T, B, m]).
    """
    if targets is None:
        raise ContractError("teacher-forced decoding needs gold targets")
    tgt = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    if tgt.shape[1] == 0:
        raise ContractError("teacher-forced decoding needs at least one target position")
    (b, steps), rows = tgt.shape, memories.shape[0]
    if b == 0 or rows % b:
        raise ShapeError(f"{b} target rows for {rows} memory rows")
    if tgt.min() < 0 or tgt.max() >= params.embedding.shape[0]:
        raise IndexError(f"target id outside vocabulary of size {params.embedding.shape[0]}")
    logits, weights, _ = _decoder_layer(memories, rows // b, params, steps, tgt)
    return logits, weights


def decode_greedy(memories: Tensor, params: ModelParams, config: ModelConfig):
    """Free-running greedy decode (`_decoder_layer`) over the memories
    [B*m, e], m = ``config.memories``; halts at EOS (all rows) or the
    length cap.

    Returns (tokens [B, n], attention weights [n, B, m]) for the n steps run.
    """
    _, weights, tokens = _decoder_layer(memories, config.memories, params,
                                        config.max_answer_len + 1)
    return tokens, weights


def cut_at_eos(token_rows: np.ndarray) -> list[list[int]]:
    """Per row: the emitted ids before the first EOS (all of them if none)."""
    rows = np.asarray(token_rows)
    hit = rows == EOS
    ends = np.where(hit.any(axis=1), hit.argmax(axis=1), rows.shape[1])
    return [row[:end] for row, end in zip(rows.tolist(), ends.tolist())]


@dataclass
class ForwardResult:
    loss: Tensor
    n_positions: int


def forward_batch(batch, params: ModelParams, config: ModelConfig, *,
                  training: bool = False) -> ForwardResult:
    """Teacher-forced loss over a padded batch.

    Loss is the mean cross entropy over real answer positions (EOS included).
    ``training`` only turns on a check that every token id of the batch lies
    inside the vocabulary (DataError otherwise); the computation is the same.
    """
    if training and batch.max_id >= config.vocab_size:
        raise DataError(f"token id {batch.max_id} outside vocabulary of {config.vocab_size}")
    h_que, h_sen, h_sen_final, _ = encode_document(
        batch.sentences, batch.sentence_word_mask, batch.sentence_rows, batch.sentence_mask,
        batch.question_rows, params, config)
    memories, _, _ = memory_module(
        h_que, h_sen, batch.sentence_mask, h_sen_final, params, config)
    logits, _ = decode_teacher_forced(memories, batch.answer, params)

    # every answer position at once: row b*T+t of the logits is position t of example b
    ce = cross_entropy_rows(logits, batch.answer.reshape(-1))
    live = mul(ce, constant(batch.answer_mask.reshape(-1).astype(ce.dtype)))
    n_positions = int(batch.answer_mask.sum())
    return ForwardResult(scale(sum_all(live), 1.0 / n_positions), n_positions)


def _build_records(batch, predictions, mem_weights, mem_contexts, dec_weights):
    """One AttentionRecord per example, from step-major [steps, B, ...] arrays."""
    records = []
    for i, real in enumerate(batch.sentence_mask):
        t_i = min(len(predictions[i]) + 1, len(dec_weights))
        records.append(AttentionRecord(mem_weights[:, i, :int(real.sum())],
                                       dec_weights[:t_i, i], mem_contexts[:, i]))
    return records


def forward_example(example, params: ModelParams, config: ModelConfig):
    """Run one example; returns (loss, predicted token ids, AttentionRecord)."""
    batch = make_batch([example])
    loss = forward_batch(batch, params, config).loss
    predictions, records = predict_batch(batch, params, config, want_records=True)
    return loss, predictions[0], records[0]


def predict_batch(batch, params: ModelParams, config: ModelConfig,
                  want_records: bool = False, kept: list | None = None):
    """Inference only: free-running predictions, no loss.

    ``kept`` goes to `encode_document`, with a batch of the rows not yet
    read whose ``sentence_rows`` and ``question_rows`` index the whole table.
    Returns (predictions, records) where records is None unless asked for.
    """
    h_que, h_sen, h_sen_final, _ = encode_document(
        batch.sentences, batch.sentence_word_mask, batch.sentence_rows, batch.sentence_mask,
        batch.question_rows, params, config, kept)
    memories, mem_weights, mem_contexts = memory_module(
        h_que, h_sen, batch.sentence_mask, h_sen_final, params, config)
    tokens, fr_weights = decode_greedy(memories, params, config)
    predictions = cut_at_eos(tokens)
    records = None
    if want_records:
        records = _build_records(batch, predictions, mem_weights,
                                 mem_contexts, fr_weights)
    return predictions, records


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated, or structurally wrong."""


@dataclass
class Checkpoint:
    params: ModelParams
    config: ModelConfig
    vocab: Vocabulary | None


_MAGIC = b"AMN1"
_VERSION = 1
_CONFIG_FIELDS = ("size", "depth", "memories", "dropout", "vocab_size",
                  "max_sentence_len", "max_answer_len")
_GATES = ("_z", "_r", "_h")


def save_checkpoint(params: ModelParams, config: ModelConfig, path,
                    vocab: Vocabulary | None = None) -> None:
    """Binary format: magic, u16 version, length-prefixed config lines,
    then named float32 arrays (rank u8, dims u32 LE, row-major payload)."""
    lines = [f"{name}={getattr(config, name)}" for name in _CONFIG_FIELDS]
    if vocab is not None:
        lines.append("vocab=" + " ".join(vocab.id_to_token[4:]))
    named = list(_file_arrays(params))
    # written whole beside ``path``, then moved over it: an interrupted save
    # leaves the previous file as it was
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<H", _VERSION))
            fh.write(struct.pack("<I", len(lines)))
            for line in lines:
                raw = line.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
            fh.write(struct.pack("<I", len(named)))
            for name, a in named:
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                arr = np.ascontiguousarray(a, dtype="<f4")
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _file_arrays(params: ModelParams):
    """(name, array) of every array in the file, in file order. The file
    keeps each GRU cell's w, u and b as three per-gate arrays (w_z, w_r,
    w_h, ...), here views of their columns of ``params``."""
    for name, t in params.named_parameters():
        if name.split(".")[0] in _STACKS:
            yield from zip((name + g for g in _GATES), np.split(t.data, 3, axis=-1))
        else:
            yield name, t.data


def _param_table(config: ModelConfig) -> dict[str, tuple]:
    """Name -> (shape, init bound) of every array in the file of a
    ``config`` model, in file order, without creating any."""
    e, v = config.size, config.vocab_size
    # one gate's part of a cell's array
    gate = {"w": ((e, e), 0.5), "u": ((e, e), 0.5), "b": ((e,), 0)}
    att = {"w1": ((e, e), 0.5), "w2": ((e, e), 0.5), "v": ((e, 1), 1.0), "proj": ((2 * e, e), 0.5)}
    return {"embedding": ((v, e), 0.5),
            **{f"{s}.{i}.{n}{g}": c for s in _STACKS for i in range(config.depth)
               for n, c in gate.items() for g in _GATES},
            **{f"{a}.{n}": c for a in ("memory_attention", "decoder_attention")
               for n, c in att.items()},
            "out_w": ((e, v), 0.5), "out_b": ((v,), 0)}


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return raw


def _read_text(fh, n: int, what: str) -> str:
    # an untrusted length never sizes a read past the end of the file
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint: {what} runs past the end")
    try:
        return _read_exact(fh, n, what).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not UTF-8") from None


def load_checkpoint(path) -> Checkpoint:
    """Read a `save_checkpoint` file; every CheckpointError names ``path``."""
    try:
        with open(path, "rb") as fh:
            config, vocab, arrays = _read_checkpoint(fh)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return Checkpoint(_build_params(arrays, config, np.float32), config, vocab)


def _build_params(arrays: dict, config: ModelConfig, dtype) -> ModelParams:
    """`ModelParams` holding ``dtype`` copies of ``arrays`` (the arrays of
    `_param_table` by name), each GRU cell's per-gate arrays joined
    gate-major (the inverse of `_file_arrays`)."""
    def param(*names):
        t = _wrap(np.concatenate([arrays[n] for n in names], axis=-1, dtype=dtype))
        t.requires_grad = True
        return t

    def stack(prefix):
        return StackSpec([GruParams(*(param(*(f"{prefix}.{i}.{n}{g}" for g in _GATES))
                                      for n in "wub")) for i in range(config.depth)])

    def attention(prefix):
        return AttentionParams(*(param(f"{prefix}.{n}") for n in ("w1", "w2", "v", "proj")))

    return ModelParams(
        embedding=param("embedding"), **{s: stack(s) for s in _STACKS},
        memory_attention=attention("memory_attention"),
        decoder_attention=attention("decoder_attention"),
        out_w=param("out_w"), out_b=param("out_b"))


def _read_checkpoint(fh):
    if _read_exact(fh, 4, "magic") != _MAGIC:
        raise CheckpointError("bad magic bytes; not an AMN checkpoint")
    (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (n_lines,) = struct.unpack("<I", _read_exact(fh, 4, "config count"))
    fields: dict[str, str] = {}
    for i in range(n_lines):
        (ln,) = struct.unpack("<I", _read_exact(fh, 4, "config line length"))
        key, _, value = _read_text(fh, ln, f"config line {i + 1}").partition("=")
        fields[key] = value
    values = {}
    for name in _CONFIG_FIELDS:
        if name not in fields:
            raise CheckpointError(f"checkpoint config lacks {name!r}")
        try:
            values[name] = (float if name == "dropout" else int)(fields[name])
        except ValueError:
            raise CheckpointError(f"config value {name}={fields[name]!r} is malformed") from None
    try:
        config = ModelConfig(**values)
    except ConfigError as exc:
        raise CheckpointError(str(exc)) from None
    vocab = None
    if "vocab" in fields:
        vocab = Vocabulary(fields["vocab"].split())
        if len(vocab) != config.vocab_size:
            raise CheckpointError("stored vocabulary disagrees with vocab_size")
    # the config fixes every array's shape: check the sizes before reading
    # or allocating any of them
    shapes = {name: shape for name, (shape, _) in _param_table(config).items()}
    total, left = 4 * sum(map(math.prod, shapes.values())), os.fstat(fh.fileno()).st_size
    left -= fh.tell()
    if total > left:
        raise CheckpointError(f"truncated checkpoint: the config implies "
                              f"{total} bytes of arrays, {left} are left")
    (n_arrays,) = struct.unpack("<I", _read_exact(fh, 4, "array count"))
    if n_arrays != len(shapes):
        raise CheckpointError(f"{n_arrays} arrays, the config implies {len(shapes)}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (ln,) = struct.unpack("<I", _read_exact(fh, 4, "array name length"))
        name = _read_text(fh, ln, "array name")
        if name not in shapes or name in arrays:
            raise CheckpointError(f"unexpected array {name!r}")
        (rank,) = struct.unpack("<B", _read_exact(fh, 1, "array rank"))
        dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "array dims"))
        if dims != shapes[name]:
            raise CheckpointError(f"array {name} has shape {dims}, expected {shapes[name]}")
        payload = _read_exact(fh, 4 * math.prod(dims), f"array {name} payload")
        arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"array {name} holds non-finite values")
    return config, vocab, arrays
