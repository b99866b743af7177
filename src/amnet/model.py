"""The attentive memory network.

Pipeline: a question encoder produces a query state; a word-level
encoder (weight-tied with the question encoder) turns each sentence into
one vector; a bidirectional sentence-level encoder, initialized from the
question state, mixes those vectors; the memory module runs a few
attentive GRU steps over the sentence states, fed the question state at
every step; the decoder runs attentive GRU steps over the memory states
and projects each state onto the vocabulary.

All attention sites share one additive form: score each state against
the query through a tanh bottleneck, softmax, mix, then project the
concatenated context and candidate state back to width e. The memory
module and the decoder are each one tape op (`memory_layer`,
`decoder_layer`) whose forward is plain numpy that projects the attention
keys once per call and whose backward is BPTT. One embedding matrix
serves question, document and answer tokens.

Everything is batch-first ([B, e] states); single-example calls use B=1.
Sentence states for a batch live in one [B*S, e] tensor, row b*S+s
holding sentence s of example b.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from amnet.data import EOS, GO, DataError, Vocabulary, make_batch
from amnet.gru import ConfigError, GruParams, StackSpec, gru_step, run_bidirectional, run_sequence
from amnet.tensor import (
    ContractError, MaskError, ShapeError, Tensor, _count_macs, _emit_all, _finite, _wrap, add,
    concat_cols, constant, cross_entropy_rows, matmul, mix_rows, mul, repeat_rows,
    reshape, scale, softmax_masked, sum_all, take_rows, tanh,
)

__all__ = [
    "AttentionParams", "AttentionRecord", "Checkpoint", "CheckpointError",
    "ForwardResult", "ModelConfig", "ModelParams", "attend",
    "attentive_cell_step", "decode_greedy", "decode_teacher_forced",
    "decoder_layer", "encode_document", "encode_question", "forward_batch",
    "forward_example", "init_params", "load_checkpoint", "memory_layer", "memory_module",
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

    @classmethod
    def create(cls, e: int, rng: np.random.Generator, dtype=np.float32) -> "AttentionParams":
        def w(rows, cols, scale):
            return Tensor(rng.uniform(-scale, scale, (rows, cols)).astype(dtype),
                          requires_grad=True)

        return cls(w(e, e, 0.5), w(e, e, 0.5), w(e, 1, 1.0), w(2 * e, e, 0.5))


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
    """Uniform weights, zero biases, fixed creation order.

    Weight matrices draw from +-0.5 and attention score vectors from +-1.0:
    wide enough that attention logits differentiate from the start. With a
    timid init (say +-0.08 everywhere) the attention stays uniform and
    training stalls near the answer-prior plateau for thousands of batches.
    """
    rng = np.random.default_rng(seed)
    e, v = config.size, config.vocab_size

    def w(rows, cols):
        return Tensor(rng.uniform(-0.5, 0.5, (rows, cols)).astype(dtype), requires_grad=True)

    return ModelParams(
        embedding=w(v, e),
        **{stack: StackSpec.create(e, e, config.depth, rng, dtype) for stack in _STACKS},
        memory_attention=AttentionParams.create(e, rng, dtype),
        decoder_attention=AttentionParams.create(e, rng, dtype),
        out_w=w(e, v),
        out_b=Tensor(np.zeros(v, dtype=dtype), requires_grad=True),
    )


@dataclass
class AttentionRecord:
    """Attention introspection for one example."""

    memory_attention: np.ndarray    # [m, |S|], each row sums to 1
    decoder_attention: np.ndarray   # [T, m], each row sums to 1
    memory_contexts: np.ndarray     # [m, e]


def attend(query: Tensor, states: Tensor, params: AttentionParams,
           mask=None, k: int | None = None):
    """Additive attention of ``query`` [B, e] over ``states`` [B*k, e], as
    composed tape ops (the model runs it inside `memory_layer` and
    `decoder_layer`, which compute the same values).

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
    ops: the reference for a step of `memory_layer` and `decoder_layer`.

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
    """Final state of the (tied) encoder stack over the question, zero-initialized."""
    ids = np.atleast_2d(np.asarray(question_ids, dtype=np.int64))
    if ids.shape[1] == 0:
        raise ContractError("empty question")
    m = None
    if question_mask is not None:
        m = np.atleast_2d(np.asarray(question_mask, dtype=np.float64))
        if (m.sum(axis=1) == 0).any():
            raise ContractError("a question in the batch has no tokens")
    return _read_words(ids, m, params, config)


def encode_document(sentences, word_mask, sentence_rows, sentence_mask, h_que: Tensor,
                    params: ModelParams, config: ModelConfig, kept: list | None = None):
    """Word-level then sentence-level encoding.

    ``sentences`` [U, Lw] holds word ids, ``word_mask`` None or [U, Lw],
    and ``sentence_rows`` [B, S] the row of ``sentences`` read at each
    story slot: the word level runs once per row, however many slots
    share it (a raw [S, Lw] story passes ``np.arange(S)``).

    ``kept``, for a story that grows between calls (`amn ask`), is a list
    of [k, e] arrays: the word-level vectors of the table rows read by
    earlier calls. ``sentences`` then holds only the rows after them, read
    together and appended to ``kept``; ``sentence_rows`` index the whole table.

    Returns (h_sen [B*S, e], h_sen_final [B, e], S): the sentence-level
    states to attend over (row b*S+s is sentence s of example b) and the
    fused final state. Both directions of the sentence-level encoder are
    initialized from the question state.
    """
    ids = np.asarray(sentences, dtype=np.int64)
    rows = np.atleast_2d(np.asarray(sentence_rows, dtype=np.int64))
    s = rows.shape[1]
    if s == 0 or ids.shape[1] == 0:
        raise ContractError("empty document")
    if sentence_mask is not None:
        sm = np.atleast_2d(np.asarray(sentence_mask, dtype=np.float64))
        if (sm.sum(axis=1) == 0).any():
            raise ContractError("a story in the batch has no sentences")
    else:
        sm = None

    # word level over the rows not read yet, then one gather to the [B*S] slots
    wm = None if word_mask is None else np.asarray(word_mask, dtype=np.float64)
    table = None if kept and len(ids) == 0 else _read_words(ids, wm, params, config)
    if kept is not None:
        if table is not None:
            kept.append(table.data)
        table = constant(np.concatenate(kept))
    h_wrd = take_rows(table, rows.reshape(-1))

    # sentence-level bidirectional pass: row b*S+s of h_wrd is step s of story b
    h_sen, h_sen_final = run_bidirectional(
        h_wrd, h_que, h_que, params.sentence_fwd, params.sentence_bwd, sm)
    return h_sen, h_sen_final, s


class _Recurrence:
    """An attentive GRU recurrence in plain numpy over fixed ``states``
    [B*k, e]: per step, the cell stack's top state is the candidate, which
    queries additive attention over the states, and proj(context ||
    candidate) becomes the output and the top layer's carried state. The
    keys ``states @ W1`` are projected once. Working arrays are step-major,
    sized for at most ``steps`` steps; `step` runs one, `backward` is BPTT
    over the steps run."""

    def __init__(self, states: np.ndarray, mask, first: np.ndarray, cell: StackSpec,
                 att: AttentionParams, steps: int):
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
        # per layer: W, b, U_z|U_r, U_h, and U_z|U_r halved for sig's tanh form
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

    def step(self, x: np.ndarray) -> np.ndarray:
        """One step on input ``x`` [B, d_in]; returns the output [B, e]."""
        t, d, e, top = self.n, self.e, self.e, self.depth - 1
        self.x.append(x)
        for li, (w, bias, _, u_h, half_u_zr) in enumerate(self.layers):
            h, zr, rh = self.h[t, li], self.zr[t, li], self.rh[t, li]
            pre = np.matmul(x, w, out=self.pre[t, li])
            pre += bias
            a_zr, a_h = pre[:, :2 * d], pre[:, 2 * d:]
            a_zr *= 0.5  # sig(a) = (1 + tanh(a/2))/2, as in gru_layer
            a_zr += h @ half_u_zr
            np.tanh(a_zr, out=zr)
            zr += 1.0
            zr *= 0.5
            np.multiply(zr[:, d:], h, out=rh)
            a_h += rh @ u_h
            x = self.cat[t, :, e:] if li == top else self.h[t + 1, li]
            np.subtract(np.tanh(a_h, out=self.cand[t, li]), h, out=x)
            x *= zr[:, :d]
            x += h
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
        _count_macs(b * (k * e * e + n * (cell + e * e + 2 * k * e + 2 * e * e)))
        _finite(self.pre[:n], op)
        _finite(self.att_pre[:n], op)

    def outputs(self) -> list[np.ndarray]:
        return [self.h[t + 1, -1] for t in range(self.n)]

    def weights(self) -> list[Tensor]:
        return [_wrap(p) for p in self.p[:self.n]]

    def contexts(self) -> list[Tensor]:
        return [_wrap(c) for c in self.cat[:self.n, :, :self.e]]

    def params(self) -> list[Tensor]:
        return [t for layer in self.cell.layers for _, t in layer.named()] + [
            self.att.w1, self.att.w2, self.att.v, self.att.proj]

    def backward(self, douts):
        """BPTT from the gradients of the step outputs (None for none).

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
            dout = carry[top] if douts[t] is None else douts[t] + carry[top]
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
                _, _, u_zr, u_h, _ = self.layers[li]
                if li < top:
                    dh = dx + carry[li]
                zr, c, prev, da_t = self.zr[t, li], self.cand[t, li], self.h[t, li], da[t, li]
                da_zr, da_h = da_t[:, :2 * d], da_t[:, 2 * d:]
                np.multiply(dh * zr[:, :d], 1.0 - c * c, out=da_h)
                drh = da_h @ u_h.T
                np.multiply(dh, c - prev, out=da_zr[:, :d])
                np.multiply(drh, prev, out=da_zr[:, d:])
                da_zr *= zr * (1.0 - zr)
                carry[li] = dh * (1.0 - zr[:, :d]) + drh * zr[:, d:] + da_zr @ u_zr.T
                if li:
                    dx = da_t @ self.layers[li][0].T
        # weight gradients: one product over all steps each
        grads = []
        for li, (w, *_) in enumerate(self.layers):
            x = np.stack(self.x) if li == 0 else self.h[1:n + 1, li - 1]
            flat = da[:, li].reshape(-1, 3 * d)
            grads += [x.reshape(-1, w.shape[0]).T @ flat,
                      np.concatenate([self.h[:n, li].reshape(-1, d).T @ flat[:, :2 * d],
                                      self.rh[:n, li].reshape(-1, d).T @ flat[:, 2 * d:]], axis=1),
                      flat.sum(axis=0)]
        d_keys = d_att.sum(axis=0).reshape(b * k, e)
        grads += [self.states.T @ d_keys,
                  self.cat[:n, :, e:].reshape(-1, e).T @ d_q.reshape(-1, e),
                  self.tanh[:n].reshape(-1, e).T @ d_u.reshape(-1, 1),
                  self.cat[:n].reshape(-1, 2 * e).T @ d_out.reshape(-1, e)]
        d_states = d_s3.reshape(b * k, e) + d_keys @ w1.T
        return da[:, 0], d_states, carry[0], grads


def memory_layer(query: Tensor, states: Tensor, mask, first: Tensor, cell: StackSpec,
                 att: AttentionParams, steps: int):
    """``steps`` attentive steps over ``states`` [B*k, e] (``mask`` None or
    [B, k]), each fed ``query`` [B, e], the cell starting from ``first``
    [B, e] (upper layers from 0): one tape op.

    Returns (outputs, weights, contexts): per step the output [B, e], the
    attention weights [B, k] and the context [B, e]; only the outputs carry
    gradients.
    """
    if query.shape != first.shape or query.shape[1] != cell.layers[0].d_in:
        raise ShapeError(f"memory query {query.shape} and start {first.shape} "
                         f"for a {cell.layers[0].d_in}-input cell")
    rec = _Recurrence(states.data, mask, first.data, cell, att, steps)
    for _ in range(steps):
        rec.step(query.data)
    rec.check("memory_layer")

    def back(*douts):
        da0, d_states, d_first, grads = rec.backward(douts)
        # the query is every step's input: one product for all steps
        return (da0.sum(axis=0) @ rec.layers[0][0].T, d_states, d_first, *grads)

    outs = _emit_all(rec.outputs(), "memory_layer", (query, states, first, *rec.params()), back)
    return outs, rec.weights(), rec.contexts()


def memory_module(h_que: Tensor, h_sen: Tensor, sentence_mask, h_sen_final: Tensor,
                  params: ModelParams, config: ModelConfig):
    """``config.memories`` attentive steps over the sentence states, fed the
    question state (`memory_layer`).

    The cell starts from the document encoding (m_0 = h_sen_final).
    Returns (memories, weights, contexts): one state tensor [B, e] per step
    plus the per-step attention rows and context vectors.
    """
    return memory_layer(h_que, h_sen, sentence_mask, h_sen_final, params.memory_cell,
                        params.memory_attention, config.memories)


def decoder_layer(memories, params: ModelParams, steps: int, targets=None):
    """The decoder's step loop as one tape op: attentive steps over the
    memories, interleaved as [B*m, e], from the last memory, each output
    projected onto the vocabulary.

    Step 1 consumes the GO embedding. With ``targets`` [B, steps] step t+1
    consumes target t (teacher forcing); without, it consumes the argmax of
    step t's logits, and the loop stops once every row has emitted EOS.
    Returns (logits per step, attention weights per step, argmax ids
    [B, steps run]); only the logits carry gradients, and only with targets.
    """
    b, e = memories[0].shape
    m_states = np.stack([t.data for t in memories], axis=1).reshape(b * len(memories), e)
    emb, out_w, out_b = params.embedding, params.out_w, params.out_b
    rec = _Recurrence(m_states, None, memories[-1].data, params.decoder_cell,
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
        return None, rec.weights(), ids[1:n + 1].T

    def back(*dlogits):
        dl = np.stack([np.zeros((b, out_w.shape[1]), logits.dtype) if g is None else g
                       for g in dlogits])
        outs = rec.h[1:n + 1, -1]
        da0, d_states, d_first, grads = rec.backward(dl @ out_w.data.T)
        d_emb = np.zeros_like(emb.data)
        np.add.at(d_emb, ids[:n].reshape(-1), (da0 @ rec.layers[0][0].T).reshape(-1, e))
        d_mem = list(d_states.reshape(b, len(memories), e).transpose(1, 0, 2))
        d_mem[-1] = d_mem[-1] + d_first
        return (*d_mem, d_emb, *grads,
                outs.reshape(-1, e).T @ dl.reshape(-1, dl.shape[2]), dl.sum(axis=(0, 1)))

    inputs = (*memories, emb, *rec.params(), out_w, out_b)
    return _emit_all(list(logits[:n]), "decoder_layer", inputs, back), rec.weights(), None


def decode_teacher_forced(memories, targets, params: ModelParams):
    """Gold tokens drive the decoder (`decoder_layer`); one logit row per
    target position.

    Step 1 consumes the GO embedding, step t+1 the embedding of target t.
    Returns (logits per step, attention weights per step).
    """
    if targets is None:
        raise ContractError("teacher-forced decoding needs gold targets")
    tgt = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    if tgt.shape[1] == 0:
        raise ContractError("teacher-forced decoding needs at least one target position")
    if tgt.shape[0] != memories[0].shape[0]:
        raise ShapeError(f"{tgt.shape[0]} target rows for {memories[0].shape[0]} memory rows")
    if tgt.min() < 0 or tgt.max() >= params.embedding.shape[0]:
        raise IndexError(f"target id outside vocabulary of size {params.embedding.shape[0]}")
    logits, weights, _ = decoder_layer(memories, params, tgt.shape[1], tgt)
    return logits, weights


def decode_greedy(memories, params: ModelParams, config: ModelConfig):
    """Free-running greedy decode (`decoder_layer`); halts at EOS (all rows)
    or the length cap.

    Returns (tokens [B, steps], attention weights per step).
    """
    _, weights, tokens = decoder_layer(memories, params, config.max_answer_len + 1)
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
    h_que = encode_question(batch.question, batch.question_mask, params, config)
    h_sen, h_sen_final, _ = encode_document(
        batch.sentences, batch.sentence_word_mask, batch.sentence_rows, batch.sentence_mask,
        h_que, params, config)
    memories, _, _ = memory_module(
        h_que, h_sen, batch.sentence_mask, h_sen_final, params, config)
    logits_per_step, _ = decode_teacher_forced(memories, batch.answer, params)

    per_row = None
    for t, logits in enumerate(logits_per_step):
        ce = cross_entropy_rows(logits, batch.answer[:, t])
        term = mul(ce, constant(batch.answer_mask[:, t].astype(ce.dtype)))
        per_row = term if per_row is None else add(per_row, term)
    n_positions = int(batch.answer_mask.sum())
    loss = scale(sum_all(per_row), 1.0 / n_positions)
    return ForwardResult(loss, n_positions)


def _build_records(batch, predictions, mem_weights, mem_contexts, dec_weights):
    records = []
    for i, real in enumerate(batch.sentence_mask):
        n_sent = int(real.sum())
        mem = np.stack([w.data[i, :n_sent] for w in mem_weights])
        ctx = np.stack([c.data[i] for c in mem_contexts])
        t_i = min(len(predictions[i]) + 1, len(dec_weights))
        dec = np.stack([w.data[i] for w in dec_weights[:t_i]])
        records.append(AttentionRecord(mem, dec, ctx))
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
    read whose ``sentence_rows`` index the whole table.
    Returns (predictions, records) where records is None unless asked for.
    """
    h_que = encode_question(batch.question, batch.question_mask, params, config)
    h_sen, h_sen_final, _ = encode_document(
        batch.sentences, batch.sentence_word_mask, batch.sentence_rows, batch.sentence_mask,
        h_que, params, config, kept)
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
    with open(path, "wb") as fh:
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


def _file_arrays(params: ModelParams):
    """(name, array) of every array in the file, in file order. The file
    keeps each GRU cell's w, u and b as three per-gate arrays (w_z, w_r,
    w_h, ...), here views of their columns of ``params``."""
    for name, t in params.named_parameters():
        if name.split(".")[0] in _STACKS:
            yield from zip((name + g for g in _GATES), np.split(t.data, 3, axis=-1))
        else:
            yield name, t.data


def _param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape of every array in the file of a ``config`` model, without creating any."""
    e, v = config.size, config.vocab_size
    gate = {"w": (e, e), "u": (e, e), "b": (e,)}  # one gate's part of a cell's array
    att = {"w1": (e, e), "w2": (e, e), "v": (e, 1), "proj": (2 * e, e)}
    return {"embedding": (v, e),
            **{f"{s}.{i}.{n}{g}": c for s in _STACKS for i in range(config.depth)
               for n, c in gate.items() for g in _GATES},
            **{f"{a}.{n}": c for a in ("memory_attention", "decoder_attention")
               for n, c in att.items()},
            "out_w": (e, v), "out_b": (v,)}


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
    return Checkpoint(_params_from_file(arrays, config), config, vocab)


def _params_from_file(arrays: dict, config: ModelConfig) -> ModelParams:
    """`ModelParams` holding copies of the file's (checked) arrays, each GRU
    cell's per-gate arrays joined gate-major (the inverse of `_file_arrays`)."""
    def param(*names):
        parts = [arrays[n] for n in names]
        t = _wrap(np.concatenate(parts, axis=-1, dtype=np.float32) if len(parts) > 1
                  else parts[0].astype(np.float32))
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
    shapes = _param_shapes(config)
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
