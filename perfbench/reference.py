"""A float64 forward pass of the attentive memory network, written apart
from `amnet.tensor`, `amnet.gru` and `amnet.model`.

It reads the AMN1 checkpoint file itself and answers one question the
way `amn ask` does: question GRU, word GRU per sentence, bidirectional
sentence GRU started from the question state, m attentive memory steps,
then a greedy attentive decoder. Word vectors are cached per statement,
since they do not depend on the question.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from stories import tokenize

GO, EOS, UNK = 1, 2, 3
RESERVED = ("<pad>", "<go>", "<eos>", "<unk>")
GATES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


def read_checkpoint(path):
    """(config dict, id_to_token list, {name: float64 array}) from an AMN1 file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(fmt):
        nonlocal pos
        vals = struct.unpack_from(fmt, raw, pos)
        pos += struct.calcsize(fmt)
        return vals

    if raw[:4] != b"AMN1":
        raise ValueError(f"{path}: not an AMN1 checkpoint")
    pos = 4
    take("<H")
    fields = {}
    for _ in range(take("<I")[0]):
        (n,) = take("<I")
        key, _, value = raw[pos:pos + n].decode("utf-8").partition("=")
        pos += n
        fields[key] = value
    arrays = {}
    for _ in range(take("<I")[0]):
        (n,) = take("<I")
        name = raw[pos:pos + n].decode("utf-8")
        pos += n
        (rank,) = take("<B")
        dims = take(f"<{rank}I")
        count = int(np.prod(dims, dtype=np.int64))
        arrays[name] = np.frombuffer(raw, "<f4", count, pos).reshape(dims).astype(np.float64)
        pos += 4 * count
    vocab = list(RESERVED) + fields.get("vocab", "").split()
    config = {k: int(fields[k]) for k in ("size", "depth", "memories", "max_answer_len")}
    return config, vocab, arrays


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class Answer:
    tokens: list[str]
    focus: int                  # index of the statement the last memory step attends most
    answer_margin: float        # smallest top-two logit gap over the decode steps
    focus_margin: float         # top-two gap of the last memory attention row
    attention_rows: list[np.ndarray]
    decode_steps: int


class ReferenceModel:
    def __init__(self, path):
        self.config, self.vocab, self.a = read_checkpoint(path)
        self.ids = {t: i for i, t in enumerate(self.vocab)}
        self.depth = self.config["depth"]
        self._word_cache: dict[tuple, np.ndarray] = {}

    def _layers(self, prefix):
        return [[self.a[f"{prefix}.{i}.{g}"] for g in GATES] for i in range(self.depth)]

    @staticmethod
    def _gru(x, h, p):
        wz, wr, wh, uz, ur, uh, bz, br, bh = p
        z = _sigmoid(x @ wz + h @ uz + bz)
        r = _sigmoid(x @ wr + h @ ur + br)
        cand = np.tanh(x @ wh + (r * h) @ uh + bh)
        return (1.0 - z) * h + z * cand

    def _run(self, inputs, h0, prefix):
        """Stacked GRU over a list of vectors; returns the top layer's states.

        The input projections of a layer are computed for all steps at once.
        """
        layer_in = np.stack(inputs)
        for li, (wz, wr, wh, uz, ur, uh, bz, br, bh) in enumerate(self._layers(prefix)):
            xz, xr, xh = layer_in @ wz + bz, layer_in @ wr + br, layer_in @ wh + bh
            h = h0 if li == 0 else np.zeros_like(h0)
            states = np.empty((len(layer_in), len(h0)))
            for t in range(len(layer_in)):
                z = _sigmoid(xz[t] + h @ uz)
                r = _sigmoid(xr[t] + h @ ur)
                h = (1.0 - z) * h + z * np.tanh(xh[t] + (r * h) @ uh)
                states[t] = h
            layer_in = states
        return layer_in

    def _encode(self, ids):
        e = self.config["size"]
        emb = self.a["embedding"]
        return self._run([emb[i] for i in ids], np.zeros(e), "encoder")[-1]

    def _attentive_step(self, x, hs, states, cell, att):
        new, inp = [], x
        for h, p in zip(hs, self._layers(cell)):
            inp = self._gru(inp, h, p)
            new.append(inp)
        cand = new[-1]
        u = np.tanh(states @ self.a[f"{att}.w1"] + cand @ self.a[f"{att}.w2"])
        u = (u @ self.a[f"{att}.v"])[:, 0]
        w = np.exp(u - u.max())
        w /= w.sum()
        out = np.concatenate([w @ states, cand]) @ self.a[f"{att}.proj"]
        new[-1] = out
        return out, new, w

    def word_vector(self, sentence_ids) -> np.ndarray:
        key = tuple(sentence_ids)
        vec = self._word_cache.get(key)
        if vec is None:
            vec = self._word_cache[key] = self._encode(sentence_ids)
        return vec

    def encode_tokens(self, tokens) -> list[int]:
        return [self.ids.get(t, UNK) for t in tokens]

    def answer(self, statements, question) -> Answer:
        """``statements`` and ``question`` are raw text, as typed into `amn ask`."""
        e = self.config["size"]
        h_q = self._encode(self.encode_tokens(tokenize(question)))
        vecs = [self.word_vector(self.encode_tokens(tokenize(s))) for s in statements]
        fwd = self._run(vecs, h_q, "sentence_fwd")
        bwd = self._run(vecs[::-1], h_q, "sentence_bwd")[::-1]
        states = fwd + bwd
        final = fwd[-1] + bwd[0]

        zeros = [np.zeros(e) for _ in range(self.depth - 1)]
        hs, memories, rows = [final] + zeros, [], []
        for _ in range(self.config["memories"]):
            out, hs, w = self._attentive_step(h_q, hs, states, "memory_cell",
                                              "memory_attention")
            memories.append(out)
            rows.append(w)
        m_states = np.stack(memories)
        hs, prev, tokens, margin = [memories[-1]] + zeros, GO, [], np.inf
        steps = 0
        for _ in range(self.config["max_answer_len"] + 1):
            out, hs, w = self._attentive_step(self.a["embedding"][prev], hs, m_states,
                                              "decoder_cell", "decoder_attention")
            rows.append(w)
            logits = out @ self.a["out_w"] + self.a["out_b"]
            top2 = np.sort(logits)[-2:]
            margin = min(margin, top2[1] - top2[0])
            prev = int(logits.argmax())
            steps += 1
            if prev == EOS:
                break
            tokens.append(self.vocab[prev])
        last = np.sort(rows[self.config["memories"] - 1])
        focus_margin = last[-1] - last[-2] if len(last) > 1 else np.inf
        return Answer(tokens, int(rows[self.config["memories"] - 1].argmax()),
                      float(margin), float(focus_margin), rows, steps)


# Margins below these are ties the float32 program may break either way;
# validate() measures the real float32-vs-float64 gaps, which sit far below.
ANSWER_TIE = 1e-3
FOCUS_TIE = 2e-5


def validate(out_dir, cases: int = 6, seed: int = 0) -> list[str]:
    """Compare the reference with `predict_batch` on small random configs
    (depth 1-2, memories 1-3); returns a list of disagreements."""
    from amnet.data import EncodedExample, Vocabulary, make_batch
    from amnet.model import ModelConfig, init_params, predict_batch, save_checkpoint

    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(12)]
    problems = []
    for case in range(cases):
        cfg = ModelConfig(size=int(rng.choice([8, 16])), depth=1 + case % 2,
                          memories=1 + case % 3, vocab_size=len(words) + 4,
                          max_sentence_len=6, max_answer_len=1 + case % 2)
        params = init_params(cfg, seed=int(rng.integers(1 << 30)))
        path = out_dir / f"reference-check-{case}.ckpt"
        save_checkpoint(params, cfg, path, Vocabulary(words))
        ref = ReferenceModel(path)
        path.unlink()
        statements = [" ".join(rng.choice(words, size=int(rng.integers(1, 7))))
                      for _ in range(int(rng.integers(1, 12)))]
        question = " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
        want = ref.answer(statements, question)
        ex = EncodedExample(
            story=[ref.encode_tokens(s.split()) for s in statements],
            line_numbers=list(range(1, len(statements) + 1)),
            question=ref.encode_tokens(question.split()), answer=[0], supporting=[])
        preds, records = predict_batch(make_batch([ex]), params, cfg, want_records=True)
        got_rows = list(records[0].memory_attention) + list(records[0].decoder_attention)
        gap = max(np.abs(g - w).max() for g, w in zip(got_rows, want.attention_rows))
        if len(got_rows) != len(want.attention_rows) or gap > 1e-4:
            problems.append(f"case {case}: attention differs by {gap:.3g}")
        for w in want.attention_rows:
            if abs(w.sum() - 1.0) > 1e-9:
                problems.append(f"case {case}: reference attention row sums to {w.sum()}")
        got = [ref.vocab[i] for i in preds[0]]
        if want.answer_margin > ANSWER_TIE and got != want.tokens:
            problems.append(f"case {case}: predict_batch {got} vs reference {want.tokens}")
    return problems
