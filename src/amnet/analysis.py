"""Efficiency accounting, attention dumps, symbolic oracle, task reproduction.

The efficiency claim is made testable with one declared metric: forward
multiply-accumulates (MACs), counting matrix products and elementwise
multiplies only (nonlinearities and softmax normalization are free).
Closed-form counts are checked against counters instrumented into the
tensor ops. The re-reading baseline models a memory module that runs a
GRU pass over the input for every memory it produces, re-encoding words
each pass; the attend-only memory module reads the input once and only
attends per step, so its cost has no word term at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from amnet.data import EOS, TASK_NAMES, DataError, _padded, find_task_file, load_task_data
from amnet.gru import run_sequence
from amnet.model import (
    AttentionRecord, ModelConfig, decode_teacher_forced, encode_document,
    encode_question, init_params, memory_module,
)
from amnet.tensor import MacCounter, Tensor

__all__ = [
    "NoAnswerError", "OpCountReport", "REFERENCE_ERROR", "TASK_SETTINGS", "TASK_NAMES",
    "SOLVED_THRESHOLD", "attend_macs", "count_ops", "export_attention",
    "gru_step_macs", "instrument_ops", "oracle_task1", "reproduce_tasks",
    "stack_macs",
]

SOLVED_THRESHOLD = 0.05

# per task: embedding/state size, stack depth, memory steps, batch budget
TASK_SETTINGS = {
    1: (32, 1, 1, 1_000), 2: (64, 2, 3, 12_200), 3: (64, 2, 3, 14_000),
    4: (32, 1, 1, 1_200), 5: (32, 1, 2, 3_000), 6: (32, 1, 1, 3_800),
    7: (32, 1, 3, 5_000), 8: (32, 1, 1, 4_400), 9: (32, 1, 2, 3_200),
    10: (32, 1, 1, 3_800), 11: (32, 1, 2, 1_400), 12: (32, 1, 1, 1_200),
    13: (32, 1, 1, 10_000), 14: (64, 2, 1, 6_000), 15: (32, 1, 1, 2_200),
    16: (64, 1, 2, 10_200), 17: (32, 1, 3, 6_200), 18: (32, 1, 3, 2_400),
    19: (64, 1, 1, 13_000), 20: (32, 1, 3, 3_600),
}

# reference error rates (percent) for the attentive model
REFERENCE_ERROR = {
    1: 0.0, 2: 4.1, 3: 29.1, 4: 0.0, 5: 0.7, 6: 0.2, 7: 3.1, 8: 0.3, 9: 0.0,
    10: 0.1, 11: 0.0, 12: 0.0, 13: 0.0, 14: 3.6, 15: 0.0, 16: 45.4, 17: 1.6,
    18: 0.9, 19: 0.3, 20: 0.0,
}


# ---------------------------------------------------------------------------
# multiply-accumulate accounting


def gru_step_macs(d_in: int, d: int) -> int:
    """Six matrix products plus the three elementwise gate blends."""
    return 3 * (d_in * d + d * d + d)


def stack_macs(d_in: int, d: int, depth: int) -> int:
    return gru_step_macs(d_in, d) + (depth - 1) * gru_step_macs(d, d)


def attend_macs(k: int, e: int) -> int:
    """One query over k states whose keys (W1 per state, k*e*e, once per
    recurrence) are projected: W2, score dot, context mix, projection."""
    return e * e + 2 * k * e + 2 * e * e


@dataclass
class OpCountReport:
    question_encoder: int
    word_level_encoder: int
    sentence_level_encoder: int
    memory_module: int
    decoder: int
    baseline_memory: int

    @property
    def total(self) -> int:
        return (self.question_encoder + self.word_level_encoder +
                self.sentence_level_encoder + self.memory_module + self.decoder)

    @property
    def ratio(self) -> float:
        return self.memory_module / self.baseline_memory


def count_ops(config: ModelConfig, story_shape) -> OpCountReport:
    """Closed-form forward MAC counts for one example.

    ``story_shape`` is (sentences, words_per_sentence, question_len,
    answer_len); the decoder runs answer_len + 1 steps (tokens then EOS).
    The memory module projects its attention keys and its question input
    once, and runs the rest of its cell and attention at each of m steps.
    """
    s, w, q, answer_len = story_shape
    e, depth, m = config.size, config.depth, config.memories
    cell = stack_macs(e, e, depth)
    query = 3 * e * e  # the memory cell's input projection of the question, made once
    return OpCountReport(
        question_encoder=q * cell,
        word_level_encoder=s * w * cell,
        sentence_level_encoder=2 * s * cell,
        memory_module=s * e * e + query + m * (cell - query + attend_macs(s, e)),
        decoder=m * e * e + (answer_len + 1) * (cell + attend_macs(m, e) + e * config.vocab_size),
        baseline_memory=m * s * (w + 1) * cell,
    )


def instrument_ops(config: ModelConfig, story_shape, seed: int = 0) -> OpCountReport:
    """Run the real phases on a synthetic example, counting MACs per phase.

    The question and the story are read in one `encode_document` call, the
    question as the last row of the word table. The question and word-level
    columns re-read the question and the story alone with the tied encoder
    (`encode_question`); the sentence level is the call less a re-read of
    its whole table.
    The baseline column runs the re-reading accounting model with real
    tensor ops too: per memory step, re-encode every sentence at word
    level, then one GRU pass over the sentence vectors.
    """
    s, w, q, answer_len = story_shape
    rng = np.random.default_rng(seed)
    params = init_params(config, seed=seed)
    tok = lambda shape: rng.integers(4, config.vocab_size, size=shape)

    question, story = tok((1, q)), tok((s, w))
    table, lengths = _padded([*story.tolist(), *question.tolist()], max(w, q))
    with MacCounter() as c_doc:
        h_que, h_sen, h_final, _ = encode_document(table, lengths, np.arange(s), None, [s],
                                                   params, config)
    with MacCounter() as c_table:
        encode_question(table, lengths, params, config)
    with MacCounter() as c_q:
        encode_question(question, None, params, config)
    with MacCounter() as c_word:
        encode_question(story, None, params, config)
    with MacCounter() as c_mem:
        memories, _, _ = memory_module(h_que, h_sen, None, h_final, params, config)
    with MacCounter() as c_dec:
        targets = np.concatenate([tok((1, answer_len)), [[EOS]]], axis=1)
        decode_teacher_forced(memories, targets, params)

    with MacCounter() as c_base:
        state = Tensor(np.zeros((1, config.size), dtype=params.dtype))
        for _ in range(config.memories):
            vecs = encode_question(story, None, params, config)
            _, state = run_sequence(vecs, state, params.memory_cell)

    return OpCountReport(
        question_encoder=c_q.total,
        word_level_encoder=c_word.total,
        sentence_level_encoder=c_doc.total - c_table.total,
        memory_module=c_mem.total,
        decoder=c_dec.total,
        baseline_memory=c_base.total,
    )


# ---------------------------------------------------------------------------
# attention dumps


def export_attention(record: AttentionRecord, story_sentences, path,
                     decoded_tokens=None) -> None:
    """Write a heatmap TSV: section, step, index, weight, text.

    The memory section has one row per (memory step, sentence); the
    decoder section one row per (decode step, memory).
    """
    sentences = list(story_sentences)
    m, s = record.memory_attention.shape
    if len(sentences) != s:
        raise ValueError(f"{len(sentences)} sentences for {s} attention columns")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("section\tstep\tindex\tweight\ttext\n")
        for i in range(m):
            for j in range(s):
                fh.write(f"memory\t{i + 1}\t{j + 1}\t{record.memory_attention[i, j]:.6f}"
                         f"\t{sentences[j]}\n")
        for t in range(record.decoder_attention.shape[0]):
            text = ""
            if decoded_tokens is not None and t < len(decoded_tokens):
                text = decoded_tokens[t]
            for j in range(record.decoder_attention.shape[1]):
                fh.write(f"decoder\t{t + 1}\t{j + 1}"
                         f"\t{record.decoder_attention[t, j]:.6f}\t{text}\n")


# ---------------------------------------------------------------------------
# symbolic oracle for the location-tracking task


class NoAnswerError(LookupError):
    """The questioned entity never appears in a movement statement."""


_MOVE_VERBS = frozenset({"moved", "went", "journeyed", "travelled", "traveled"})


def oracle_task1(story_sentences, question) -> str:
    """Ground truth for "where is X": the location X last moved to.

    Statements look like "x moved/went/journeyed/travelled [back] to the L";
    anything else is ignored.
    """
    question = [t.lower() for t in question]
    if not question:
        raise NoAnswerError("empty question")
    who = question[-1]
    for sentence in reversed(list(story_sentences)):
        toks = [t.lower() for t in sentence]
        if (len(toks) >= 5 and toks[0] == who and toks[1] in _MOVE_VERBS
                and toks[-3:-1] == ["to", "the"]):
            return toks[-1]
    raise NoAnswerError(f"no movement statement mentions {who!r}")


# ---------------------------------------------------------------------------
# end-to-end reproduction


@dataclass
class TaskReport:
    task: int
    name: str
    error_rate: float
    solved: bool
    batches_used: int
    seconds: float


def _run_task(data_dir, task: int, budget_multiplier: float, seed: int,
              lr: float, max_grad_norm: float) -> TaskReport:
    from amnet.training import TrainConfig, evaluate, train

    size, depth, mem, budget = TASK_SETTINGS[task]
    data = load_task_data(data_dir, task)
    config = ModelConfig(size=size, depth=depth, memories=mem, vocab_size=len(data.vocab),
                         max_sentence_len=data.max_sentence_len,
                         max_answer_len=data.max_answer_len)
    cfg = TrainConfig(lr=lr, max_grad_norm=max_grad_norm,
                      max_batches=max(1, int(round(budget * budget_multiplier))),
                      target_val_error=0.0, seed=seed)
    t0 = time.perf_counter()
    result = train(config, cfg, data)
    error = evaluate(result.params, config, data.test) if data.test else result.best_val_error
    return TaskReport(task, TASK_NAMES[task], error, error < SOLVED_THRESHOLD,
                      result.batches, time.perf_counter() - t0)


def reproduce_tasks(data_dir, tasks, budget_multiplier: float = 1.0, seed: int = 0,
                     lr: float = 0.01, max_grad_norm: float = 5.0,
                     jobs: int = 1, out_path=None):
    """Train each task with its bundled reference settings and report test error.

    Raises up front ConfigError for a bad lr, clip or seed, and DataError,
    listing every missing file, if any task's data is absent.
    ``budget_multiplier`` scales the per-task batch budget.
    """
    from amnet.training import TrainConfig

    TrainConfig(lr=lr, max_grad_norm=max_grad_norm, seed=seed)
    tasks = list(tasks)
    unknown = [t for t in tasks if t not in TASK_SETTINGS]
    if unknown:
        raise DataError(f"unknown tasks {unknown}; valid ids are 1..20")
    missing = []
    for t in tasks:
        for split in ("train", "test"):
            try:
                find_task_file(data_dir, t, split)
            except DataError as exc:
                missing.append(str(exc))
    if missing:
        raise DataError("missing bAbi data:\n" + "\n".join(missing))

    args = [(data_dir, t, budget_multiplier, seed, lr, max_grad_norm) for t in tasks]
    # a worker beyond one per task would only idle, and the fork start
    # method starts every worker at the first submit
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_task, *zip(*args)))
    else:
        reports = [_run_task(*a) for a in args]
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("task\tname\terror_rate\tsolved\tbatches_used\tseconds\n")
            for r in reports:
                fh.write(f"{r.task}\t{r.name}\t{r.error_rate:.4f}\t{str(r.solved).lower()}"
                         f"\t{r.batches_used}\t{r.seconds:.1f}\n")
    return reports
