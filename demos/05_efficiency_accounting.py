# The efficiency argument, made countable.
#
# The memory module attends over sentence states instead of re-reading
# the input per memory step. Count forward multiply-accumulates two ways
# (closed form, and counters instrumented into the tensor ops) and
# compare against a re-reading baseline that re-encodes the words for
# every memory it produces.

import tempfile
from pathlib import Path

import numpy as np

from amnet.analysis import count_ops, instrument_ops
from amnet.data import batchify, build_vocabulary, parse_babi_file
from amnet.model import ModelConfig, encode_document, encode_question, init_params
from amnet.synthetic import generate_task
from amnet.tensor import MacCounter


def show(config, shape, label):
    formula = count_ops(config, shape)
    measured = instrument_ops(config, shape)
    print(f"-- {label}: |S|={shape[0]} sentences, {shape[1]} words each --")
    print(f"{'component':<24}{'formula':>12}{'instrumented':>14}")
    for field in ("question_encoder", "word_level_encoder", "sentence_level_encoder",
                  "memory_module", "decoder"):
        print(f"{field:<24}{getattr(formula, field):>12}{getattr(measured, field):>14}")
    print(f"{'re-reading baseline':<24}{formula.baseline_memory:>12}"
          f"{measured.baseline_memory:>14}")
    print(f"memory/baseline ratio: {formula.ratio:.4f}")
    print()


config = ModelConfig(size=32, depth=1, memories=3, vocab_size=40,
                     max_sentence_len=12, max_answer_len=1)

show(config, (20, 12, 5, 1), "20 sentences of 12 words")

# the attend-only module never touches words: double them, nothing moves
a = count_ops(config, (20, 12, 5, 1))
b = count_ops(config, (20, 24, 5, 1))
print(f"memory-module MACs at 12 words/sentence: {a.memory_module}")
print(f"memory-module MACs at 24 words/sentence: {b.memory_module}  (identical)")
print(f"baseline MACs grow instead: {a.baseline_memory} -> {b.baseline_memory}")
print()

print("ratio vs story length (size 32, one memory step):")
one = ModelConfig(size=32, depth=1, memories=1, vocab_size=40,
                  max_sentence_len=12, max_answer_len=1)
for s in (2, 5, 10, 20, 50, 100):
    r = count_ops(one, (s, 12, 5, 1))
    print(f"  |S|={s:>3}: memory {r.memory_module:>9} vs baseline "
          f"{r.baseline_memory:>10}  ratio {r.ratio:.4f}")
print()

# The word level reads each distinct sentence of a batch once: a padded
# task-1 training batch repeats most of its sentence rows (the first
# statements of a story recur in each of its questions, and short stories
# pad with all-PAD rows), so reading per distinct row spends far fewer
# MACs than the per-example formula, which prices every slot.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "qa1.txt"
    path.write_text("\n".join(generate_task(1, 1000, seed=0)) + "\n", encoding="utf-8")
    examples = parse_babi_file(path)
vocab = build_vocabulary(examples)
batch = batchify(vocab.encode_examples(examples), 50, seed=0)[0]
b, s, lw = batch.story.shape
task1 = ModelConfig(size=32, depth=1, memories=1, vocab_size=len(vocab),
                    max_sentence_len=lw, max_answer_len=1)
params = init_params(task1)
h_que = encode_question(batch.question, batch.question_mask, params, task1)


def document_macs(sentences, word_mask, rows):
    with MacCounter() as c:
        encode_document(sentences, word_mask, rows, batch.sentence_mask, h_que, params, task1)
    return c.total


per_slot = document_macs(batch.story.reshape(b * s, lw), batch.word_mask.reshape(b * s, lw),
                         np.arange(b * s).reshape(b, s))
per_row = document_macs(batch.sentences, batch.sentence_word_mask, batch.sentence_rows)
f = count_ops(task1, (s, lw, batch.question.shape[1], 1))
print(f"one task-1 batch: {b} stories x {s} sentence slots = {b * s} slots, "
      f"{int(batch.sentence_mask.sum())} real, {len(batch.sentences)} distinct rows")
print("document encoder MACs (word level + sentence level):")
print(f"  {'formula, every slot':<24}{b * (f.word_level_encoder + f.sentence_level_encoder):>10}")
print(f"  {'read per slot':<24}{per_slot:>10}")
print(f"  {'read per distinct row':<24}{per_row:>10}  ({per_row / per_slot:.2f} of per slot)")
