# A walkthrough of the whole network on one tiny story, phase by phase:
# one word-level read of question and statements -> sentence-level
# encoder -> attentive memory steps -> attending answer decoder. The
# attention rows are probability distributions you can read directly.

import numpy as np

from amnet.data import EOS, EncodedExample, Vocabulary, make_batch
from amnet.model import (
    ModelConfig, decode_greedy, encode_document, forward_example,
    init_params, memory_module,
)

vocab = Vocabulary("mary john moved went to the bathroom hallway where is".split())
tok = lambda text: vocab.encode(text.split())

story = ["mary moved to the bathroom", "john went to the hallway"]
question = "where is mary"
answer = "bathroom"
ex = EncodedExample(story=[tok(s) for s in story], line_numbers=[1, 2],
                    question=tok(question), answer=tok(answer), supporting=[0])

config = ModelConfig(size=16, depth=1, memories=2, vocab_size=len(vocab),
                     max_sentence_len=5, max_answer_len=1)
params = init_params(config, seed=4)
batch = make_batch([ex])

print("story:    ", story)
print("question: ", question)
print()

# one word-level read of the batch's table: the statements and the question
h_que, h_sen, h_final, n_sent = encode_document(
    batch.sentences, batch.sentence_word_mask, batch.sentence_rows, batch.sentence_mask,
    batch.question_rows, params, config)
print("question state: shape", h_que.shape, "norm %.3f" % np.linalg.norm(h_que.data))
print("sentence states:", h_sen.shape, f"({n_sent} sentences x {config.size} dims)")

memories, weights, _ = memory_module(h_que, h_sen, batch.sentence_mask,
                                     h_final, params, config)
print("memories:", memories.shape, f"({config.memories} steps x {config.size} dims)")
for i, w in enumerate(weights[:, 0], 1):  # weights: [steps, batch, sentences]
    print(f"memory step {i} attention over sentences: {np.round(w, 3)}"
          f"  (sums to {w.sum():.6f})")

tokens, dec_weights = decode_greedy(memories, params, config)
decoded = vocab.decode([t for t in tokens[0] if t != EOS])
print("untrained greedy decode:", decoded or ["(empty)"])

loss, prediction, record = forward_example(ex, params, config)
print()
print(f"teacher-forced loss: {float(loss.data):.3f} "
      f"(~ln |V| = {np.log(len(vocab)):.3f} before training)")
print("memory attention record shape:", record.memory_attention.shape)
print("decoder attention record shape:", record.decoder_attention.shape)
