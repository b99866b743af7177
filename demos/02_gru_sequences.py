# GRU cells and padded sequence running.
#
# States are batch-first [B, d]; a sequence of n steps is one [B*n, d_in]
# tensor (row b*n+t is step t of row b), and one GRU layer's pass over it
# is a single tape op.
# A row's length counts its real steps, which precede its padding. Padded
# steps are computed like any other, but nothing real depends on them: the
# final state is taken at the last real step, and the reversed direction
# reads each row's real steps from the last one down before its padding,
# so batches of ragged stories stay exact.

import numpy as np

from amnet.gru import GruParams, StackSpec, gru_step, run_bidirectional, run_sequence
from amnet.tensor import Tensor

rng = np.random.default_rng(1)
d = 4

print("-- one step, all parameters zero: gates sit at 1/2 --")
zeros = lambda *s: Tensor(np.zeros(s))
# W, U and b hold the gates z | r | h~ side by side, d columns each
p0 = GruParams(zeros(d, 3 * d), zeros(d, 3 * d), zeros(3 * d))
h = Tensor([[1.0, -2.0, 0.5, 4.0]])
out = gru_step(Tensor(np.ones((1, d))), h, p0)
print("h_prev:", h.data[0], "-> h:", out.data[0], "(exactly half)")

print()
print("-- padding: the final state is the state at the last real step --")
spec = StackSpec([GruParams.create(d, d, rng, dtype=np.float64)])
steps = Tensor(rng.normal(size=(4, d)))  # one row (B=1), four steps
states, final = run_sequence(steps, Tensor(np.zeros((1, d))), spec, lengths=[2])
print("state after step 2:", np.round(states.data[1], 4))
print("final (2 padded steps ignored):", np.round(final.data[0], 4))

print()
print("-- bidirectional fusion is just the sum of both directions --")
fwd = StackSpec([GruParams.create(d, d, rng, dtype=np.float64)])
bwd = StackSpec([GruParams.create(d, d, rng, dtype=np.float64)])
h0 = Tensor(np.zeros((1, d)))
states, final = run_bidirectional(steps, h0, h0, fwd, bwd)
f_states, f_final = run_sequence(steps, h0, fwd)
# the backward direction by hand: read the steps from the last one down
b_states, b_final = run_sequence(Tensor(steps.data[::-1].copy()), h0, bwd)
manual = f_final.data + b_final.data
print("fused final:", np.round(final.data[0], 4))
print("fwd + bwd  :", np.round(manual[0], 4))

print()
print("-- a palindrome reads the same from both ends (shared params) --")
a, b = rng.normal(size=(1, d)), rng.normal(size=(1, d))
pal = Tensor(np.vstack([a, b, a]))
states, _ = run_bidirectional(pal, h0, h0, fwd, fwd)
print("state[0] == state[2]:",
      bool(np.allclose(states.data[0], states.data[2])))
