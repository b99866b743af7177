"""GRU cells, stacked cells, and masked sequence runners.

All state is batch-first: a hidden state is a [B, d] tensor, a sequence
is a Python list of per-step [B, d_in] tensors (the tape is define-by-run,
so steps are separate ops anyway). Single-example code just uses B = 1.

Padding semantics: a masked step copies the previous state forward, so
the carried state after the last step equals the state at the last real
position, for every row of the batch independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from amnet.tensor import (
    ContractError, Tensor, add, constant, matmul, mul, one_minus, sigmoid, tanh,
)

__all__ = [
    "ConfigError", "GruParams", "StackSpec",
    "gru_step", "run_sequence", "run_bidirectional", "apply_dropout",
]


class ConfigError(ValueError):
    """A configuration value is outside its allowed range."""


@dataclass
class GruParams:
    """One GRU cell: update gate z, reset gate r, candidate h."""

    w_z: Tensor  # [d_in, d]
    w_r: Tensor
    w_h: Tensor
    u_z: Tensor  # [d, d]
    u_r: Tensor
    u_h: Tensor
    b_z: Tensor  # [d]
    b_r: Tensor
    b_h: Tensor

    def __post_init__(self):
        d_in, d = self.w_z.shape
        want = {"w_z": (d_in, d), "w_r": (d_in, d), "w_h": (d_in, d),
                "u_z": (d, d), "u_r": (d, d), "u_h": (d, d),
                "b_z": (d,), "b_r": (d,), "b_h": (d,)}
        for name, t in self.named():
            if t.shape != want[name]:
                raise ConfigError(f"gru parameter {name} has shape {t.shape}, expected {want[name]}")

    @property
    def d_in(self) -> int:
        return self.w_z.shape[0]

    @property
    def d(self) -> int:
        return self.w_z.shape[1]

    def named(self):
        for name in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h"):
            yield name, getattr(self, name)

    @classmethod
    def create(cls, d_in: int, d: int, rng: np.random.Generator,
               dtype=np.float32) -> "GruParams":
        def w(rows, cols):
            return Tensor(rng.uniform(-0.5, 0.5, (rows, cols)).astype(dtype),
                          requires_grad=True)

        def b():
            return Tensor(np.zeros(d, dtype=dtype), requires_grad=True)

        return cls(w(d_in, d), w(d_in, d), w(d_in, d),
                   w(d, d), w(d, d), w(d, d), b(), b(), b())


@dataclass
class StackSpec:
    """1 to 3 GRU cells, layer k consuming layer k-1's output states."""

    layers: list[GruParams] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("a cell stack needs at least one layer")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def d(self) -> int:
        return self.layers[0].d

    def named(self, prefix: str):
        for i, layer in enumerate(self.layers):
            for name, t in layer.named():
                yield f"{prefix}.{i}.{name}", t

    @classmethod
    def create(cls, d_in: int, d: int, depth: int, rng: np.random.Generator,
               dtype=np.float32) -> "StackSpec":
        layers = [GruParams.create(d_in if i == 0 else d, d, rng, dtype) for i in range(depth)]
        return cls(layers)


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """z = sig(xW_z + hU_z + b_z); r = sig(xW_r + hU_r + b_r);
    h~ = tanh(xW_h + (r*h)U_h + b_h); h = (1-z)*h + z*h~."""
    z = sigmoid(add(add(matmul(x, p.w_z), matmul(h_prev, p.u_z)), p.b_z))
    r = sigmoid(add(add(matmul(x, p.w_r), matmul(h_prev, p.u_r)), p.b_r))
    h_tilde = tanh(add(add(matmul(x, p.w_h), matmul(mul(r, h_prev), p.u_h)), p.b_h))
    return add(mul(one_minus(z), h_prev), mul(z, h_tilde))


def apply_dropout(states: Tensor, rate: float, training: bool,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with prob ``rate``, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0 or not training:
        return states
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = (rng.uniform(size=states.shape) >= rate).astype(states.data.dtype)
    return mul(states, constant(keep / (1.0 - rate)))


def _norm_mask(mask, n: int, batch: int) -> np.ndarray | None:
    if mask is None:
        return None
    m = np.asarray(mask, dtype=np.float64)
    if m.ndim == 1:
        m = np.repeat(m[:, None], batch, axis=1)
    if m.shape != (n, batch):
        raise ContractError(f"mask shape {m.shape} does not match {n} steps x {batch} rows")
    return m


def _masked_carry(h_new: Tensor, h_prev: Tensor, step_mask: np.ndarray) -> Tensor:
    # blend rows: mask 1 takes the new state, mask 0 keeps the old one
    d = h_new.shape[1]
    col = np.repeat(step_mask[:, None], d, axis=1).astype(h_new.data.dtype)
    keep = constant(col)
    return add(mul(h_new, keep), mul(h_prev, constant(1.0 - col)))


def run_sequence(inputs, h0: Tensor, spec: StackSpec, mask=None, *,
                 dropout: float = 0.0, training: bool = False,
                 rng: np.random.Generator | None = None):
    """Run a (stacked) GRU over a list of [B, d_in] step tensors.

    ``mask`` marks real positions ([n] or [n, B]); padded steps copy state
    forward. ``h0`` initializes the bottom layer, upper layers start at 0.
    Returns (states, final): the top layer's per-step states and its state
    at the last unmasked position.
    """
    steps = list(inputs)
    n = len(steps)
    if n == 0:
        raise ContractError("run_sequence needs at least one step")
    batch = steps[0].shape[0]
    m = _norm_mask(mask, n, batch)

    layer_in = steps
    for li, params in enumerate(spec.layers):
        if li == 0:
            h = h0
        else:
            h = constant(np.zeros((batch, params.d), dtype=h0.data.dtype))
        states: list[Tensor] = []
        for t, x in enumerate(layer_in):
            if m is None or (m[t] == 1.0).all():
                h = gru_step(x, h, params)
            elif (m[t] == 0.0).all():
                pass  # fully padded step: nothing to compute
            else:
                h = _masked_carry(gru_step(x, h, params), h, m[t])
            states.append(h)
        if training and dropout > 0.0:
            states = [apply_dropout(s, dropout, training, rng) for s in states]
            # padded tails repeat the same carried state; the final output
            # is the dropped view of it, consistent with states[-1]
        layer_in = states
    return layer_in, layer_in[-1]


def run_bidirectional(inputs, h0_fwd: Tensor, h0_bwd: Tensor,
                      spec_fwd: StackSpec, spec_bwd: StackSpec, mask=None, *,
                      dropout: float = 0.0, training: bool = False,
                      rng: np.random.Generator | None = None):
    """Forward and reversed runs fused by elementwise sum (states and finals)."""
    steps = list(inputs)
    n = len(steps)
    if n == 0:
        raise ContractError("run_bidirectional needs at least one step")
    batch = steps[0].shape[0]
    m = _norm_mask(mask, n, batch)
    fwd_states, fwd_final = run_sequence(steps, h0_fwd, spec_fwd, m,
                                         dropout=dropout, training=training, rng=rng)
    rmask = None if m is None else m[::-1]
    bwd_states, bwd_final = run_sequence(steps[::-1], h0_bwd, spec_bwd, rmask,
                                         dropout=dropout, training=training, rng=rng)
    bwd_states = bwd_states[::-1]
    states = [add(f, b) for f, b in zip(fwd_states, bwd_states)]
    return states, add(fwd_final, bwd_final)
