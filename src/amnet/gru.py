"""GRU cells, stacked cells, and masked sequence runners.

All state is batch-first: a hidden state is a [B, d] tensor, and a
sequence of n steps is one [B*n, d_in] tensor whose row b*n+t is step t
of row b; states come back in the same layout. One layer's pass over a
whole sequence is a single tape op (`gru_layer`), and `gru_step` is its
n = 1 case. Single-example code just uses B = 1.

Padding semantics: a masked step copies the previous state forward, so
the carried state after the last step equals the state at the last real
position, for every row of the batch independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from amnet.tensor import (
    ContractError, ShapeError, Tensor, _count_macs, _emit, _finite, _sigmoid, add,
    constant, mul, take_rows,
)

__all__ = [
    "ConfigError", "GruParams", "StackSpec",
    "gru_layer", "gru_step", "run_sequence", "run_bidirectional", "apply_dropout",
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
        want = self.shapes(*self.w_z.shape)
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

    @staticmethod
    def shapes(d_in: int, d: int) -> dict[str, tuple]:
        return {"w_z": (d_in, d), "w_r": (d_in, d), "w_h": (d_in, d),
                "u_z": (d, d), "u_r": (d, d), "u_h": (d, d),
                "b_z": (d,), "b_r": (d,), "b_h": (d,)}

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


def gru_layer(x: Tensor, h0: Tensor, p: GruParams, mask=None, reverse: bool = False) -> Tensor:
    """One GRU layer over a whole sequence, recorded as a single tape op.

    ``x`` is [B*n, d_in], row b*n+t holding step t of row b; ``h0`` is
    [B, d]; ``mask`` is None, [n] or [B, n]. Returns the state after every
    step in the layout of ``x``; ``reverse`` runs the steps from n-1 down.
    Per step: z = sig(xW_z + hU_z + b_z); r = sig(xW_r + hU_r + b_r);
    h~ = tanh(xW_h + (r*h)U_h + b_h); h = (1-z)*h + z*h~. The input
    projections of all steps are one matmul; a fully padded step carries h
    and computes nothing, a partly padded one keeps h where the mask is 0.
    The backward is BPTT over the stored gates.
    """
    if x.data.ndim != 2 or h0.data.ndim != 2 or x.shape[1] != p.d_in or h0.shape[1] != p.d:
        raise ShapeError(f"gru_layer of a {p.d_in}->{p.d} cell got x {x.shape}, h0 {h0.shape}")
    (batch, d), rows = h0.shape, x.shape[0]
    if rows == 0 or rows % batch:
        raise ContractError(f"{rows} input rows do not split into {batch} nonempty sequences")
    n = rows // batch
    m = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    if m.shape not in ((n,), (batch, n)):
        raise ContractError(f"mask shape {m.shape} does not match {batch} rows x {n} steps")
    m = np.broadcast_to(m, (batch, n))
    empty, full = (m == 0.0).all(axis=0), (m == 1.0).all(axis=0)
    # per real step and row: six matrix products and three gate products
    # (analysis.gru_step_macs), plus the two blend products when partly padded
    _count_macs(batch * (int((~empty).sum()) * 3 * (p.d_in * d + d * d + d)
                         + int((~empty & ~full).sum()) * 2 * d))

    w = np.concatenate([p.w_z.data, p.w_r.data, p.w_h.data], axis=1)
    u_zr = np.concatenate([p.u_z.data, p.u_r.data], axis=1)
    u_h = p.u_h.data
    xp = x.data @ w
    xp += np.concatenate([p.b_z.data, p.b_r.data, p.b_h.data])
    dtype = np.result_type(xp, h0.data, u_zr)
    # step-major [n, B, .] working arrays, so each step is one contiguous
    # block; the loop adds the recurrent terms to the pre-activations in place
    pre = np.array(xp.reshape(batch, n, 3 * d).transpose(1, 0, 2), dtype=dtype)
    zr = np.zeros((n, batch, 2 * d), dtype)   # gates z | r
    omz = np.zeros((n, batch, d), dtype)      # 1 - z
    cand = np.zeros((n, batch, d), dtype)     # h~
    rh = np.zeros((n, batch, d), dtype)       # r * h, the input of U_h
    hs = np.empty((n, batch, d), dtype)       # state after each step
    keep = m.T[:, :, None].astype(dtype)      # [n, B, 1]
    order = range(n - 1, -1, -1) if reverse else range(n)
    h, hu = h0.data, np.empty((batch, 2 * d), dtype)
    for t in order:
        if empty[t]:
            hs[t] = h
            continue
        a_zr, a_h, zr_t = pre[t, :, :2 * d], pre[t, :, 2 * d:], zr[t]
        a_zr += np.matmul(h, u_zr, out=hu)
        _sigmoid(a_zr, out=zr_t)
        z = zr_t[:, :d]
        np.multiply(zr_t[:, d:], h, out=rh[t])
        a_h += rh[t] @ u_h
        h_new = np.subtract(1.0, z, out=omz[t]) * h + z * np.tanh(a_h, out=cand[t])
        if not full[t]:
            h_new = h_new * keep[t] + h * (1.0 - keep[t])
        hs[t] = h = h_new
    # pre holds every gate and candidate pre-activation; the sigmoid and
    # tanh keep finite inputs finite, and _emit checks the states
    _finite(pre, "gru_layer")

    def back(g):
        gs = g.reshape(batch, n, d).transpose(1, 0, 2)
        h0d = h0.data.astype(dtype)[None]
        prev = np.concatenate([hs[1:], h0d] if reverse else [h0d, hs[:-1]])
        da = np.zeros((n, batch, 3 * d), dtype)
        dh = np.zeros((batch, d), dtype)
        for t in reversed(order):
            dh = dh + gs[t]
            if empty[t]:
                continue
            # a partly padded step passes (1 - mask) of the gradient straight to h
            dh_skip, dh = (0.0, dh) if full[t] else (dh * (1.0 - keep[t]), dh * keep[t])
            da_zr, da_h = da[t, :, :2 * d], da[t, :, 2 * d:]
            c = cand[t]
            np.multiply(dh * zr[t, :, :d], 1.0 - c * c, out=da_h)
            drh = da_h @ u_h.T
            np.multiply(dh, c - prev[t], out=da_zr[:, :d])
            np.multiply(drh, prev[t], out=da_zr[:, d:])
            da_zr *= zr[t] * (1.0 - zr[t])
            dh = dh * omz[t] + drh * zr[t, :, d:] + da_zr @ u_zr.T + dh_skip
        da_x = da.transpose(1, 0, 2).reshape(rows, 3 * d)
        dw, db = x.data.T @ da_x, da_x.sum(axis=0)
        flat = da.reshape(n * batch, 3 * d)
        du = prev.reshape(n * batch, d).T @ flat[:, :2 * d]
        du_h = rh.reshape(n * batch, d).T @ flat[:, 2 * d:]
        return (da_x @ w.T, dh, dw[:, :d], dw[:, d:2 * d], dw[:, 2 * d:],
                du[:, :d], du[:, d:], du_h, db[:d], db[d:2 * d], db[2 * d:])

    return _emit(hs.transpose(1, 0, 2).reshape(rows, d), "gru_layer",
                 (x, h0) + tuple(t for _, t in p.named()), back)


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One step of the cell for a [B, d_in] input: `gru_layer` with n = 1."""
    if x.shape[0] != h_prev.shape[0]:
        raise ShapeError(f"gru_step got {x.shape[0]} input rows for {h_prev.shape[0]} states")
    return gru_layer(x, h_prev, p)


def apply_dropout(states: Tensor, rate: float, training: bool,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with prob ``rate``, scale survivors by 1/(1-rate).

    One draw per row of ``states``; callers that share a row among several
    consumers (the word level's distinct sentences) share its mask too.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0 or not training:
        return states
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = (rng.uniform(size=states.shape) >= rate).astype(states.data.dtype)
    return mul(states, constant(keep / (1.0 - rate)))


def run_sequence(x: Tensor, h0: Tensor, spec: StackSpec, mask=None, *,
                 reverse: bool = False, dropout: float = 0.0, training: bool = False,
                 rng: np.random.Generator | None = None):
    """Run a (stacked) GRU over ``x`` [B*n, d_in], row b*n+t being step t of row b.

    ``mask`` marks real positions ([n] or [B, n]); padded steps copy state
    forward. ``h0`` [B, d] initializes the bottom layer, upper layers start
    at 0; ``reverse`` runs every layer from step n-1 down to 0. Returns
    (states, final): the top layer's states in the layout of ``x``, and its
    state after the last step it ran (the last unmasked position).
    """
    batch = h0.shape[0]
    states = x
    for li, params in enumerate(spec.layers):
        h = h0 if li == 0 else constant(np.zeros((batch, params.d), dtype=h0.data.dtype))
        # padded tails repeat the same carried state; the final output is
        # the dropped view of it, consistent with the states
        states = apply_dropout(gru_layer(states, h, params, mask, reverse),
                               dropout, training, rng)
    n = states.shape[0] // batch
    return states, take_rows(states, np.arange(batch) * n + (0 if reverse else n - 1))


def run_bidirectional(x: Tensor, h0_fwd: Tensor, h0_bwd: Tensor,
                      spec_fwd: StackSpec, spec_bwd: StackSpec, mask=None, *,
                      dropout: float = 0.0, training: bool = False,
                      rng: np.random.Generator | None = None):
    """Forward and reversed runs over ``x`` fused by elementwise sum (states and finals)."""
    kw = dict(dropout=dropout, training=training, rng=rng)
    fwd_states, fwd_final = run_sequence(x, h0_fwd, spec_fwd, mask, **kw)
    bwd_states, bwd_final = run_sequence(x, h0_bwd, spec_bwd, mask, reverse=True, **kw)
    return add(fwd_states, bwd_states), add(fwd_final, bwd_final)
