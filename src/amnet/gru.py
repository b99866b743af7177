"""GRU cells, stacked cells, and padded sequence runners.

All state is batch-first: a hidden state is a [B, d] tensor, and a
sequence of n steps is one [B*n, d_in] tensor whose row b*n+t is step t
of row b; states come back in the same layout (single examples use B = 1).
One layer's pass over a sequence is one tape op (`gru_layer`; `gru_step`
is its n = 1 case), which also runs both cells of a bidirectional layer.

Padding: a mask marks each row's real steps, which precede its padding.
`gru_layer` computes every step. The runners take each row's final at its
last real step, and feed the reversed direction its real steps last to
first, then its padding; states at padded steps are not meaningful.

Arithmetic, the one GRU cell of the package (`amnet.model`'s attentive
steps run it too): W, U and b hold the gates z, r and h~ side by side (W_z
the z columns of W, and so on), and a step from state h on input x is
    z = sig(xW_z + hU_z + b_z);  r = sig(xW_r + hU_r + b_r);
    h~ = tanh(xW_h + (r*h)U_h + b_h);  h = h + z*(h~ - h), in place,
with sig(a) = (1 + tanh(a/2))/2: the z | r pre-activations and U_z | U_r are
halved (exactly) first, and z near 0 has absolute float32 precision (about
3e-8), all the update needs. `_cell_steps` runs n steps, `_cell_step_back`
is one BPTT step and `_u_grad` the gradient of U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from amnet.tensor import (
    ContractError, ShapeError, Tensor, _count_macs, _emit, _finite, concat_cols,
    constant, take_rows,
)

__all__ = [
    "ConfigError", "GruParams", "StackSpec",
    "gru_layer", "gru_step", "run_sequence", "run_bidirectional",
]


class ConfigError(ValueError):
    """A configuration value is outside its allowed range."""


@dataclass
class GruParams:
    """One GRU cell, stored gate-major: each array holds the update gate z,
    the reset gate r and the candidate h~ side by side, d columns each."""

    w: Tensor  # [d_in, 3d] input weights, columns z | r | h~
    u: Tensor  # [d, 3d] recurrent weights
    b: Tensor  # [3d] biases

    def __post_init__(self):
        want = {"w": (self.d_in, 3 * self.d), "u": (self.d, 3 * self.d), "b": (3 * self.d,)}
        for name, t in self.named():
            if t.shape != want[name]:
                raise ConfigError(f"gru parameter {name} has shape {t.shape}, expected {want[name]}")

    @property
    def d_in(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[0]

    def named(self):
        for name in ("w", "u", "b"):
            yield name, getattr(self, name)

    @classmethod
    def create(cls, d_in: int, d: int, rng: np.random.Generator,
               dtype=np.float32) -> "GruParams":
        # W_z, W_r, W_h, U_z, U_r, U_h drawn in turn, each [rows, d]
        def w(rows):
            gates = [rng.uniform(-0.5, 0.5, (rows, d)) for _ in range(3)]
            return Tensor(np.concatenate(gates, axis=1).astype(dtype), requires_grad=True)

        return cls(w(d_in), w(d), Tensor(np.zeros(3 * d, dtype=dtype), requires_grad=True))


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


def gru_layer(x: Tensor, h0: Tensor, p: GruParams, rev: GruParams | None = None) -> Tensor:
    """One GRU layer over a whole sequence, recorded as a single tape op.

    ``x`` is [B*n, d_in], row b*n+t holding step t of row b; ``h0`` is
    [B, d]. Returns the state after every step, in the layout of ``x``;
    every step of every row is computed, in the order given. A second cell
    ``rev`` runs in the same loop on its own input columns and states
    (``x`` [B*n, 2*d_in], ``h0`` [B, 2d], out [B*n, 2d]). A step is the
    module's "Arithmetic"; one matmul projects the inputs of all steps, and
    the backward is BPTT.
    """
    cells = (p,) if rev is None else (p, rev)
    k, d_in, d = len(cells), p.d_in, p.d
    dd = k * d  # width of the (paired) state
    if (x.data.ndim != 2 or h0.data.ndim != 2 or x.shape[1] != k * d_in
            or h0.shape[1] != dd or (rev is not None and (rev.d_in, rev.d) != (d_in, d))):
        raise ShapeError(f"gru_layer of {k} {d_in}->{d} cell(s) got x {x.shape}, h0 {h0.shape}")
    (batch, _), rows = h0.shape, x.shape[0]
    if rows == 0 or rows % batch:
        raise ContractError(f"{rows} input rows do not split into {batch} nonempty sequences")
    n = rows // batch
    # gate-major columns z | r | h~; a pair's are interleaved per gate, its
    # input and recurrent matrices block diagonal
    w, u, b = (p.w.data, p.u.data, p.b.data) if rev is None else (
        _pair_blocks(p.w.data, rev.w.data, 2), _pair_blocks(p.u.data, rev.u.data, 2),
        _pair_blocks(p.b.data, rev.b.data, 1))
    xp = x.data @ w
    xp += b
    u_zr, u_h = u[:, :2 * dd], u[:, 2 * dd:]
    dtype = np.result_type(xp, h0.data, u_zr)
    # analysis.gru_step_macs per step, row and cell; zero blocks are not counted
    _count_macs(k * batch * n * 3 * (d_in * d + d * d + d))
    # step-major [n, B, .] working arrays, so each step is one contiguous block
    pre = xp.reshape(batch, n, 3 * dd).transpose(1, 0, 2).astype(dtype, order="C")
    zr = np.empty((n, batch, 2 * dd), dtype)   # gates z | r
    cand = np.empty((n, batch, dd), dtype)     # h~
    rh = np.empty((n, batch, dd), dtype)       # r * h, the input of U_h
    hs = np.empty((n, batch, dd), dtype)       # state after each step
    _cell_steps(pre, h0.data, u_zr * 0.5, u_h, zr, rh, cand, hs)
    # pre holds every pre-activation (tanh maps finite to finite); _emit checks the states
    _finite(pre, "gru_layer")

    def back(g):
        gs = g.reshape(batch, n, dd).transpose(1, 0, 2)
        prev = np.concatenate([h0.data.astype(dtype)[None], hs[:-1]])
        da = np.empty((n, batch, 3 * dd), dtype)
        dh = np.zeros((batch, dd), dtype)
        for t in range(n - 1, -1, -1):
            dh = _cell_step_back(dh + gs[t], zr[t], cand[t], prev[t], u_zr, u_h, da[t])
        # gradients of the W, U and b computed with; a pair's are each cell's blocks of them
        da_x = da.transpose(1, 0, 2).reshape(rows, 3 * dd)
        grads = [x.data.T @ da_x, _u_grad(prev, rh, da), da_x.sum(axis=0)]
        if rev is not None:
            grads = [a.reshape(g, -1, 3, 2, d)[j % g, :, :, j].reshape(t.shape)
                     for j in (0, 1) for a, g, t in zip(grads, (2, 2, 1), params[3 * j:])]
        return (da_x @ w.T, dh, *grads)

    params = [t for c in cells for _, t in c.named()]
    states = hs.transpose(1, 0, 2).reshape(rows, dd)  # batch-major copy
    return _emit(states, "gru_layer", (x, h0, *params), back)


def _cell_steps(pre, h0, half_u_zr, u_h, zr, rh, cand, hs) -> None:
    """The forward of n steps of one GRU cell (or a pair's interleaved
    cells) over B rows, in place over step-major [n, B, .] arrays.

    ``pre`` [n, B, 3d] holds each step's input projection xW + b and is left
    holding its pre-activations, the z | r columns halved; ``h0`` [B, d] is
    the state before step 0 and ``half_u_zr`` is U_z | U_r times 0.5 (a
    caller that runs many calls halves it once). Fills the gates ``zr``
    [n, B, 2d], ``rh`` = r*h, ``cand`` = h~ and the states ``hs``.
    """
    (_, batch, dd), dtype = hs.shape, hs.dtype
    pre_zr = pre[:, :, :2 * dd]
    pre_zr *= 0.5  # exact: sig(a) = (1 + tanh(a/2))/2
    hu, hh = np.empty((batch, 2 * dd), dtype), np.empty((batch, dd), dtype)
    for a_zr, a_h, zr_t, z, r, rh_t, c, h, h_t in zip(pre_zr, pre[:, :, 2 * dd:],
            zr, zr[:, :, :dd], zr[:, :, dd:], rh, cand, [h0, *hs], hs):  # h: prev state
        a_zr += np.matmul(h, half_u_zr, out=hu)
        np.tanh(a_zr, out=zr_t)
        zr_t += 1.0
        zr_t *= 0.5
        np.multiply(r, h, out=rh_t)
        a_h += np.matmul(rh_t, u_h, out=hh)
        np.subtract(np.tanh(a_h, out=c), h, out=h_t)
        h_t *= z
        h_t += h


def _cell_step_back(dh, zr, cand, prev, u_zr, u_h, da):
    """One BPTT step of `_cell_steps`: from the gradient ``dh`` [B, d] of a
    step's state, its gates ``zr``, candidate ``cand`` and previous state
    ``prev``, writes the gradient of its pre-activations (unhalved) into
    ``da`` [B, 3d] and returns the gradient of ``prev``."""
    d = prev.shape[1]
    da_zr, da_h = da[:, :2 * d], da[:, 2 * d:]
    np.multiply(dh * zr[:, :d], 1.0 - cand * cand, out=da_h)
    drh = da_h @ u_h.T
    np.multiply(dh, cand - prev, out=da_zr[:, :d])
    np.multiply(drh, prev, out=da_zr[:, d:])
    da_zr *= zr * (1.0 - zr)
    return dh * (1.0 - zr[:, :d]) + drh * zr[:, d:] + da_zr @ u_zr.T


def _u_grad(prev, rh, da):
    """The gradient of U, [h | r*h]^T da, over every step's previous states
    ``prev``, ``rh`` and pre-activation gradients ``da`` (rows in one order)."""
    d = prev.shape[-1]
    flat = da.reshape(-1, 3 * d)
    return np.concatenate([prev.reshape(-1, d).T @ flat[:, :2 * d],
                           rh.reshape(-1, d).T @ flat[:, 2 * d:]], axis=1)


def _pair_blocks(a: np.ndarray, b: np.ndarray, groups: int) -> np.ndarray:
    """Two cells' gate-major arrays (a bias is one row) as one
    [groups*rows, 6d] array: gate i of cell j in row group j % groups and
    column block 2i + j, zeros elsewhere."""
    d = a.shape[-1] // 3
    out = np.zeros((groups, a.size // (3 * d), 3, 2, d), np.result_type(a, b))
    for j, m in enumerate((a, b)):
        out[j % groups, :, :, j] = m.reshape(-1, 3, d)
    return out.reshape(-1, 6 * d)


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One step of the cell for a [B, d_in] input: `gru_layer` with n = 1."""
    if x.shape[0] != h_prev.shape[0]:
        raise ShapeError(f"gru_step got {x.shape[0]} input rows for {h_prev.shape[0]} states")
    return gru_layer(x, h_prev, p)


def run_sequence(x: Tensor, h0: Tensor, spec: StackSpec, mask=None):
    """Run a (stacked) GRU over ``x`` [B*n, d_in], row b*n+t being step t of row b.

    ``mask`` ([n] or [B, n]) marks each row's real steps, which precede its
    padding. ``h0`` [B, d] initializes the bottom layer, upper layers start
    at 0. Returns (states, final): the top layer's states in the layout of
    ``x``, not meaningful at padded steps, and each row's state at its last
    real step.
    """
    batch = h0.shape[0]
    *_, last = _real_steps(mask, x.shape[0], batch)
    states = x
    for li, params in enumerate(spec.layers):
        h = h0 if li == 0 else constant(np.zeros((batch, params.d), dtype=h0.data.dtype))
        states = gru_layer(states, h, params)
    return states, take_rows(states, last)


def run_bidirectional(x: Tensor, h0_fwd: Tensor, h0_bwd: Tensor,
                      spec_fwd: StackSpec, spec_bwd: StackSpec, mask=None):
    """Forward and reversed runs over ``x`` fused by elementwise sum (states and finals).

    ``mask`` is as for `run_sequence`. Each layer is one `gru_layer` over the
    pair of cells, each direction's layer k reading its own layer k-1 states.
    The second cell reads each row's real steps last to first, then its
    padding, so both cells end at the last real step, where finals are taken.
    """
    batch = h0_fwd.shape[0]
    lengths, first, last = _real_steps(mask, x.shape[0], batch)
    steps = np.arange(x.shape[0] // batch)  # rev: real steps last to first, then padding
    rev = (first + np.where(steps < lengths, lengths - 1 - steps, steps)).reshape(-1)
    states = _beside_reversed(x, rev)
    for li, (pf, pb) in enumerate(zip(spec_fwd.layers, spec_bwd.layers, strict=True)):
        h = concat_cols(h0_fwd, h0_bwd) if li == 0 else constant(
            np.zeros((batch, 2 * pf.d), dtype=h0_fwd.data.dtype))
        states = gru_layer(states, h, pf, pb)
    return _sum_directions(states, slice(None), rev), _sum_directions(states, last, last)


def _real_steps(mask, rows: int, batch: int):
    """(lengths, first, last) of B sequences in ``rows`` rows under a 0/1
    prefix ``mask`` (None, [n] or [B, n]): real lengths [B or 1, 1], first
    rows [B, 1] and the rows of their last real steps [B] (step 0 if none)."""
    n = rows // batch
    if rows == 0 or rows % batch:
        raise ContractError(f"{rows} input rows do not split into {batch} nonempty sequences")
    lengths = np.full((1, 1), n)
    if mask is not None:
        m = np.asarray(mask, dtype=np.float64)
        if m.shape not in ((n,), (batch, n)):
            raise ContractError(f"mask shape {m.shape} does not match {batch} rows x {n} steps")
        lengths = m.sum(axis=-1, keepdims=True).astype(np.int64).reshape(-1, 1)
        if (m != (np.arange(n) < lengths)).any():
            raise ContractError("mask is not a 0/1 prefix mask (real steps, then padding)")
    first = np.arange(0, rows, n)[:, None]
    return lengths, first, (first + np.maximum(lengths, 1) - 1)[:, 0]


def _beside_reversed(x: Tensor, rev: np.ndarray) -> Tensor:
    """[x | x[rev]] for a row permutation ``rev`` that is its own inverse."""
    xd, c = x.data, x.shape[1]

    def back(g):
        return (g[:, :c] + g[rev, c:],)

    return _emit(np.concatenate([xd, xd[rev]], axis=1), "run_bidirectional", (x,), back)


def _sum_directions(states: Tensor, fwd_rows, bwd_rows) -> Tensor:
    """Left half of [R, 2d] ``states[fwd_rows]`` plus right half of ``states[bwd_rows]``."""
    sd, d = states.data, states.shape[1] // 2

    def back(g):
        gs = np.zeros_like(sd)
        gs[fwd_rows, :d] = g
        gs[bwd_rows, d:] = g
        return (gs,)

    return _emit(sd[fwd_rows, :d] + sd[bwd_rows, d:], "run_bidirectional", (states,), back)
