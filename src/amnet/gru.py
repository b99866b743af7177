"""GRU cells, stacked cells, and masked sequence runners.

All state is batch-first: a hidden state is a [B, d] tensor, and a
sequence of n steps is one [B*n, d_in] tensor whose row b*n+t is step t
of row b; states come back in the same layout. One layer's pass over a
whole sequence is a single tape op (`gru_layer`), and `gru_step` is its
n = 1 case; the bidirectional runner hands each layer's two cells to one
`gru_layer` call. Single-example code just uses B = 1.

Padding semantics: a masked step copies the previous state forward, so
the carried state after the last step equals the state at the last real
position, for every row of the batch independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from amnet.tensor import (
    ContractError, ShapeError, Tensor, _count_macs, _emit, _finite, _sigmoid, concat_cols,
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


def gru_layer(x: Tensor, h0: Tensor, p: GruParams, mask=None,
              rev: GruParams | None = None) -> Tensor:
    """One GRU layer over a whole sequence, recorded as a single tape op.

    ``x`` is [B*n, d_in], row b*n+t holding step t of row b; ``h0`` is
    [B, d]; ``mask`` is None, [n] or [B, n]. Returns the state after every
    step in the layout of ``x``. A second cell ``rev`` reads the steps from
    n-1 down in the same loop, its states beside those of ``p`` (``h0``
    [B, 2d], out [B*n, 2d]); ``x`` is shared or side by side [B*n, 2*d_in].
    Per step: z = sig(xW_z + hU_z + b_z); r = sig(xW_r + hU_r + b_r);
    h~ = tanh(xW_h + (r*h)U_h + b_h); h = (1-z)*h + z*h~. The input
    projections of all steps are one matmul; a fully padded step carries h
    and computes nothing, a partly padded one keeps h where the mask is 0.
    The backward is BPTT over the stored gates.
    """
    cells = (p,) if rev is None else (p, rev)
    k, d_in, d = len(cells), p.d_in, p.d
    dd = k * d  # width of the (paired) state
    if (x.data.ndim != 2 or h0.data.ndim != 2 or x.shape[1] not in (d_in, k * d_in)
            or h0.shape[1] != dd or (rev is not None and (rev.d_in, rev.d) != (d_in, d))):
        raise ShapeError(f"gru_layer of {k} {d_in}->{d} cell(s) got x {x.shape}, h0 {h0.shape}")
    (batch, _), rows = h0.shape, x.shape[0]
    if rows == 0 or rows % batch:
        raise ContractError(f"{rows} input rows do not split into {batch} nonempty sequences")
    n = rows // batch
    m = None if mask is None else np.asarray(mask, dtype=np.float64)
    if m is not None and m.shape not in ((n,), (batch, n)):
        raise ContractError(f"mask shape {m.shape} does not match {batch} rows x {n} steps")
    # gate-major columns z | r | h~, one d-wide block per cell; a pair's
    # recurrent matrix is block diagonal
    groups = x.shape[1] // d_in  # 2 when each cell reads its own input columns
    w, u = _blocks(cells, "w", groups), _blocks(cells, "u", k)
    xp = x.data @ w
    xp += _blocks(cells, "b", 1)
    u_zr, u_h = u[:, :2 * dd], u[:, 2 * dd:]
    dtype = np.result_type(xp, h0.data, u_zr)
    # per real step, row and cell: six matrix products and three gate
    # products (analysis.gru_step_macs), plus the two blend products when
    # partly padded; the zero blocks are not counted
    step_macs = 3 * (d_in * d + d * d + d)
    if m is None or (m == 1.0).all():
        empty, blend, keep = np.zeros(n, bool), np.zeros(n, bool), None
        _count_macs(k * batch * n * step_macs)
    else:
        m = np.broadcast_to(m, (batch, n)).T  # [n, B]
        empty, full = (m == 0.0).all(axis=1), (m == 1.0).all(axis=1)
        _count_macs(k * batch * (int((~empty).sum()) * step_macs
                                 + int((~empty & ~full).sum()) * 2 * d))
        cols = 1 if k == 1 else dd  # the two cells of a pair read different steps
        keep = _flip(np.broadcast_to(m.astype(dtype)[:, :, None], (n, batch, cols)), k, d,
                     np.empty((n, batch, cols), dtype))
        if k == 2:  # loop step t is step t of p and step n-1-t of rev
            empty, full = empty & empty[::-1], full & full[::-1]
        blend = ~empty & ~full
    # step-major [n, B, .] working arrays in loop order, so each step is one
    # contiguous block; the loop adds the recurrent terms to the
    # pre-activations in place, and only steps it runs fill the gates
    pre = _flip(xp.reshape(batch, n, 3 * dd).transpose(1, 0, 2), k, d,
                np.empty((n, batch, 3 * dd), dtype))
    zr = np.empty((n, batch, 2 * dd), dtype)   # gates z | r
    omz = np.empty((n, batch, dd), dtype)      # 1 - z
    cand = np.empty((n, batch, dd), dtype)     # h~
    rh = np.empty((n, batch, dd), dtype)       # r * h, the input of U_h
    hs = np.empty((n, batch, dd), dtype)       # state after each step
    skip, mix = empty.tolist(), blend.tolist()
    h, hu = h0.data, np.empty((batch, 2 * dd), dtype)
    for t in range(n):
        if skip[t]:
            hs[t] = h
            continue
        a_zr, a_h, zr_t = pre[t, :, :2 * dd], pre[t, :, 2 * dd:], zr[t]
        a_zr += np.matmul(h, u_zr, out=hu)
        _sigmoid(a_zr, out=zr_t)
        z = zr_t[:, :dd]
        np.multiply(zr_t[:, dd:], h, out=rh[t])
        a_h += rh[t] @ u_h
        h_new = np.subtract(1.0, z, out=omz[t]) * h + z * np.tanh(a_h, out=cand[t])
        if mix[t]:
            h_new = h_new * keep[t] + h * (1.0 - keep[t])
        hs[t] = h = h_new
    # pre holds every gate and candidate pre-activation; the sigmoid and
    # tanh keep finite inputs finite, and _emit checks the states
    _finite(pre, "gru_layer")

    def back(g):
        gs = _flip(g.reshape(batch, n, dd).transpose(1, 0, 2), k, d)
        prev = np.concatenate([h0.data.astype(dtype)[None], hs[:-1]])
        rh[empty] = 0.0  # unwritten at skipped steps, whose da rows stay 0
        da = np.zeros((n, batch, 3 * dd), dtype)
        dh = np.zeros((batch, dd), dtype)
        for t in range(n - 1, -1, -1):
            dh = dh + gs[t]
            if skip[t]:
                continue
            # a partly padded step passes (1 - mask) of the gradient straight to h
            dh_skip, dh = (dh * (1.0 - keep[t]), dh * keep[t]) if mix[t] else (0.0, dh)
            da_zr, da_h = da[t, :, :2 * dd], da[t, :, 2 * dd:]
            c = cand[t]
            np.multiply(dh * zr[t, :, :dd], 1.0 - c * c, out=da_h)
            drh = da_h @ u_h.T
            np.multiply(dh, c - prev[t], out=da_zr[:, :dd])
            np.multiply(drh, prev[t], out=da_zr[:, dd:])
            da_zr *= zr[t] * (1.0 - zr[t])
            dh = dh * omz[t] + drh * zr[t, :, dd:] + da_zr @ u_zr.T + dh_skip
        # gradients of the assembled matrices (U in loop order, W and b in
        # step order), then each cell's blocks of them
        da_x = np.empty((batch, n, 3 * dd), dtype)
        _flip(da, k, d, da_x.transpose(1, 0, 2))
        da_x = da_x.reshape(rows, 3 * dd)
        flat = da.reshape(n * batch, 3 * dd)
        du = np.concatenate([prev.reshape(-1, dd).T @ flat[:, :2 * dd],
                             rh.reshape(-1, dd).T @ flat[:, 2 * dd:]], axis=1)
        parts = ((x.data.T @ da_x, groups), (du, k), (da_x.sum(axis=0), 1))
        grads = [a.reshape(g, -1, 3, k, d)[j % g, :, i, j] for j in range(k)
                 for a, g in parts for i in range(3)]
        return (da_x @ w.T, dh, *(ga.reshape(t.shape) for ga, t in zip(grads, params)))

    params = [t for c in cells for _, t in c.named()]
    states = np.empty((batch, n, dd), dtype)
    _flip(hs, k, d, states.transpose(1, 0, 2))  # batch-major, in step order
    return _emit(states.reshape(rows, dd), "gru_layer", (x, h0, *params), back)


def _blocks(cells, kind: str, groups: int) -> np.ndarray:
    """The cells' ``kind``_z, _r, _h matrices (a bias is one row) as one
    [groups*rows, 3*k*d] array with gate-major columns: gate i of cell j
    sits in row group j % groups and column block i*k + j, zeros elsewhere."""
    mats = [np.concatenate([getattr(c, kind + g).data for g in ("_z", "_r", "_h")], axis=-1)
            for c in cells]
    if len(cells) == groups == 1:
        return mats[0]
    k, d = len(cells), cells[0].d
    out = np.zeros((groups, mats[0].size // (3 * d), 3, k, d), np.result_type(*mats))
    for j, a in enumerate(mats):
        out[j % groups, :, :, j] = a.reshape(-1, 3, d)
    return out.reshape(-1, 3 * k * d)


def _flip(a: np.ndarray, k: int, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """Copy a step-major [n, B, g*k*d] array into ``out`` (a view of the
    same shape, or new), reversing axis 0 of the second cell's columns:
    from step order to a pair's loop order and back. Returns ``out``; one
    cell's ``a`` is returned as it is when no ``out`` is given."""
    if k == 1 and out is None:
        return a
    out = np.empty(a.shape, a.dtype) if out is None else out
    if k == 1:
        out[...] = a
        return out
    src, dst = (v.reshape(v.shape[:2] + (-1, k, d)) for v in (a, out))
    dst[:, :, :, 0], dst[:, :, :, 1] = src[:, :, :, 0], src[::-1, :, :, 1]
    return out


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One step of the cell for a [B, d_in] input: `gru_layer` with n = 1."""
    if x.shape[0] != h_prev.shape[0]:
        raise ShapeError(f"gru_step got {x.shape[0]} input rows for {h_prev.shape[0]} states")
    return gru_layer(x, h_prev, p)


def run_sequence(x: Tensor, h0: Tensor, spec: StackSpec, mask=None):
    """Run a (stacked) GRU over ``x`` [B*n, d_in], row b*n+t being step t of row b.

    ``mask`` marks real positions ([n] or [B, n]); padded steps copy state
    forward. ``h0`` [B, d] initializes the bottom layer, upper layers start
    at 0. Returns (states, final): the top layer's states in the layout of
    ``x``, and its state after the last unmasked position.
    """
    batch = h0.shape[0]
    states = x
    for li, params in enumerate(spec.layers):
        h = h0 if li == 0 else constant(np.zeros((batch, params.d), dtype=h0.data.dtype))
        states = gru_layer(states, h, params, mask)
    n = states.shape[0] // batch
    return states, take_rows(states, np.arange(batch) * n + n - 1)


def run_bidirectional(x: Tensor, h0_fwd: Tensor, h0_bwd: Tensor,
                      spec_fwd: StackSpec, spec_bwd: StackSpec, mask=None):
    """Forward and reversed runs over ``x`` fused by elementwise sum (states and finals).

    Each layer is one `gru_layer` over the pair of cells, so each direction's
    layer k reads its own layer k-1 states.
    """
    batch, states = h0_fwd.shape[0], x
    for li, (pf, pb) in enumerate(zip(spec_fwd.layers, spec_bwd.layers, strict=True)):
        h = concat_cols(h0_fwd, h0_bwd) if li == 0 else constant(
            np.zeros((batch, 2 * pf.d), dtype=h0_fwd.data.dtype))
        states = gru_layer(states, h, pf, mask, pb)
    first = np.arange(batch) * (states.shape[0] // batch)
    # the reversed direction ends after step 0
    return (_sum_directions(states, slice(None), slice(None)),
            _sum_directions(states, first + states.shape[0] // batch - 1, first))


def _sum_directions(states: Tensor, fwd_rows, bwd_rows) -> Tensor:
    """Left half of [R, 2d] ``states[fwd_rows]`` plus right half of ``states[bwd_rows]``."""
    sd, d = states.data, states.shape[1] // 2

    def back(g):
        gs = np.zeros_like(sd)
        gs[fwd_rows, :d] = g
        gs[bwd_rows, d:] = g
        return (gs,)

    return _emit(sd[fwd_rows, :d] + sd[bwd_rows, d:], "run_bidirectional", (states,), back)
