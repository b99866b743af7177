"""Dense tensors with a reverse-mode gradient tape.

Just enough array machinery to train the attentive memory network: 2-D
matrix products, elementwise arithmetic, the gate nonlinearities, masked
softmax, cross entropy, and a define-by-run tape that replays recorded
operations in reverse. Deliberately not a general autodiff system: the
only broadcasting allowed is adding a bias row, everything else must
match shapes exactly, and every forward result is checked for NaN/Inf.

Tensors are plain numpy arrays plus a ``requires_grad`` flag. Ops record
a node on the innermost active ``Tape`` (a context manager); with no
tape active they run forward-only, which is the inference fast path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "Tape", "MacCounter",
    "ShapeError", "MaskError", "ContractError", "NumericError", "TapeError",
    "matmul", "add", "mul", "scale", "tanh", "sigmoid",
    "softmax_masked", "cross_entropy", "cross_entropy_rows",
    "sum_all", "concat_cols", "reshape", "repeat_rows",
    "take_rows", "interleave_rows", "mix_rows", "constant", "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class MaskError(ValueError):
    """A softmax mask leaves no live entries."""


class ContractError(ValueError):
    """An op precondition unrelated to shapes was violated."""


class NumericError(ArithmeticError):
    """A forward op produced NaN or Inf."""


class TapeError(RuntimeError):
    """Tape misuse, e.g. running backward twice."""


_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor created with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)


class TapeNode:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_TAPE_STACK: list["Tape"] = []
_MAC_STACK: list["MacCounter"] = []


class Tape:
    """Ordered record of ops; execution order is the topological order."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._produced: set[int] = set()
        self._used = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad ancestor of ``loss``."""
        if self._used:
            raise TapeError("backward already ran on this tape; rebuild the tape")
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        if id(loss) not in self._produced:
            raise ContractError("loss was not computed on this tape")
        self._used = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if node.output.grad is None:  # no path from here to the loss
                continue
            in_grads = node.backward_fn(node.output.grad)
            for t, ig in zip(node.inputs, in_grads):
                if ig is None:
                    continue
                if t.requires_grad or id(t) in self._produced:
                    t.grad = ig if t.grad is None else t.grad + ig


class MacCounter:
    """Counts forward multiply-accumulates of ops run inside the context."""

    def __init__(self):
        self.total = 0

    def add(self, n: int) -> None:
        self.total += n

    def __enter__(self) -> "MacCounter":
        _MAC_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _MAC_STACK.pop()
        assert popped is self
        return False


def _count_macs(n: int) -> None:
    for c in _MAC_STACK:
        c.add(n)


def _finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")


def _emit(data: np.ndarray, op: str, inputs, backward_fn) -> Tensor:
    """Wrap the checked result of one op; on an active tape it makes one
    node, whose ``backward_fn`` maps the output's gradient to one gradient
    (or None) per input."""
    _finite(data, op)
    out = _wrap(data)
    if _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        tape.nodes.append(TapeNode(inputs, out, backward_fn))
        tape._produced.add(id(out))
    return out


def _wrap(data: np.ndarray) -> Tensor:
    """An array as a Tensor, unchecked and off the tape."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    return out


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    _count_macs(a.shape[0] * a.shape[1] * b.shape[1])
    ad, bd = a.data, b.data

    def back(g):
        return g @ bd.T, ad.T @ g

    return _emit(ad @ bd, "matmul", (a, b), back)


def _bias_row(a_shape, b_shape) -> bool:
    # b broadcastable as a bias row onto a: (n,) or (1, n) onto (m, n)
    if len(a_shape) != 2:
        return False
    n = a_shape[1]
    return b_shape == (n,) or b_shape == (1, n)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        def back(g):
            return g, g
        return _emit(a.data + b.data, "add", (a, b), back)
    if _bias_row(a.shape, b.shape):
        bshape = b.shape

        def back(g):
            return g, g.sum(axis=0).reshape(bshape)
        return _emit(a.data + b.data.reshape(1, -1), "add", (a, b), back)
    raise ShapeError(f"add shapes {a.shape} and {b.shape} neither match nor form a bias row")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    _count_macs(a.size)
    ad, bd = a.data, b.data

    def back(g):
        return g * bd, g * ad

    return _emit(ad * bd, "mul", (a, b), back)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    _count_macs(x.size)

    def back(g):
        return (g * c,)

    return _emit(x.data * c, "scale", (x,), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(g):
        return (g * (1.0 - y * y),)

    return _emit(y, "tanh", (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    # (1 + tanh(a/2))/2, as gru_layer's gates: it saturates, never overflows
    y = np.tanh(x.data * 0.5)
    y += 1.0
    y *= 0.5

    def back(g):
        return (g * y * (1.0 - y),)

    return _emit(y, "sigmoid", (x,), back)


def _as_mask(mask, shape) -> np.ndarray:
    m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    m = (m != 0)
    if m.shape != shape:
        raise ShapeError(f"mask shape {m.shape} does not match logits shape {shape}")
    return m


def softmax_masked(logits: Tensor, mask) -> Tensor:
    """Row-wise softmax over the unmasked entries; masked entries are exactly 0.

    ``logits`` is 1-D or 2-D (rows are independent); ``mask`` is a binary
    array of the same shape with at least one live entry per row.
    """
    m = _as_mask(mask, logits.shape)
    d = logits.data
    squeeze = d.ndim == 1
    if squeeze:
        d = d[None, :]
        m = m[None, :]
    if not m.any(axis=1).all():
        raise MaskError("softmax mask must keep at least one entry per row")
    neg = np.where(m, d, -np.inf)
    shifted = neg - neg.max(axis=1, keepdims=True)
    e = np.where(m, np.exp(np.where(m, shifted, 0.0)), 0.0)
    p = e / e.sum(axis=1, keepdims=True)
    if squeeze:
        p = p[0]

    def back(g):
        g2 = g[None, :] if squeeze else g
        p2 = p[None, :] if squeeze else p
        dot = (g2 * p2).sum(axis=1, keepdims=True)
        gl = p2 * (g2 - dot)
        return (gl[0] if squeeze else gl,)

    return _emit(p, "softmax_masked", (logits,), back)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Negative log softmax probability of ``target``; scalar output."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy expects a 1-D logit vector, got {logits.shape}")
    v = logits.shape[0]
    target = int(target)
    if not 0 <= target < v:
        raise IndexError(f"target {target} outside vocabulary of size {v}")
    d = logits.data
    shifted = d - d.max()
    lse = np.log(np.exp(shifted).sum())
    loss = np.asarray(lse - shifted[target], dtype=d.dtype)

    def back(g):
        p = np.exp(shifted - lse)
        p[target] -= 1.0
        return (g * p,)

    return _emit(loss, "cross_entropy", (logits,), back)


def cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Per-row cross entropy for 2-D logits; returns a 1-D loss vector."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows expects 2-D logits, got {logits.shape}")
    t = np.asarray(targets, dtype=np.int64)
    b, v = logits.shape
    if t.shape != (b,):
        raise ShapeError(f"targets shape {t.shape} does not match batch {b}")
    if t.min() < 0 or t.max() >= v:
        raise IndexError(f"target id outside vocabulary of size {v}")
    d = logits.data
    shifted = d - d.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(b)
    loss = lse - shifted[rows, t]

    def back(g):
        p = np.exp(shifted - lse[:, None])
        p[rows, t] -= 1.0
        return (p * g[:, None],)

    return _emit(loss, "cross_entropy_rows", (logits,), back)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def back(g):
        return (np.broadcast_to(g, shape).copy() if shape else g,)

    return _emit(np.asarray(x.data.sum(), dtype=x.dtype), "sum_all", (x,), back)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols needs matching row counts, got {a.shape} and {b.shape}")
    p = a.shape[1]

    def back(g):
        return g[:, :p], g[:, p:]

    return _emit(np.concatenate([a.data, b.data], axis=1), "concat_cols", (a, b), back)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape

    def back(g):
        return (g.reshape(old),)

    return _emit(x.data.reshape(shape), "reshape", (x,), back)


def repeat_rows(x: Tensor, k: int) -> Tensor:
    """[B, e] -> [B*k, e]; row b*k+j is a copy of row b."""
    if x.data.ndim != 2:
        raise ShapeError(f"repeat_rows expects a 2-D tensor, got {x.shape}")
    b, e = x.shape

    def back(g):
        return (g.reshape(b, k, e).sum(axis=1),)

    return _emit(np.repeat(x.data, k, axis=0), "repeat_rows", (x,), back)


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table; gradient scatter-adds back into it."""
    if table.data.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-D table, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows expects 1-D indices, got shape {idx.shape}")
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index outside table of {n} rows")
    td = table.data

    def back(g):
        gt = np.zeros_like(td)
        np.add.at(gt, idx, g)
        return (gt,)

    return _emit(td[idx], "take_rows", (table,), back)


def interleave_rows(tensors) -> Tensor:
    """k tensors [B, e] -> [B*k, e]; row b*k+j comes from tensors[j][b]."""
    ts = list(tensors)
    if not ts:
        raise ContractError("interleave_rows needs at least one tensor")
    b, e = ts[0].shape
    for t in ts:
        if t.shape != (b, e):
            raise ShapeError(f"interleave_rows shapes differ: {t.shape} vs {(b, e)}")
    k = len(ts)
    data = np.stack([t.data for t in ts], axis=1).reshape(b * k, e)

    def back(g):
        g3 = g.reshape(b, k, e)
        return tuple(g3[:, j, :] for j in range(k))

    return _emit(data, "interleave_rows", tuple(ts), back)


def mix_rows(weights: Tensor, rows: Tensor) -> Tensor:
    """Per-batch weighted sum: out[b] = sum_j weights[b, j] * rows[b*k + j]."""
    if weights.data.ndim != 2 or rows.data.ndim != 2:
        raise ShapeError(f"mix_rows expects 2-D operands, got {weights.shape} and {rows.shape}")
    b, k = weights.shape
    if rows.shape[0] != b * k:
        raise ShapeError(f"mix_rows: {rows.shape[0]} rows cannot split into {b} groups of {k}")
    e = rows.shape[1]
    _count_macs(b * k * e)
    w, r3 = weights.data, rows.data.reshape(b, k, e)

    def back(g):
        gw = np.einsum("be,bke->bk", g, r3)
        gr = (w[:, :, None] * g[:, None, :]).reshape(b * k, e)
        return gw, gr

    return _emit(np.einsum("bk,bke->be", w, r3), "mix_rows", (weights, rows), back)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, inputs, epsilon: float = 1e-5) -> float:
    """Compare tape gradients of ``f(*inputs)`` against central differences.

    Returns the max over coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    Inputs with requires_grad=False are held fixed.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ContractError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    inputs = list(inputs)
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = f(*inputs)
    if out.data.size != 1:
        raise ContractError(f"grad_check needs a scalar function, got shape {out.shape}")
    tape.backward(out)

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = float(f(*inputs).data)
            flat[i] = orig - epsilon
            fm = float(f(*inputs).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * epsilon)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
