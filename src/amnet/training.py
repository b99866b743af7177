"""Optimization loop: Adam, gradient clipping, periodic evaluation, annealing.

The recipe: teacher-forced batches of 50, Adam on the clipped gradients,
validation error measured every 1,000 training examples with free-running
exact-sequence decoding, and the learning rate halved whenever three
consecutive evaluations fail to improve (training loss not beating its
best, or validation error rising against the previous evaluation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from amnet.data import DataError, TaskData, batchify, make_batch
from amnet.gru import ConfigError
from amnet.model import ModelConfig, ModelParams, forward_batch, init_params, predict_batch
from amnet.tensor import ContractError, NumericError, Tape

__all__ = [
    "AdamState", "AnnealSchedule", "TrainConfig", "TrainLogEntry", "TrainResult",
    "adam_step", "clip_gradients", "evaluate", "train", "write_log",
]

ANNEAL_PATIENCE = 3        # consecutive bad evaluations before the lr is cut
ANNEAL_FACTOR = 2.0        # the lr is divided by this at each cut
ANNEAL_TOLERANCE = 1e-4    # a training-loss window must beat the best by more
MIN_LR_DIVISOR = 2 ** 10   # training stops once the lr falls below lr / this


@dataclass
class TrainConfig:
    lr: float = 0.1
    max_grad_norm: float = 5.0
    batch_size: int = 50
    eval_every: int = 1_000          # training examples between evaluations
    max_batches: int = 4_000
    target_val_error: float | None = None  # optional early stop once solved
    seed: int = 0

    def __post_init__(self):
        if (min(self.lr, self.max_grad_norm, self.batch_size, self.eval_every) <= 0
                or not np.isfinite([self.lr, self.max_grad_norm]).all()):
            raise ConfigError("training settings must be positive and finite")
        if self.max_batches < 0:
            raise ConfigError("max_batches must be >= 0")
        if self.eval_every % self.batch_size:
            raise ConfigError(
                f"eval_every {self.eval_every} not divisible by batch size {self.batch_size}")


@dataclass
class TrainLogEntry:
    batch: int
    train_loss: float     # window mean since the previous evaluation
    val_error: float
    lr: float
    seconds: float


class AdamState:
    """First/second moment accumulators plus the step counter."""

    def __init__(self, tensors):
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]
        self.t = 0


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard Adam with bias correction; updates parameter data in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ContractError("params, grads and optimizer state must align")
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} vs parameter {p.data.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def clip_gradients(grads, max_norm: float) -> float:
    """Scale every gradient in place by max_norm/g when the global L2 norm g
    exceeds it; returns g. A non-finite g leaves the gradients as they are."""
    if not 0 < max_norm < np.inf:
        raise ConfigError(f"max_norm must be positive and finite, got {max_norm}")
    total = 0.0
    for g in grads:
        total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm < norm < np.inf:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


class AnnealSchedule:
    """Halve the lr after ``ANNEAL_PATIENCE`` consecutive bad evaluations.

    An evaluation is bad when the training-loss window fails to beat the
    best window so far by more than ``ANNEAL_TOLERANCE``, or the validation
    error rose against the previous evaluation. The streak resets after a
    halving.
    """

    def __init__(self):
        self.best_train = np.inf
        self.prev_val: float | None = None
        self.streak = 0

    def update(self, train_loss: float, val_error: float, lr: float) -> float:
        train_bad = train_loss > self.best_train - ANNEAL_TOLERANCE
        val_bad = self.prev_val is not None and val_error > self.prev_val
        self.best_train = min(self.best_train, train_loss)
        self.prev_val = val_error
        if train_bad or val_bad:
            self.streak += 1
        else:
            self.streak = 0
        if self.streak >= ANNEAL_PATIENCE:
            lr /= ANNEAL_FACTOR
            self.streak = 0
        return lr


def evaluate(params: ModelParams, config: ModelConfig, examples,
             batch_size: int = 50) -> float:
    """Error rate: fraction of examples whose free-running decode does not
    exactly match the gold answer sequence."""
    examples = list(examples)
    if not examples:
        raise ContractError("evaluate needs at least one example")
    wrong = 0
    for i in range(0, len(examples), batch_size):
        chunk = examples[i:i + batch_size]
        batch = make_batch(chunk)
        if batch.max_id >= config.vocab_size:
            raise ContractError(f"examples use token id {batch.max_id}, outside the model "
                                f"vocabulary of {config.vocab_size}")
        predictions, _ = predict_batch(batch, params, config)
        for ex, got in zip(chunk, predictions):
            if got != ex.answer:
                wrong += 1
    return wrong / len(examples)


def _snapshot(tensors) -> list[np.ndarray]:
    return [t.data.copy() for t in tensors]


@dataclass
class TrainResult:
    params: ModelParams
    config: ModelConfig
    log: list[TrainLogEntry]
    batches: int
    best_val_error: float
    best_batch: int


def train(model_config: ModelConfig, train_config: TrainConfig, data: TaskData) -> TrainResult:
    """Run the full recipe over ``data``; returns the best-validation model.

    Stops at max_batches, when the lr anneals below lr / MIN_LR_DIVISOR, or
    when the optional target validation error is reached. Raises NumericError
    with the batch index and lr if an op (in a batch or the evaluation after
    it), the loss or the gradient goes non-finite.
    """
    if not data.train or not data.val:
        raise DataError("training needs non-empty train and validation splits")
    cfg = train_config
    params = init_params(model_config, seed=cfg.seed)
    tensors = params.tensors()
    adam = AdamState(tensors)
    annealer = AnnealSchedule()
    min_lr = cfg.lr / MIN_LR_DIVISOR
    eval_batches = cfg.eval_every // cfg.batch_size

    lr = cfg.lr
    log: list[TrainLogEntry] = []
    window: list[float] = []
    best_err = np.inf
    best_batch = 0
    best_arrays = _snapshot(tensors)
    batches = 0
    t0 = time.perf_counter()
    stop = batches >= cfg.max_batches
    epoch = 0
    while not stop:
        for batch in batchify(data.train, cfg.batch_size, seed=cfg.seed * 1_000_003 + epoch):
            batches += 1
            try:
                with Tape() as tape:
                    result = forward_batch(batch, params, model_config, training=True)
                loss_value = float(result.loss.data)
                if not np.isfinite(loss_value):
                    raise NumericError("loss became non-finite")
                tape.backward(result.loss)
                grads = []
                for t in tensors:
                    grads.append(t.grad if t.grad is not None else np.zeros_like(t.data))
                    t.grad = None
                if not np.isfinite(clip_gradients(grads, cfg.max_grad_norm)):
                    raise NumericError("non-finite gradient")
                adam_step(tensors, grads, adam, lr)
                val_error = (evaluate(params, model_config, data.val, cfg.batch_size)
                             if batches % eval_batches == 0 else None)
            except NumericError as exc:
                raise NumericError(f"{exc} at batch {batches} (lr={lr})") from exc
            window.append(loss_value)

            if val_error is not None:
                window_mean = float(np.mean(window))
                window = []
                lr = annealer.update(window_mean, val_error, lr)
                log.append(TrainLogEntry(batches, window_mean, val_error, lr,
                                         time.perf_counter() - t0))
                if val_error < best_err:
                    best_err = val_error
                    best_batch = batches
                    best_arrays = _snapshot(tensors)
                if cfg.target_val_error is not None and val_error <= cfg.target_val_error:
                    stop = True
                    break
                if lr < min_lr:
                    stop = True
                    break
            if batches >= cfg.max_batches:
                stop = True
                break
        epoch += 1
    for t, arr in zip(tensors, best_arrays):
        t.data = arr
    return TrainResult(params, model_config, log, batches, float(best_err), best_batch)


def write_log(entries, path) -> None:
    """Append-only TSV: batch, train_loss, val_error, lr, seconds."""
    with open(path, "a", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.batch}\t{e.train_loss:.6f}\t{e.val_error:.4f}"
                     f"\t{e.lr:.10g}\t{e.seconds:.3f}\n")
