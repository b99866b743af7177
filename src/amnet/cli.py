"""Command-line front end: train, eval, ask, visualize, bench, reproduce.

Exit codes: 0 success, 1 usage, 2 data/format problems, 3 numeric failure.
AMN_DATA_DIR serves as the --data-dir fallback. With --task given, size,
layers and memories default to that task's bundled reference values and
the batch budget to 4x its reference budget.
"""

from __future__ import annotations

import argparse
import os
import sys

from amnet.analysis import (
    SOLVED_THRESHOLD, TASK_SETTINGS, count_ops, export_attention,
    instrument_ops, reproduce_tasks,
)
from amnet.data import (
    DataError, ParseError, Vocabulary, detokenize, load_task_data, make_batch,
    parse_babi_file, split_train_val, tokenize,
)
from amnet.gru import ConfigError
from amnet.model import (
    CheckpointError, ModelConfig, load_checkpoint, predict_batch, save_checkpoint,
)
from amnet.tensor import ContractError, MaskError, NumericError, ShapeError
from amnet.training import TrainConfig, evaluate, train, write_log

__all__ = ["main"]

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

_DEFAULT_LR = 0.01
_DEFAULT_CLIP = 5.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _data_dir(args) -> str:
    path = args.data_dir or os.environ.get("AMN_DATA_DIR")
    if not path:
        raise UsageError("no data directory: pass --data-dir or set AMN_DATA_DIR")
    return path


def _check_task(task: int) -> int:
    if not 1 <= task <= 20:
        raise UsageError(f"task {task} outside 1..20")
    return task


def build_parser() -> _Parser:
    parser = _Parser(prog="amn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on one task")
    p.add_argument("--data-dir")
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--size", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--memories", type=int)
    p.add_argument("--lr", type=float, default=_DEFAULT_LR)
    p.add_argument("--clip", type=float, default=_DEFAULT_CLIP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-batches", type=int)
    p.add_argument("--target-val-error", type=float)
    p.add_argument("--out", default=None, help="checkpoint path")

    p = sub.add_parser("eval", help="error rate of a checkpoint on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir")
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--set", choices=("train", "val", "test"), default="test")

    p = sub.add_parser("ask", help="interactive question answering")
    p.add_argument("--model", required=True)

    p = sub.add_parser("visualize", help="dump attention weights for one example")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir")
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--set", choices=("train", "val", "test"), default="val")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="op-count accounting: attend-once vs re-reading"
                                     " (question length 5, answer length 1)")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--memories", type=int, default=1)
    p.add_argument("--sentences", type=int, default=10)
    p.add_argument("--words", type=int, default=6)

    p = sub.add_parser("reproduce", help="train and score tasks with reference settings")
    p.add_argument("--data-dir")
    p.add_argument("--tasks", default=",".join(str(t) for t in sorted(TASK_SETTINGS)))
    p.add_argument("--budget-multiplier", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=_DEFAULT_LR)
    p.add_argument("--clip", type=float, default=_DEFAULT_CLIP)
    p.add_argument("--out", default=None, help="report TSV path")
    return parser


def cmd_train(args) -> int:
    task = _check_task(args.task)
    size, layers, memories, budget = TASK_SETTINGS[task]
    data = load_task_data(_data_dir(args), task)
    config = ModelConfig(
        size=size if args.size is None else args.size,
        depth=layers if args.layers is None else args.layers,
        memories=memories if args.memories is None else args.memories,
        vocab_size=len(data.vocab),
        max_sentence_len=data.max_sentence_len,
        max_answer_len=data.max_answer_len,
    )
    cfg = TrainConfig(
        lr=args.lr, max_grad_norm=args.clip, seed=args.seed,
        max_batches=args.max_batches if args.max_batches is not None else 4 * budget,
        target_val_error=args.target_val_error,
    )
    result = train(config, cfg, data)
    out = args.out or f"amn_task{task}.ckpt"
    save_checkpoint(result.params, config, out, data.vocab)
    log_path = out + ".log.tsv"
    open(log_path, "w").close()
    write_log(result.log, log_path)
    print(f"trained {result.batches} batches; best val error "
          f"{result.best_val_error:.4f} at batch {result.best_batch}")
    print(f"checkpoint: {out}")
    print(f"log: {log_path}")
    return EXIT_OK


def _load_with_vocab(path):
    """Load a checkpoint that carries the vocabulary it was trained with."""
    ckpt = load_checkpoint(path)
    if ckpt.vocab is None:
        raise ContractError("checkpoint carries no vocabulary; cannot tokenize input")
    return ckpt


def _encode_with(vocab: Vocabulary, data_dir, task, which):
    path_split = "test" if which == "test" else "train"
    from amnet.data import find_task_file

    raw = parse_babi_file(find_task_file(data_dir, task, path_split))
    if which != "test":
        train_raw, val_raw = split_train_val(raw)
        raw = train_raw if which == "train" else val_raw
    return vocab.encode_examples(raw)


def cmd_eval(args) -> int:
    task = _check_task(args.task)
    ckpt = _load_with_vocab(args.model)
    examples = _encode_with(ckpt.vocab, _data_dir(args), task, args.set)
    err = evaluate(ckpt.params, ckpt.config, examples)
    print(f"error_rate {err:.4f} solved {str(err < SOLVED_THRESHOLD).lower()}")
    return EXIT_OK


def cmd_ask(args) -> int:
    """Answer '? question' lines over the statements told since the last 'reset'.
    Each distinct statement's word-level vector is kept, so a question reads
    only the statements new since the one before (`encode_document`)."""
    import numpy as np

    from amnet.data import Batch, _padded

    ckpt = _load_with_vocab(args.model)
    vocab = ckpt.vocab
    statements: list[list[str]] = []
    rows: list[int] = []  # per statement, its row among the story's distinct ones
    distinct: dict[tuple, int] = {}
    unread: list[list[int]] = []  # distinct statements told since the last question
    kept: list = []  # word-level vectors of the rows read so far
    print("statements accumulate; '? <question>' asks, 'reset' clears, EOF exits")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line == "reset":
            statements, rows, distinct, unread, kept = [], [], {}, [], []
            print("(story cleared)")
            continue
        if line.startswith("?"):
            if not statements:
                print("(no statements yet; tell me something first)")
                continue
            question = tokenize(line[1:])
            if not question:
                print("(empty question)")
                continue
            ids = vocab.encode(question)
            # a batch of the unread statements, its rows pointing into the
            # whole story, and no answer
            sentences, word_mask = _padded(unread, max(map(len, unread), default=1))
            batch = Batch(np.ones((1, len(rows))), np.array([ids]), np.ones((1, len(ids))),
                          np.zeros((1, 0), np.int64), np.zeros((1, 0)), sentences, word_mask,
                          np.array([rows]), [])
            predictions, records = predict_batch(batch, ckpt.params, ckpt.config,
                                                 want_records=True, kept=kept)
            unread = []
            answer = " ".join(vocab.decode(predictions[0])) or "(no answer)"
            focus = int(records[0].memory_attention[-1].argmax())
            print(f"answer: {answer}")
            print(f"focus:  [{focus + 1}] {detokenize(statements[focus])}")
            continue
        statement = tokenize(line)
        if not statement:
            print("(empty statement)")
            continue
        statements.append(statement)
        ids = vocab.encode(statement)
        key = tuple(ids)
        if key not in distinct:
            distinct[key] = len(distinct)
            unread.append(ids)
        rows.append(distinct[key])
    return EXIT_OK


def cmd_visualize(args) -> int:
    task = _check_task(args.task)
    ckpt = _load_with_vocab(args.model)
    examples = _encode_with(ckpt.vocab, _data_dir(args), task, args.set)
    if not 0 <= args.index < len(examples):
        raise UsageError(f"--index {args.index} outside 0..{len(examples) - 1}")
    ex = examples[args.index]
    predictions, records = predict_batch(make_batch([ex]), ckpt.params, ckpt.config,
                                         want_records=True)
    sentences = [detokenize(ckpt.vocab.decode(s)) for s in ex.story]
    decoded = ckpt.vocab.decode(predictions[0]) + ["<eos>"]
    export_attention(records[0], sentences, args.out, decoded)
    print(f"prediction: {' '.join(ckpt.vocab.decode(predictions[0]))}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    shape = (args.sentences, args.words, 5, 1)
    config = ModelConfig(size=args.size, depth=args.layers, memories=args.memories,
                         vocab_size=40, max_sentence_len=max(args.words, 1),
                         max_answer_len=1)
    formula = count_ops(config, shape)
    measured = instrument_ops(config, shape)
    print(f"story shape: {args.sentences} sentences x {args.words} words, "
          f"question 5, answer 1")
    print(f"{'component':<24}{'formula':>12}{'instrumented':>14}")
    for field in ("question_encoder", "word_level_encoder", "sentence_level_encoder",
                  "memory_module", "decoder"):
        print(f"{field:<24}{getattr(formula, field):>12}{getattr(measured, field):>14}")
    print(f"{'total':<24}{formula.total:>12}{measured.total:>14}")
    print(f"{'rereading baseline':<24}{formula.baseline_memory:>12}"
          f"{measured.baseline_memory:>14}")
    print(f"memory/baseline ratio: {formula.ratio:.4f}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if not 0 < args.budget_multiplier < float("inf"):
        raise UsageError(f"--budget-multiplier must be positive and finite, "
                         f"got {args.budget_multiplier}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        tasks = [_check_task(int(t)) for t in args.tasks.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"cannot parse --tasks {args.tasks!r}") from None
    reports = reproduce_tasks(_data_dir(args), tasks,
                               budget_multiplier=args.budget_multiplier,
                               seed=args.seed, lr=args.lr, max_grad_norm=args.clip,
                               jobs=args.jobs, out_path=args.out)
    print(f"{'task':<4}{'name':<26}{'error':>8}{'solved':>8}{'batches':>9}{'secs':>8}")
    for r in reports:
        print(f"{r.task:<4}{r.name:<26}{r.error_rate:>8.4f}{str(r.solved).lower():>8}"
              f"{r.batches_used:>9}{r.seconds:>8.1f}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train, "eval": cmd_eval, "ask": cmd_ask,
    "visualize": cmd_visualize, "bench": cmd_bench, "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, DataError, CheckpointError, ContractError, ConfigError,
            ShapeError, MaskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
