"""Attentive memory network: a hierarchical GRU reader with an attending
memory module, trained end to end on bAbi-style question answering.

The package is a small numpy library: `amnet.tensor` is the autodiff
engine, `amnet.gru` the recurrent cells, `amnet.model` the network,
`amnet.data`/`amnet.synthetic` the bAbi pipeline, `amnet.training` the
optimization recipe, `amnet.analysis` the efficiency accounting and
introspection tools, and `amnet.cli` the command-line front end.
"""

from amnet.analysis import (
    count_ops, export_attention, instrument_ops, oracle_task1, reproduce_tasks,
)
from amnet.data import (
    Example, Vocabulary, batchify, build_vocabulary, load_task_data, make_batch,
    parse_babi_file, split_train_val,
)
from amnet.gru import GruParams, StackSpec, gru_step, run_bidirectional, run_sequence
from amnet.model import (
    AttentionRecord, ModelConfig, ModelParams, encode_document, encode_question,
    forward_batch, forward_example, init_params, load_checkpoint, memory_module,
    predict_batch, save_checkpoint,
)
from amnet.synthetic import write_task_files
from amnet.tensor import MacCounter, Tape, Tensor, grad_check
from amnet.training import TrainConfig, adam_step, clip_gradients, evaluate, train

__all__ = [
    "AttentionRecord", "Example", "GruParams", "MacCounter", "ModelConfig",
    "ModelParams", "StackSpec", "Tape", "Tensor", "TrainConfig", "Vocabulary",
    "adam_step", "batchify", "build_vocabulary", "clip_gradients", "count_ops",
    "encode_document", "encode_question", "evaluate",
    "export_attention", "forward_batch", "forward_example", "grad_check",
    "gru_step", "init_params", "instrument_ops", "load_checkpoint",
    "load_task_data", "make_batch", "memory_module", "oracle_task1",
    "parse_babi_file", "predict_batch", "reproduce_tasks", "run_bidirectional",
    "run_sequence", "save_checkpoint", "split_train_val", "train",
    "write_task_files",
]
