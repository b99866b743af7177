"""Spans and counters around amnet's public functions, from outside the package.

`Tracer.install` replaces module attributes (and `Tape.backward`) with
wrappers that record a span per call: name, start, end, parent and a
group id shared by the spans of one training batch, one evaluation or one
`ask` question. Model-phase spans also run a `MacCounter`, and counters
are taken at the same boundaries: tape nodes, `gru_step` calls, and the
padded, real and distinct sentence rows of each training `Batch`.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# (module, attribute, span name, group, count MACs); group "new" starts a
# group, "batch" joins the current training batch, None inherits the parent's.
SPANS = (
    ("amnet.data", "load_task_data", "data.load", None, False),
    ("amnet.training", "train", "training.train", None, False),
    ("amnet.training", "batchify", "data.batchify", None, False),
    ("amnet.training", "init_params", "model.init_params", None, False),
    ("amnet.training", "forward_batch", "training.forward_batch", "new", False),
    ("amnet.training", "clip_gradients", "training.clip", "batch", False),
    ("amnet.training", "adam_step", "training.adam", "batch", False),
    ("amnet.training", "evaluate", "training.evaluate", "new", False),
    ("amnet.training", "make_batch", "data.make_batch", None, False),
    ("amnet.training", "predict_batch", "training.predict_batch", None, False),
    ("amnet.tensor", "Tape.backward", "tensor.backward", "batch", False),
    ("amnet.model", "encode_question", "model.question", None, True),
    ("amnet.model", "encode_document", "model.document", None, True),
    ("amnet.model", "run_sequence", None, None, True),  # named by its parent
    ("amnet.model", "run_bidirectional", "model.sentence_level", None, True),
    ("amnet.model", "memory_module", "model.memory", None, True),
    ("amnet.model", "decode_teacher_forced", "model.decoder", None, True),
    ("amnet.model", "decode_greedy", "model.decode_greedy", None, True),
    ("amnet.model", "save_checkpoint", "model.save_checkpoint", None, False),
    ("amnet.cli", "main", "cli.main", None, False),
    ("amnet.cli", "load_checkpoint", "model.checkpoint_load", None, False),
    ("amnet.cli", "make_batch", "data.make_batch", None, False),
    ("amnet.cli", "predict_batch", "cli.predict_batch", "new", False),
)
GRU_STEP_SITES = (("amnet.gru", "gru_step"), ("amnet.model", "gru_step"))


class Span:
    __slots__ = ("id", "parent", "group", "name", "start", "end", "macs", "info")

    def __init__(self, sid, parent, group, name):
        self.id, self.parent, self.group, self.name = sid, parent, group, name
        self.start = self.end = 0.0
        self.macs = None
        self.info = {}

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


def batch_rows(batch) -> dict:
    """Padded, real and distinct sentence rows of a `Batch` (the all-PAD row,
    when present, counts once among the distinct rows)."""
    b, s, lw = batch.story.shape
    return {"padded": b * s, "real": int(batch.sentence_mask.sum()),
            "distinct": len(np.unique(batch.story.reshape(b * s, lw), axis=0))}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.gru_steps = 0
        self.batch_group = None
        self._undo = []

    # -- installing wrappers -------------------------------------------------

    def install(self, modules) -> None:
        from amnet.tensor import MacCounter

        for mod_name, attr, name, group, macs in SPANS:
            owner = modules[mod_name]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._span_wrapper(
                getattr(owner, attr), name, group, MacCounter if macs else None))
        for mod_name, attr in GRU_STEP_SITES:
            self._patch(modules[mod_name], attr, self._counting(getattr(modules[mod_name], attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _counting(self, fn):
        def counted(*args, **kwargs):
            self.gru_steps += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, fn, name, group, counter_cls):
        tracer = self

        def wrapped(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span_name = name or ("model.word_level" if parent and parent.name == "model.document"
                                 else "model.question_encoder")
            span = Span(len(tracer.spans), parent.id if parent else None, None, span_name)
            if group == "new":
                span.group = span.id
            elif group == "batch":
                span.group = tracer.batch_group
            elif parent is not None:
                span.group = parent.group
            tracer._enter(span, args)
            tracer.spans.append(span)
            tracer.stack.append(span)
            counter = counter_cls() if counter_cls else None
            steps0 = tracer.gru_steps
            try:
                if counter:
                    counter.__enter__()
                span.start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    if counter:
                        counter.__exit__(None, None, None)
                        span.macs = counter.total
            finally:
                tracer.stack.pop()
            span.info["gru_steps"] = tracer.gru_steps - steps0
            if span.name == "data.batchify":
                span.info["batches"] = len(result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _enter(self, span, args) -> None:
        if span.name == "training.forward_batch":
            self.batch_group = span.id
            span.info.update(batch_rows(args[0]))
        elif span.name == "tensor.backward":
            span.info["tape_nodes"] = len(args[0].nodes)

    # -- output --------------------------------------------------------------

    def write(self, path, summary) -> None:
        """Every span as one JSON line, then the summary object."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "group": s.group,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "macs": s.macs, **s.info}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")

    def child_ms(self) -> list[float]:
        """Per span id: the summed duration of its direct children."""
        out = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] += s.ms
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total ms and self ms (total minus child spans)."""
        child_ms = self.child_ms()
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += s.ms
            row["self_ms"] += s.ms - child_ms[s.id]
        return table

    def root_cover(self) -> tuple[float, float]:
        """(summed duration of root spans, the part of it no child span covers)."""
        child_ms = self.child_ms()
        roots = [s for s in self.spans if s.parent is None]
        total = sum(s.ms for s in roots)
        return total, total - sum(child_ms[s.id] for s in roots)
