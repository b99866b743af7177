"""Benchmark: training, evaluation and `amn ask` latency on generated bAbi data.

Run from the repository root:

    python3 perfbench/run.py --workload task1-long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one process that generates its inputs from --seed, loads
them with `load_task_data`, trains the reference recipe for a fixed batch
budget with `train`, scores held-out examples with `evaluate`, and feeds
`amn ask` sessions through `amnet.cli.main` with stdin replaced. Outputs
are checked against the benchmark's own solvers and float64 reference
forward pass. The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
--trace 0; with --trace 1 the workload runs once untraced and once
traced, and the metrics are the per-layer ones).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

TRAIN_BATCHES = 600     # the same budget on both tasks; see README
LOAD_REPS = 5
PRE_TRAIN_SESSIONS = 2
EVAL_CHUNK = 50         # one evaluate() call per batch of held-out examples
EVAL_PASSES = 2         # passes over the held-out set per round
REPEAT_BATCHES = 100    # a second, shorter train() late in the run


@dataclass
class Workload:
    task: int
    ask: str             # "long" or "short"
    rounds: int          # evaluate/ask rounds every untraced run makes at least


# Why these two: BENCHMARK.json and README.md.
WORKLOADS = {"task1-long": Workload(1, "long", 2), "task4-short": Workload(4, "short", 10)}


def _limit_blas_threads() -> int:
    """At most nproc BLAS threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _import_amnet(reps: int = 3):
    """Import amnet from this checkout's src/ only, ``reps`` times from scratch.

    Returns (package, fastest import in seconds), or (None, None) when the
    checkout has no amnet. numpy is imported first: its import is not the
    program's set-up.
    """
    import numpy  # noqa: F401

    src = ROOT / "src"
    if not (src / "amnet" / "__init__.py").is_file():
        return None, None
    sys.path.insert(0, str(src))
    times = []
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "amnet" or m.startswith("amnet.")]:
            del sys.modules[name]
        t = perf_counter()
        import amnet.cli
        times.append(perf_counter() - t)
    import amnet.data
    import amnet.gru
    import amnet.model
    import amnet.tensor
    import amnet.training
    if Path(amnet.__file__).resolve().parent != src / "amnet":
        return None, None
    return amnet, min(times)


def _environment(nproc: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": nproc}


# ---------------------------------------------------------------------------
# `amn ask` sessions


class ScriptedStdin:
    """Stands in for sys.stdin: hands `amn ask` one line at a time and notes
    when it is handed each line and when it asks for the next."""

    def __init__(self, lines):
        self.lines = lines
        self.asked: list[float] = []
        self.handed: list[float] = []

    def __iter__(self):
        return self

    def __next__(self):
        self.asked.append(perf_counter())
        if len(self.handed) == len(self.lines):
            raise StopIteration
        line = self.lines[len(self.handed)]
        self.handed.append(perf_counter())
        return line + "\n"


@dataclass
class Session:
    lines: list[str]
    code: int
    startup_s: float
    latencies_ms: list[float]
    answers: list[tuple[str, str]]      # printed (answer, focus) per question


def run_session(amnet, ckpt: Path, lines: list[str]) -> Session:
    stdin, out = ScriptedStdin(lines), io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, out
    try:
        t0 = perf_counter()
        code = amnet.cli.main(["ask", "--model", str(ckpt)])
    finally:
        sys.stdin, sys.stdout = saved
    latencies = [1e3 * (stdin.asked[i + 1] - stdin.handed[i])
                 for i, line in enumerate(lines) if line.startswith("?")]
    printed = out.getvalue().splitlines()
    answers = [(a[len("answer: "):], f[len("focus:  "):])
               for a, f in zip(printed, printed[1:])
               if a.startswith("answer: ") and f.startswith("focus:  ")]
    startup = stdin.asked[0] - t0 if stdin.asked else float("nan")
    return Session(lines, code, startup, latencies, answers)


def session_lines(workload: Workload, seed: int, index: int) -> list[str]:
    import stories

    rng = random.Random(f"ask-{workload.ask}-{seed}-{index}")
    if workload.ask == "long":
        return stories.ask_long_session(rng)
    return stories.ask_short_session(rng)


# ---------------------------------------------------------------------------
# one pass over a workload


@dataclass
class Pass:
    load_s: list[float] = field(default_factory=list)
    train_s: float = 0.0        # both train() calls
    train_batches: int = 0
    train_evaluations: int = 0
    eval_s: dict[int, list[float]] = field(default_factory=dict)  # per held-out chunk
    rounds: int = 0
    eval_error: float = 1.0
    sessions: list[Session] = field(default_factory=list)
    program_s: float = 0.0      # summed wall time of every call into the program
    operations: dict[str, int] = field(default_factory=dict)
    data = None
    result = None
    config = None
    ask_config = None


def run_pass(amnet, w: Workload, work: Path, seed: int, rounds: int,
             deadline: float | None) -> Pass:
    """Load LOAD_REPS times, ask PRE_TRAIN_SESSIONS sessions, train the full
    recipe, then rounds of (evaluate the held-out set chunk by chunk, one ask
    session): ``rounds`` of them, and more until perf_counter() passes
    ``deadline``; last, train REPEAT_BATCHES more and make one more round.

    Short timings repeated across the whole run let each report its best
    repeat: on a shared machine a short call often runs between other
    tenants' bursts, a long one rarely does.
    """
    p = Pass()

    def timed(fn):
        t = perf_counter()
        value = fn()
        dt = perf_counter() - t
        p.program_s += dt
        return value, dt

    for _ in range(LOAD_REPS):
        p.data = None   # each load starts from the same heap
        p.data, dt = timed(lambda: amnet.data.load_task_data(work, w.task))
        p.load_s.append(dt)
    data = p.data
    sizes = dict(vocab_size=len(data.vocab), max_sentence_len=data.max_sentence_len,
                 max_answer_len=data.max_answer_len)

    p.ask_config = amnet.model.ModelConfig(size=32, depth=1, memories=3, **sizes)
    ckpt = work / "ask.ckpt"
    timed(lambda: amnet.model.save_checkpoint(
        amnet.model.init_params(p.ask_config, seed=seed), p.ask_config, ckpt, data.vocab))

    def ask():
        lines = session_lines(w, seed, len(p.sessions))
        p.sessions.append(timed(lambda: run_session(amnet, ckpt, lines))[0])

    for _ in range(PRE_TRAIN_SESSIONS):
        ask()

    p.config = amnet.model.ModelConfig(size=32, depth=1, memories=1, **sizes)

    def train(batches):
        tcfg = amnet.training.TrainConfig(lr=0.01, max_grad_norm=5.0, batch_size=50,
                                          eval_every=1_000, max_batches=batches, seed=seed)
        result, dt = timed(lambda: amnet.training.train(p.config, tcfg, data))
        p.train_s += dt
        p.train_batches += result.batches
        p.train_evaluations += len(result.log)
        return result

    def round_():
        wrong = 0.0
        for _ in range(EVAL_PASSES):
            for k, i in enumerate(range(0, len(data.test), EVAL_CHUNK)):
                part = data.test[i:i + EVAL_CHUNK]
                err, dt = timed(lambda: amnet.training.evaluate(p.result.params, p.config, part))
                p.eval_s.setdefault(k, []).append(dt)
                wrong += err * len(part)
        p.eval_error = wrong / (EVAL_PASSES * len(data.test))
        p.rounds += 1
        ask()

    p.result = train(TRAIN_BATCHES)
    while p.rounds < rounds or (deadline is not None and perf_counter() < deadline):
        round_()
    train(REPEAT_BATCHES)
    round_()
    p.operations = {
        "batches": p.train_batches,
        "evaluations": p.train_evaluations + sum(map(len, p.eval_s.values())),
        "questions": sum(len(s.latencies_ms) for s in p.sessions)}
    return p


# ---------------------------------------------------------------------------
# checks


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ties: int = 0
    decode_steps: list[int] = field(default_factory=list)   # per question, for count_ops

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def check_training(amnet, w: Workload, p: Pass, test_file: Path, c: Checks) -> None:
    import numpy as np
    import stories

    solve = stories.SOLVERS[w.task]
    held_out = stories.read_questions(test_file)
    c.check(len(held_out) == len(p.data.test), "held-out example count differs")
    solved = []
    for i, q in enumerate(held_out):
        answer = solve(q.story, q.question)
        c.check(answer == q.answer, f"solver says {answer!r}, gold {q.answer!r} (example {i})")
        solved.append(answer)
    wrong = 0
    vocab = p.data.vocab
    for i in range(0, len(p.data.test), 50):
        chunk = p.data.test[i:i + 50]
        preds, _ = amnet.model.predict_batch(amnet.data.make_batch(chunk),
                                             p.result.params, p.config)
        wrong += sum(vocab.decode(got) != [want] for got, want in zip(preds, solved[i:]))
    error = wrong / len(held_out)
    c.check(error <= 0.05, f"held-out error {error:.4f} against the solver exceeds 0.05")
    c.check(p.eval_error <= 0.05, f"evaluate() reports held-out error {p.eval_error:.4f}")
    c.check(p.result.batches == TRAIN_BATCHES,
            f"train() stopped after {p.result.batches} of {TRAIN_BATCHES} batches")
    c.check(all(np.isfinite(e.train_loss) for e in p.result.log), "training loss not finite")
    print(f"held-out error vs solver {error:.4f}; evaluate() {p.eval_error:.4f}; "
          f"best val {p.result.best_val_error:.4f} at batch {p.result.best_batch}; "
          f"val error <= 0.05 first at batch "
          f"{next((e.batch for e in p.result.log if e.val_error <= 0.05), None)}",
          file=sys.stderr)


def check_ask(p: Pass, ckpt: Path, c: Checks) -> None:
    import reference

    ref = reference.ReferenceModel(ckpt)
    for s in p.sessions:
        n_questions = sum(line.startswith("?") for line in s.lines)
        c.check(s.code == 0 and len(s.answers) == n_questions == len(s.latencies_ms),
                f"ask session ended with code {s.code} after {len(s.answers)} answers")
        statements, k = [], 0
        for line in s.lines:
            if line == "reset":
                statements = []
            elif not line.startswith("?"):
                statements.append(line)
            elif k < len(s.answers):
                want = ref.answer(statements, line[1:])
                c.decode_steps.append(want.decode_steps)
                c.check(all(abs(r.sum() - 1.0) < 1e-9 for r in want.attention_rows),
                        "reference attention row does not sum to 1")
                got_answer, got_focus = s.answers[k]
                k += 1
                want_answer = " ".join(want.tokens) or "(no answer)"
                if want.answer_margin > reference.ANSWER_TIE:
                    c.check(got_answer == want_answer,
                            f"answer {got_answer!r}, reference {want_answer!r}")
                else:
                    c.ties += 1
                if want.focus_margin > reference.FOCUS_TIE:
                    idx = want.focus
                    want_focus = f"[{idx + 1}] {' '.join(reference.tokenize(statements[idx]))}"
                    c.check(got_focus == want_focus,
                            f"focus {got_focus!r}, reference {want_focus!r}")
                else:
                    c.ties += 1


# ---------------------------------------------------------------------------
# metrics


def end_to_end(p: Pass, import_s: float) -> dict:
    """Timings of short calls are the best of their repeats in the run: other
    tenants of a shared machine only ever slow a call down, and a short call
    often runs between their bursts. train() is timed whole: its two calls
    already span most of the run."""
    eval_s = sum(map(min, p.eval_s.values()))
    # ask: the i-th question of every session has the same shape
    latencies = [min(q) for q in zip(*(s.latencies_ms for s in p.sessions))]
    setup = import_s + min(p.load_s) + min(s.startup_s for s in p.sessions)
    return {
        "setup_s": (setup, "s"),
        "train_examples_per_s": (p.train_batches * 50 / p.train_s, "examples/s"),
        "eval_examples_per_s": (len(p.data.test) / eval_s, "examples/s"),
        "ask_ms_p50": (statistics.median(latencies), "ms"),
        "ask_ms_p90": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# (metric key, span name, `count_ops` field) of the model phases
_ENCODER_PHASES = (("question", "model.question", "question_encoder"),
                   ("word_level", "model.word_level", "word_level_encoder"),
                   ("sentence_level", "model.sentence_level", "sentence_level_encoder"),
                   ("memory", "model.memory", "memory_module"))
BATCH_PHASES = _ENCODER_PHASES + (("decoder", "model.decoder", "decoder"),)
QUESTION_PHASES = _ENCODER_PHASES + (("decode", "model.decode_greedy", "decoder"),)


def per_layer(tracer, traced: Pass, untraced: Pass, c: Checks) -> tuple[dict, dict]:
    from amnet.analysis import count_ops

    spans = tracer.spans
    ctx = {s.id: spans[s.group].name if s.group is not None else None for s in spans}
    times = tracer.self_times()
    child_ms = tracer.child_ms()

    def pick(name, context=None, parent=None):
        return [s for s in spans if s.name == name
                and (context is None or ctx[s.id] == context)
                and (parent is None or (s.parent is not None
                                        and spans[s.parent].name == parent))]

    def mean(xs):
        return sum(xs) / len(xs) if xs else float("nan")

    batches = pick("training.forward_batch")
    questions = pick("cli.predict_batch")
    nb, nq = len(batches), len(questions)
    train_spans = pick("training.train")
    m = {}
    m["data.load_s"] = (statistics.median([s.ms / 1e3 for s in pick("data.load")]), "s")
    m["data.batchify_ms_per_batch"] = (
        sum(s.ms for s in pick("data.batchify"))
        / sum(s.info["batches"] for s in pick("data.batchify")), "ms")
    m["data.make_batch_ms_per_eval_batch"] = (
        mean([s.ms for s in pick("data.make_batch", "training.evaluate")]), "ms")
    for key in ("padded", "real", "distinct"):
        m[f"data.rows_{key}_per_batch"] = (mean([s.info[key] for s in batches]), "count")
    m["data.rows_distinct_ratio"] = (
        sum(s.info["distinct"] for s in batches) / sum(s.info["padded"] for s in batches),
        "ratio")
    for key, name, _ in BATCH_PHASES:
        sel = pick(name, "training.forward_batch")
        m[f"model.{key}_ms_per_batch"] = (sum(s.ms for s in sel) / nb, "ms")
        m[f"model.{key}_macs_per_batch"] = (sum(s.macs for s in sel) / nb, "count")
    m["model.loss_ms_per_batch"] = (
        sum(s.ms - child_ms[s.id] for s in batches) / nb, "ms")
    m["model.decode_greedy_ms_per_eval_batch"] = (
        sum(s.ms for s in pick("model.decode_greedy", "training.evaluate"))
        / len(pick("training.predict_batch")), "ms")

    for key, name, _ in QUESTION_PHASES:
        sel = pick(name, "cli.predict_batch")
        m[f"model.{key}_ms_per_question"] = (sum(s.ms for s in sel) / nq, "ms")
        m[f"model.{key}_macs_per_question"] = (sum(s.macs for s in sel) / nq, "count")
    shapes = _question_shapes(traced, c.decode_steps)
    formula = [count_ops(traced.ask_config, shape) for shape in shapes]
    for key, _, field_name in BATCH_PHASES:
        m[f"analysis.{key}_macs_formula_per_question"] = (
            mean([getattr(r, field_name) for r in formula]), "count")
    m["model.checkpoint_load_ms"] = (statistics.median([s.ms for s in pick("model.checkpoint_load")]), "ms")
    backward = pick("tensor.backward")
    m["tensor.tape_nodes_per_batch"] = (mean([s.info["tape_nodes"] for s in backward]), "count")
    m["tensor.backward_ms_per_batch"] = (mean([s.ms for s in backward]), "ms")
    m["gru.steps_per_batch"] = (mean([s.info["gru_steps"] for s in batches]), "count")
    m["gru.steps_per_question"] = (mean([s.info["gru_steps"] for s in questions]), "count")
    m["training.adam_ms_per_batch"] = (mean([s.ms for s in pick("training.adam")]), "ms")
    m["training.clip_ms_per_batch"] = (mean([s.ms for s in pick("training.clip")]), "ms")
    m["training.loop_self_ms_per_batch"] = (
        sum(s.ms - child_ms[s.id] for s in train_spans) / nb, "ms")
    m["training.evaluate_ms_per_call"] = (
        mean([s.ms for s in pick("training.evaluate", parent="training.train")]), "ms")
    m["training.evaluate_share"] = (
        sum(s.ms for s in pick("training.evaluate", parent="training.train"))
        / sum(s.ms for s in train_spans), "share")
    latencies = [x for s in traced.sessions for x in s.latencies_ms]
    m["cli.ask_overhead_ms_per_question"] = (mean(latencies) - mean([s.ms for s in questions]),
                                             "ms")
    covered_total, uncovered = tracer.root_cover()
    m["trace.uncovered_share"] = (uncovered / covered_total, "share")
    m["trace.overhead_share"] = (traced.program_s / untraced.program_s - 1.0, "share")
    detail = {"self_times_ms": times,
              "mac_vs_wall_at_longest_story": mac_vs_wall(tracer, shapes, formula)}
    return m, detail


def _question_shapes(p: Pass, decode_steps):
    """(sentences, words, question length, answer length) per question asked."""
    import stories

    shapes, k = [], 0
    for s in p.sessions:
        statements = []
        for line in s.lines:
            if line == "reset":
                statements = []
            elif not line.startswith("?"):
                statements.append(stories.tokenize(line))
            else:
                steps = decode_steps[k] if k < len(decode_steps) else 1
                shapes.append((len(statements), max(map(len, statements)),
                               len(stories.tokenize(line[1:])), max(steps - 1, 0)))
                k += 1
    return shapes


def mac_vs_wall(tracer, shapes, formula) -> dict:
    """Per phase at the longest story asked: wall ms, measured and formula
    MACs, each with its share of the question's total."""
    spans = tracer.spans
    longest = max(s[0] for s in shapes)
    groups = [s.id for s in spans if s.name == "cli.predict_batch"]
    chosen = {g for g, shape in zip(groups, shapes) if shape[0] == longest}
    picked_formula = [f for f, shape in zip(formula, shapes) if shape[0] == longest]
    rows = {}
    for key, name, field_name in QUESTION_PHASES:
        sel = [s for s in spans if s.name == name and s.group in chosen]
        rows[key] = {"ms": sum(s.ms for s in sel) / len(chosen),
                     "macs": sum(s.macs for s in sel) / len(chosen),
                     "formula_macs": sum(getattr(f, field_name) for f in picked_formula)
                     / len(picked_formula)}
    for col in ("ms", "macs", "formula_macs"):
        total = sum(r[col] for r in rows.values())
        for r in rows.values():
            r[col + "_share"] = r[col] / total
    predict_ms = sum(s.ms for s in spans if s.id in chosen) / len(chosen)
    return {"sentences": longest, "questions": len(chosen), "predict_ms": predict_ms,
            "phases": rows}


# ---------------------------------------------------------------------------
# driver


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    nproc = _limit_blas_threads()
    amnet, import_s = _import_amnet()
    if amnet is None:
        print(f"error: no amnet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import reference
    import stories

    w = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir()
    try:
        paths = stories.write_task(work, w.task, seed)
        c = Checks()
        problems = reference.validate(work)
        c.check(not problems, "; ".join(problems))

        start = perf_counter()
        # a traced run makes the fewest rounds twice, to stay well inside its time
        first = run_pass(amnet, w, work, seed, 1 if trace else w.rounds,
                         None if trace else start + seconds)
        check_training(amnet, w, first, paths["test"], c)
        check_ask(first, work / "ask.ckpt", c)
        passes = [first]
        if trace:
            # the traced pass should not run with the first pass's heap alive
            first.data = first.result = None
            from tracing import Tracer

            tracer = Tracer()
            tracer.install({m: sys.modules[m] for m in
                            ("amnet.data", "amnet.training", "amnet.tensor", "amnet.model",
                             "amnet.gru", "amnet.cli")})
            try:
                traced = run_pass(amnet, w, work, seed, 1, None)
            finally:
                tracer.uninstall()
            passes.append(traced)
            metrics, detail = per_layer(tracer, traced, first, c)
        else:
            metrics = end_to_end(first, import_s)
    finally:
        for f in work.iterdir():
            f.unlink()
        work.rmdir()

    operations = {key: sum(p.operations[key] for p in passes) for key in first.operations}
    operations["checks"] = c.attempted
    attempted = sum(operations.values())
    env = _environment(nproc)
    summary = {"workload": name, "seed": seed, "environment": env,
               "attempted": attempted, "operations": operations,
               "failed": c.failed, "problems": c.problems,
               "tie_skips": c.ties,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if trace:
        summary.update(detail)
        trace_file = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_file, summary)
        print(f"{'span':<28}{'calls':>8}{'total ms':>12}{'self ms':>12}", file=sys.stderr)
        for span, row in sorted(detail["self_times_ms"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"{span:<28}{row['calls']:>8}{row['total_ms']:>12.1f}{row['self_ms']:>12.1f}",
                  file=sys.stderr)
        print(f"spans written to {trace_file}", file=sys.stderr)
    else:
        summary["samples"] = {"train_s": first.train_s,
                              "load_s": first.load_s, "eval_s": first.eval_s,
                              "startup_s": [s.startup_s for s in first.sessions],
                              "latencies_ms": [s.latencies_ms for s in first.sessions],
                              "import_s": import_s,
                              "solved_at_batch": next((e.batch for e in first.result.log
                                                       if e.val_error <= 0.05), None)}
        with open(OUT / f"result-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    for problem in c.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:<48}{value:>16.6g} {unit}")
    print(f"{'attempted':<48}{attempted:>16} "
          f"({', '.join(f'{k} {v}' for k, v in operations.items())})")
    print(f"{'failed':<48}{c.failed:>16} (checks)")
    print(json.dumps({"correct": c.failed == 0, "attempted": attempted, "failed": c.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; one table at the end."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for key, v in r["metrics"].items():
            print(f"  {key:<46}{v['value']:>16.6g} {v['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
