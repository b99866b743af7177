import contextlib
import io
import itertools
import random
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amnet.cli
import amnet.model
from amnet.cli import main
from amnet.data import EncodedExample, Vocabulary, detokenize, make_batch, tokenize
from amnet.model import (
    ModelConfig, encode_question, init_params, load_checkpoint, predict_batch,
    save_checkpoint,
)
from amnet.synthetic import write_task_files
from amnet.tensor import MacCounter


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("babi")
    write_task_files(d, 1, n_train=200, n_test=50, seed=0)
    return d


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_dir):
    """A barely-trained checkpoint; enough to exercise every surface."""
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    with pytest.warns(UserWarning):  # non-standard split size
        code = main(["train", "--data-dir", str(data_dir), "--task", "1",
                     "--max-batches", "6", "--seed", "1", "--out", str(out)])
    assert code == 0
    return out


class TestTrainCmd:
    def test_bad_task_is_usage_error(self, capsys, data_dir):
        assert main(["train", "--data-dir", str(data_dir), "--task", "21"]) == 1
        assert "21" in capsys.readouterr().err

    def test_dropout_is_usage_error(self, capsys, data_dir):
        argv = ["train", "--data-dir", str(data_dir), "--task", "1", "--dropout", "0.3"]
        assert main(argv) == 1
        assert "--dropout" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lr", "--clip"])
    def test_non_finite_setting_is_data_error(self, capsys, data_dir, flag):
        with pytest.warns(UserWarning):  # non-standard split size
            code = main(["train", "--data-dir", str(data_dir), "--task", "1", flag, "nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("flag", ["--size", "--layers", "--memories"])
    def test_zero_model_setting_is_data_error(self, capsys, data_dir, tmp_path, flag):
        out = tmp_path / "zero.ckpt"
        with pytest.warns(UserWarning):  # non-standard split size
            code = main(["train", "--data-dir", str(data_dir), "--task", "1", flag, "0",
                         "--max-batches", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "got 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "1.5"])
    def test_target_val_error_outside_unit_interval_is_data_error(
            self, capsys, data_dir, tmp_path, value):
        out = tmp_path / "target.ckpt"
        with pytest.warns(UserWarning):  # non-standard split size
            code = main(["train", "--data-dir", str(data_dir), "--task", "1",
                         "--target-val-error", value, "--max-batches", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "target_val_error" in err
        assert not out.exists()

    def test_non_finite_op_names_batch_and_lr(self, capsys, data_dir, tmp_path, monkeypatch):
        import amnet.training
        real_forward, calls = amnet.training.forward_batch, []

        def poisoned(batch, params, config, **kw):
            calls.append(batch)
            if len(calls) == 3:  # an inf weight reaches the sentence level's gates
                params.sentence_fwd.layers[0].u.data[0, 0] = np.inf
            return real_forward(batch, params, config, **kw)

        monkeypatch.setattr(amnet.training, "forward_batch", poisoned)
        with pytest.warns(UserWarning):  # non-standard split size
            code = main(["train", "--data-dir", str(data_dir), "--task", "1", "--lr", "0.02",
                         "--max-batches", "5", "--out", str(tmp_path / "m.ckpt")])
        assert code == 3 and len(calls) == 3
        assert capsys.readouterr().err == (
            "numeric failure: gru_layer produced non-finite values at batch 3 (lr=0.02)\n")

    def test_non_finite_evaluation_names_batch_and_lr(self, capsys, data_dir, tmp_path,
                                                      monkeypatch):
        import functools

        import amnet.training
        real_adam, calls = amnet.training.adam_step, []

        def poisoned(tensors, *args, **kw):
            real_adam(tensors, *args, **kw)
            calls.append(None)
            if len(calls) == 2:  # the evaluation after batch 2 meets an inf embedding
                tensors[0].data[:] = np.inf

        monkeypatch.setattr(amnet.training, "adam_step", poisoned)
        monkeypatch.setattr(amnet.cli, "TrainConfig",
                            functools.partial(amnet.cli.TrainConfig, eval_every=100))
        with pytest.warns(UserWarning):  # non-standard split size
            code = main(["train", "--data-dir", str(data_dir), "--task", "1", "--lr", "0.02",
                         "--max-batches", "5", "--out", str(tmp_path / "m.ckpt")])
        assert code == 3 and len(calls) == 2
        assert capsys.readouterr().err == (
            "numeric failure: take_rows produced non-finite values at batch 2 (lr=0.02)\n")

    @pytest.mark.parametrize("name", ["missing/x.ckpt", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_out_fails_before_training(self, capsys, data_dir, tmp_path, monkeypatch,
                                                  name):
        monkeypatch.setattr(amnet.cli, "train", lambda *args: pytest.fail("train was called"))
        out = tmp_path / name
        code = main(["train", "--data-dir", str(data_dir), "--task", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err

    def test_missing_data_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--data-dir", str(tmp_path), "--task", "1",
                     "--max-batches", "1"])
        assert code == 2
        assert "qa1" in capsys.readouterr().err

    def test_missing_data_dir_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("AMN_DATA_DIR", raising=False)
        assert main(["train", "--task", "1"]) == 1

    def test_env_fallback(self, data_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AMN_DATA_DIR", str(data_dir))
        out = tmp_path / "m.ckpt"
        with pytest.warns(UserWarning):
            code = main(["train", "--task", "1", "--max-batches", "2",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "m.ckpt.log.tsv").exists()

    def test_same_seed_same_logs_and_checkpoints(self, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.ckpt"
            with pytest.warns(UserWarning):
                code = main(["train", "--data-dir", str(data_dir), "--task", "1",
                             "--max-batches", "8", "--seed", "9", "--out", str(out)])
            assert code == 0
            outs.append(out)
        a, b = outs
        assert a.read_bytes() == b.read_bytes()

        def strip_seconds(path):
            rows = [line.split("\t")[:-1] for line in
                    (path.parent / (path.name + ".log.tsv")).read_text().splitlines()]
            return rows

        assert strip_seconds(a) == strip_seconds(b)


class TestEvalCmd:
    def test_eval_prints_rate_and_flag(self, data_dir, trained, capsys):
        code = main(["eval", "--model", str(trained), "--data-dir", str(data_dir),
                     "--task", "1", "--set", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("error_rate ")
        rate = float(out.split()[1])
        assert 0.0 <= rate <= 1.0
        assert "solved" in out

    def test_eval_all_sets_without_retraining(self, data_dir, trained, capsys):
        for which in ("train", "val"):
            with pytest.warns(UserWarning):  # 200-example split is non-standard
                assert main(["eval", "--model", str(trained), "--data-dir",
                             str(data_dir), "--task", "1", "--set", which]) == 0
        assert main(["eval", "--model", str(trained), "--data-dir",
                     str(data_dir), "--task", "1", "--set", "test"]) == 0

    def test_untrained_is_chance_level(self, data_dir, trained, capsys):
        code = main(["eval", "--model", str(trained), "--data-dir", str(data_dir),
                     "--task", "1", "--set", "test"])
        assert code == 0
        rate = float(capsys.readouterr().out.split()[1])
        assert rate > 0.5  # 6 batches cannot solve the task

    def test_checkpoint_without_vocab_is_contract_error(self, data_dir, tmp_path, capsys):
        config = ModelConfig(size=8, vocab_size=10, max_sentence_len=4, max_answer_len=1)
        path = tmp_path / "novocab.ckpt"
        save_checkpoint(init_params(config, 0), config, path)  # no vocab
        code = main(["eval", "--model", str(path), "--data-dir", str(data_dir),
                     "--task", "1"])
        assert code == 2
        assert "vocabulary" in capsys.readouterr().err

    def test_missing_model_file(self, data_dir, capsys):
        code = main(["eval", "--model", "/nonexistent.ckpt",
                     "--data-dir", str(data_dir), "--task", "1"])
        assert code == 2


def _corrupt_checkpoint(tmp_path, damage):
    config = ModelConfig(size=8, vocab_size=10, max_sentence_len=4, max_answer_len=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(config, 0), config, path, Vocabulary(list("abcdef")))
    path.write_bytes(damage(path.read_bytes()))
    return path


def _swap(old: bytes, new: bytes):
    assert len(old) == len(new)  # keeps every length prefix valid
    return lambda raw: raw.replace(old, new, 1)


def _checkpoint_with_size_line(tmp_path, size_line: bytes):
    path = _corrupt_checkpoint(tmp_path, _swap(b"size=8", size_line))
    return ["eval", "--model", str(path), "--data-dir", str(tmp_path), "--task", "1"]


def _babi_with_support(tmp_path, support: str):
    (tmp_path / "qa1_single-supporting-fact_train.txt").write_text(
        f"1 Mary moved to the hallway.\n2 Where is Mary?\thallway\t{support}\n")
    return ["train", "--data-dir", str(tmp_path), "--task", "1", "--max-batches", "1"]


def _negative_seed(tmp_path, command: str, task_flag: str):
    write_task_files(tmp_path, 1, n_train=20, n_test=5, seed=0)
    return [command, "--data-dir", str(tmp_path), task_flag, "1", "--seed", "-1"]


@pytest.mark.parametrize("make_argv, where", [
    (lambda d: _checkpoint_with_size_line(d, b"size=x"), "size='x'"),
    (lambda d: _checkpoint_with_size_line(d, b"size=\xff"), "config line 1"),
    (lambda d: _babi_with_support(d, "foo"), "_train.txt:2:"),
    pytest.param(lambda d: _negative_seed(d, "train", "--task"), "seed must be >= 0, got -1",
                 marks=pytest.mark.filterwarnings("ignore:expected 10,000 examples")),
    (lambda d: _negative_seed(d, "reproduce", "--tasks"), "seed must be >= 0, got -1"),
    (lambda d: ["bench", "--sentences", "-3"], "--sentences -3 --words 6"),
    (lambda d: ["bench", "--words", "-2"], "--sentences 10 --words -2"),
], ids=["config-value-not-int", "config-line-not-utf8", "babi-support-not-int",
        "train-negative-seed", "reproduce-negative-seed", "bench-negative-sentences",
        "bench-negative-words"])
def test_malformed_input_is_data_error(tmp_path, capsys, make_argv, where):
    assert main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize("damage", [
    lambda raw: b"XXXX" + raw[4:],
    lambda raw: raw[:4] + struct.pack("<H", 9) + raw[6:],
    lambda raw: raw[:5],
    _swap(b"size=8", b"sizz=8"),
    _swap(b"vocab=a b c d e f", b"vocab=a b c d eff"),
    _swap(b"vocab=a b c d e f", b"vocab=a b c d e e"),
    _swap(b"vocab=a b c d e f", b"vocab=ab <go> e f"),
    _swap(b"embedding\x02" + struct.pack("<2I", 10, 8),
          b"embedding\x02" + struct.pack("<2I", 8, 10)),
], ids=["magic", "version", "truncated", "config-field", "vocab-size", "vocab-duplicate",
        "vocab-reserved", "array-shape"])
def test_checkpoint_errors_name_the_file(tmp_path, capsys, monkeypatch, damage):
    path = _corrupt_checkpoint(tmp_path, damage)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["ask", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def _ask_checkpoint(tmp_path, memories=1):
    """A size-4 checkpoint over the words a..f, and a session of two
    statements and a question in them."""
    config = ModelConfig(size=4, memories=memories, vocab_size=10, max_sentence_len=4,
                         max_answer_len=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(config, seed=0), config, path, Vocabulary(list("abcdef")))
    return path, "a b\nc d e\n? f a\n"


def test_non_finite_answer_is_one_line(tmp_path, monkeypatch, capsys):
    # a finite weight whose products overflow: the ops' own check reports it,
    # not numpy's RuntimeWarnings before it
    path, session = _ask_checkpoint(tmp_path)
    ckpt = load_checkpoint(path)
    ckpt.params.decoder_attention.proj.data[:] = -3e38
    save_checkpoint(ckpt.params, ckpt.config, path, ckpt.vocab)
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ask", "--model", str(path)]) == 3
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_damaged_checkpoints_end_in_one_line(tmp_path, monkeypatch, capsys):
    """Every truncation up to the first array payload and a seeded sample of
    byte changes: `ask` answers (0) or exits 2 or 3 with one stderr line."""
    path, session = _ask_checkpoint(tmp_path, memories=2)
    raw = path.read_bytes()
    first_payload = raw.index(b"embedding") + len(b"embedding") + 1 + 8  # rank u8, 2 dims
    damaged = [raw[:n] for n in range(first_payload + 1)]
    rng = random.Random(0)
    for _ in range(300):
        i = rng.randrange(len(raw))
        byte = rng.choice([0x00, 0xFF, raw[i] ^ 0x01, raw[i] ^ 0x80])
        damaged.append(raw[:i] + bytes([byte]) + raw[i + 1:])
    codes = []
    for data in damaged:
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.StringIO(session))
        codes.append(main(["ask", "--model", str(path)]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2, 3) and err.count("\n") == (codes[-1] != 0), (codes[-1], err)
    assert set(codes[:first_payload + 1]) == {2}  # every truncation is refused


class TestAskCmd:
    def run_ask(self, trained, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        return main(["ask", "--model", str(trained)])

    def test_question_before_statements(self, trained, monkeypatch, capsys):
        assert self.run_ask(trained, monkeypatch, "? where is mary\n") == 0
        assert "no statements" in capsys.readouterr().out

    def test_reset_then_question(self, trained, monkeypatch, capsys):
        text = "mary moved to the bathroom\nreset\n? where is mary\n"
        assert self.run_ask(trained, monkeypatch, text) == 0
        out = capsys.readouterr().out
        assert "story cleared" in out
        assert "no statements" in out

    def test_answers_with_focus_line(self, trained, monkeypatch, capsys):
        text = "mary moved to the bathroom\njohn went to the hallway\n? where is mary\n"
        assert self.run_ask(trained, monkeypatch, text) == 0
        out = capsys.readouterr().out
        assert "answer:" in out
        assert "focus:" in out

    def test_unknown_words_still_answer(self, trained, monkeypatch, capsys):
        text = "zorblax teleported to the moonbase\n? where is zorblax\n"
        assert self.run_ask(trained, monkeypatch, text) == 0
        assert "answer:" in capsys.readouterr().out

    def test_empty_statement_is_skipped(self, trained, monkeypatch, capsys):
        assert self.run_ask(trained, monkeypatch, "...\n? where is mary\n") == 0
        out = capsys.readouterr().out
        assert "(empty statement)" in out
        assert "no statements" in out


_ASK_WORDS = ("mary", "john", "sandra", "moved", "went", "to", "the", "kitchen", "garden",
              "where", "is", "zorblax", "moonbase", "Mary", "it's")
_words = st.lists(st.sampled_from(_ASK_WORDS), min_size=1, max_size=8).map(" ".join)
# any characters but line breaks: `ask` reads its stdin line by line
_free_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                     max_size=20)
_ask_lines = st.lists(st.one_of(
    _words,                                            # statements
    _words.map("? {}".format), _free_text.map("?{}".format),  # questions
    st.sampled_from(["reset", "", "   ", "...", "?", "? ?!", "?.", ";,:"]),
    _free_text,                                        # punctuation, unicode, unknown words
    st.builds(lambda w, n: " ".join([w] * n), st.sampled_from(_ASK_WORDS),
              st.integers(300, 1_500)),                # very long lines
), max_size=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lines=_ask_lines)
def test_fuzzed_ask_input_answers_or_skips(trained, lines):
    """`main` returns 0 and never raises on any mix of `ask` lines, and
    answers each question with words asked after a statement since the last
    `reset`."""
    text = "\n".join(lines) + "\n"
    told, want = False, 0
    for line in io.StringIO(text):
        line = line.strip()
        if line == "reset":
            told = False
        elif line.startswith("?"):
            want += told and bool(tokenize(line[1:]))
        elif tokenize(line):
            told = True
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            assert main(["ask", "--model", str(trained)]) == 0
    finally:
        sys.stdin = stdin
    printed = out.getvalue().splitlines()
    assert sum(l.startswith("answer: ") for l in printed) == want
    assert sum(l.startswith("focus:  [") for l in printed) == want


def _ask_session(seed: int = 0) -> list[str]:
    """A 66-statement story, `reset`, then 12 more statements, asking after
    1, 2 and 3 new statements in turn. Statements repeat (20 distinct ones)
    and some words are outside the task-1 vocabulary."""
    rng = random.Random(seed)
    pool = rng.sample([f"{who} {verb} to the {where}"
                       for who in ("mary", "john", "sandra", "zorblax")
                       for verb in ("moved", "went", "teleported")
                       for where in ("kitchen", "garden", "office", "moonbase")], 20)
    lines = []
    for length in (66, 12):
        told, gaps = 0, itertools.cycle((1, 2, 3))
        while told < length:
            k = min(next(gaps), length - told)
            lines += [rng.choice(pool) for _ in range(k)]
            lines.append(f"? where is {rng.choice(('mary', 'john', 'zorblax'))}")
            told += k
        lines.append("reset")
    return lines


def _ask_questions(lines):
    """Per question: (the story so far, the question line, the lines new to
    the word table since the previous question: statements, then the
    question itself, each listed once and only if not told or asked before)."""
    story, seen, new, out = [], set(), [], []
    for line in lines:
        if line == "reset":
            story, seen, new = [], set(), []
            continue
        if not line.startswith("?"):
            story.append(line)
        key = tuple(tokenize(line))
        if key not in seen:
            seen.add(key)
            new.append(line)
        if line.startswith("?"):
            out.append((list(story), line, new))
            new = []
    return out


def _whole_story(ckpt, story, question):
    """`predict_batch` with records over the whole story, as one example."""
    vocab = ckpt.vocab
    ex = EncodedExample([vocab.encode(tokenize(s)) for s in story],
                        list(range(1, len(story) + 1)), vocab.encode(tokenize(question[1:])),
                        [0], [])
    predictions, records = predict_batch(make_batch([ex]), ckpt.params, ckpt.config,
                                         want_records=True)
    return predictions[0], records[0]


def _predicted_lines(ckpt, story, question):
    """The `answer:` and `focus:` lines of `predict_batch` over the whole story."""
    prediction, record = _whole_story(ckpt, story, question)
    focus = int(record.memory_attention[-1].argmax())
    return [f"answer: {' '.join(ckpt.vocab.decode(prediction)) or '(no answer)'}",
            f"focus:  [{focus + 1}] {detokenize(tokenize(story[focus]))}"]


class TestAskSession:
    """`amn ask` over a growing story answers as `predict_batch` does over the
    whole story, and reads each distinct statement's words once per story."""

    def test_answers_equal_predict_batch_on_whole_story(self, trained, monkeypatch, capsys):
        lines = _ask_session()
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["ask", "--model", str(trained)]) == 0
        printed = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith(("answer:", "focus:"))]
        ckpt = load_checkpoint(trained)
        want = [l for story, q, _ in _ask_questions(lines)
                for l in _predicted_lines(ckpt, story, q)]
        assert len(want) == 2 * 39
        assert printed == want

    def test_word_level_reads_only_new_statements(self, trained, monkeypatch):
        macs = []  # per question: word-level MACs inside encode_document
        inside = []

        def document(*args, **kwargs):
            inside.append(True)
            try:
                return encode_document(*args, **kwargs)
            finally:
                inside.pop()

        def sequence(*args, **kwargs):
            with MacCounter() as counter:
                result = run_sequence(*args, **kwargs)
            if inside:
                macs[-1] += counter.total
            return result

        def predict(*args, **kwargs):
            macs.append(0)
            return predict_batch(*args, **kwargs)

        encode_document, run_sequence = amnet.model.encode_document, amnet.model.run_sequence
        monkeypatch.setattr(amnet.model, "encode_document", document)
        monkeypatch.setattr(amnet.model, "run_sequence", sequence)
        monkeypatch.setattr(amnet.cli, "predict_batch", predict)
        lines = _ask_session()
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["ask", "--model", str(trained)]) == 0
        monkeypatch.undo()

        ckpt = load_checkpoint(trained)
        want, repeated = [], 0
        for _, question, new in _ask_questions(lines):
            if not new:
                want.append(0)
                continue
            # the new statements and a new question, read in one call
            ids = [ckpt.vocab.encode(tokenize(s)) for s in new]
            width = max(map(len, ids))
            padded = np.array([s + [0] * (width - len(s)) for s in ids])
            with MacCounter() as counter:
                encode_question(padded, (padded > 0).sum(axis=1), ckpt.params, ckpt.config)
            want.append(counter.total)
            repeated += question not in new
        assert macs == want
        assert want.count(0) > 5  # repeated questions after repeats only: nothing read
        assert repeated > 5  # a repeated question adds no row beside new statements
        after_reset = len(_ask_questions(lines[:lines.index("reset") + 1]))
        assert want[after_reset] > 0  # a story told again is read again

    def test_width_64_answers_match_whole_story(self, trained, tmp_path, monkeypatch,
                                                capsys):
        vocab = load_checkpoint(trained).vocab
        config = ModelConfig(size=64, memories=3, vocab_size=len(vocab),
                             max_sentence_len=8, max_answer_len=1)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(init_params(config, seed=0), config, path, vocab)
        attention = []

        def predict(*args, **kwargs):
            predictions, records = predict_batch(*args, **kwargs)
            attention.append(records[0].memory_attention)
            return predictions, records

        monkeypatch.setattr(amnet.cli, "predict_batch", predict)
        lines = _ask_session(seed=1)
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["ask", "--model", str(path)]) == 0
        monkeypatch.undo()
        ckpt = load_checkpoint(path)
        worst = 0.0
        for got, (story, q, _) in zip(attention, _ask_questions(lines), strict=True):
            _, record = _whole_story(ckpt, story, q)
            worst = max(worst, float(np.abs(got - record.memory_attention).max()))
        print(f"width 64: largest memory-attention difference, kept rows vs whole "
              f"story: {worst:.3g}")
        assert worst <= 1e-5


class TestVisualizeCmd:
    def test_writes_normalized_tsv(self, data_dir, trained, tmp_path, capsys):
        out = tmp_path / "heat.tsv"
        with pytest.warns(UserWarning):
            code = main(["visualize", "--model", str(trained), "--data-dir",
                         str(data_dir), "--task", "1", "--set", "val",
                         "--index", "0", "--out", str(out)])
        assert code == 0
        rows = [l.split("\t") for l in out.read_text().splitlines()[1:]]
        steps = {(r[0], r[1]) for r in rows}
        for section, step in steps:
            got = sum(float(r[3]) for r in rows if (r[0], r[1]) == (section, step))
            assert abs(got - 1.0) < 1e-6

    def test_index_out_of_range(self, data_dir, trained, capsys):
        with pytest.warns(UserWarning):
            code = main(["visualize", "--model", str(trained), "--data-dir",
                         str(data_dir), "--task", "1", "--set", "val",
                         "--index", "99999", "--out", "/tmp/x.tsv"])
        assert code == 1


class TestBenchCmd:
    def test_ratio_below_one(self, capsys):
        assert main(["bench", "--size", "32", "--layers", "1", "--memories", "1",
                     "--sentences", "10", "--words", "6"]) == 0
        out = capsys.readouterr().out
        ratio = float(out.rsplit(" ", 1)[-1])
        assert 0 < ratio < 1

    def test_doubling_words_keeps_memory_count(self, capsys):
        def memory_line(words):
            main(["bench", "--sentences", "8", "--words", str(words)])
            out = capsys.readouterr().out
            for line in out.splitlines():
                if line.startswith("memory_module"):
                    return line.split()
            raise AssertionError("no memory_module line")

        a, b = memory_line(6), memory_line(12)
        assert a[1] == b[1]  # formula count
        assert a[2] == b[2]  # instrumented count

    def test_formula_close_to_instrumented(self, capsys):
        main(["bench", "--size", "64", "--layers", "2", "--memories", "3",
              "--sentences", "12", "--words", "7"])
        out = capsys.readouterr().out
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("question_encoder", "word_level_encoder",
                                      "sentence_level_encoder", "memory_module",
                                      "decoder", "total"):
                formula, measured = int(parts[-2]), int(parts[-1])
                assert abs(formula - measured) <= 0.01 * max(formula, measured)


class TestReproduceCmd:
    def test_bad_tasks_flag(self, data_dir, capsys):
        assert main(["reproduce", "--data-dir", str(data_dir),
                     "--tasks", "banana"]) == 1

    def test_missing_data(self, tmp_path, capsys):
        assert main(["reproduce", "--data-dir", str(tmp_path), "--tasks", "4"]) == 2
        assert "qa4" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--budget-multiplier", "nan"], ["--budget-multiplier", "inf"],
        ["--budget-multiplier", "-1"], ["--budget-multiplier", "0"], ["--jobs", "0"],
    ], ids=["nan", "inf", "negative", "zero", "no-jobs"])
    def test_bad_budget_or_jobs_is_usage_error(self, data_dir, capsys, argv):
        assert main(["reproduce", "--data-dir", str(data_dir), "--tasks", "1", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_smoke(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        with pytest.warns(UserWarning):
            code = main(["reproduce", "--data-dir", str(data_dir), "--tasks", "1",
                         "--budget-multiplier", "0.002", "--out", str(out)])
        assert code == 0
        assert "single supporting fact" in capsys.readouterr().out
        assert out.exists()


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
