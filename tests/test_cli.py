import io
import sys

import numpy as np
import pytest

from amnet.cli import main
from amnet.data import Vocabulary
from amnet.model import ModelConfig, init_params, save_checkpoint
from amnet.synthetic import write_task_files


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


def _checkpoint_with_size_line(tmp_path, size_line: bytes):
    config = ModelConfig(size=8, vocab_size=10, max_sentence_len=4, max_answer_len=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(config, 0), config, path, Vocabulary(list("abcdef")))
    raw = path.read_bytes()
    assert len(size_line) == len(b"size=8")  # keeps the length prefix valid
    path.write_bytes(raw.replace(b"size=8", size_line, 1))
    return ["eval", "--model", str(path), "--data-dir", str(tmp_path), "--task", "1"]


def _babi_with_support(tmp_path, support: str):
    (tmp_path / "qa1_single-supporting-fact_train.txt").write_text(
        f"1 Mary moved to the hallway.\n2 Where is Mary?\thallway\t{support}\n")
    return ["train", "--data-dir", str(tmp_path), "--task", "1", "--max-batches", "1"]


@pytest.mark.parametrize("make_argv, where", [
    (lambda d: _checkpoint_with_size_line(d, b"size=x"), "size='x'"),
    (lambda d: _checkpoint_with_size_line(d, b"size=\xff"), "config line 1"),
    (lambda d: _babi_with_support(d, "foo"), "_train.txt:2:"),
], ids=["config-value-not-int", "config-line-not-utf8", "babi-support-not-int"])
def test_malformed_input_is_data_error(tmp_path, capsys, make_argv, where):
    assert main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


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
