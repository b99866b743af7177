import dataclasses

import numpy as np
import pytest

from amnet.analysis import (
    REFERENCE_ERROR, TASK_SETTINGS, TASK_NAMES, NoAnswerError, OpCountReport, TaskReport,
    attend_macs, count_ops, export_attention, gru_step_macs, instrument_ops,
    oracle_task1, reproduce_tasks, stack_macs,
)
from amnet.data import DataError, parse_babi_file
from amnet.model import AttentionRecord, ModelConfig
from amnet.synthetic import write_task_files


def config_for(size, depth, mem, vocab=30):
    return ModelConfig(size=size, depth=depth, memories=mem, vocab_size=vocab,
                       max_sentence_len=8, max_answer_len=2)


class TestCountFormulas:
    def test_memory_cost_ignores_words_per_sentence(self):
        c = config_for(32, 1, 2)
        a = count_ops(c, (10, 6, 4, 1))
        b = count_ops(c, (10, 12, 4, 1))
        assert a.memory_module == b.memory_module
        assert b.word_level_encoder == 2 * a.word_level_encoder

    def test_total_is_component_sum(self):
        r = count_ops(config_for(64, 2, 3), (20, 7, 5, 2))
        assert r.total == (r.question_encoder + r.word_level_encoder +
                           r.sentence_level_encoder + r.memory_module + r.decoder)

    def test_attend_only_memory_beats_rereading_everywhere(self):
        for size, depth, mem, _ in set(TASK_SETTINGS.values()):
            c = config_for(size, depth, mem)
            for s in range(2, 101):
                r = count_ops(c, (s, 6, 4, 1))
                assert r.memory_module < r.baseline_memory, (size, depth, mem, s)
                assert 0 < r.ratio < 1

    def test_ratio_falls_as_sentences_grow_longer(self):
        c = config_for(32, 1, 1)
        ratios = [count_ops(c, (10, w, 4, 1)).ratio for w in (4, 8, 16, 32)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_components_positive(self):
        r = count_ops(config_for(32, 1, 1), (2, 2, 2, 1))
        for field in ("question_encoder", "word_level_encoder",
                      "sentence_level_encoder", "memory_module", "decoder"):
            assert getattr(r, field) > 0


class TestInstrumentedCounts:
    @pytest.mark.parametrize("size,depth,mem,shape", [
        (32, 1, 1, (10, 6, 4, 1)),
        (32, 1, 3, (5, 4, 3, 1)),
        (64, 2, 3, (6, 5, 4, 2)),
        (64, 1, 2, (12, 7, 6, 1)),
    ])
    def test_formula_matches_instrumented_within_1pct(self, size, depth, mem, shape):
        config = config_for(size, depth, mem)
        want = count_ops(config, shape)
        got = instrument_ops(config, shape)
        for field in ("question_encoder", "word_level_encoder",
                      "sentence_level_encoder", "memory_module", "decoder",
                      "baseline_memory"):
            w, g = getattr(want, field), getattr(got, field)
            assert abs(w - g) <= 0.01 * max(w, g), (field, w, g)

    def test_memory_instrumentation_invariant_to_words(self):
        config = config_for(32, 1, 2)
        a = instrument_ops(config, (6, 3, 4, 1))
        b = instrument_ops(config, (6, 9, 4, 1))
        assert a.memory_module == b.memory_module


class TestExportAttention:
    def test_single_cell_dump(self, tmp_path):
        record = AttentionRecord(np.array([[1.0]]), np.array([[1.0], [1.0]]),
                                 np.zeros((1, 4)))
        path = tmp_path / "heat.tsv"
        export_attention(record, ["mary moved to the bathroom"], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "section\tstep\tindex\tweight\ttext"
        memory_rows = [l for l in lines[1:] if l.startswith("memory")]
        assert len(memory_rows) == 1
        assert memory_rows[0].split("\t") == \
            ["memory", "1", "1", "1.000000", "mary moved to the bathroom"]

    def test_rows_sum_to_one(self, tmp_path):
        rng = np.random.default_rng(0)
        mem = rng.dirichlet(np.ones(5), size=3)
        dec = rng.dirichlet(np.ones(3), size=2)
        record = AttentionRecord(mem, dec, np.zeros((3, 4)))
        path = tmp_path / "heat.tsv"
        export_attention(record, [f"s{i}" for i in range(5)], path)
        rows = [l.split("\t") for l in path.read_text().strip().splitlines()[1:]]
        for section, steps in (("memory", 3), ("decoder", 2)):
            for step in range(1, steps + 1):
                got = sum(float(r[3]) for r in rows
                          if r[0] == section and int(r[1]) == step)
                assert abs(got - 1.0) < 1e-6

    def test_sentence_count_mismatch(self, tmp_path):
        record = AttentionRecord(np.ones((1, 2)) / 2, np.ones((1, 1)), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            export_attention(record, ["only one"], tmp_path / "x.tsv")


class TestOracle:
    def test_two_sentence_story(self):
        story = [["mary", "moved", "to", "the", "bathroom"],
                 ["john", "went", "to", "the", "hallway"]]
        assert oracle_task1(story, ["where", "is", "mary"]) == "bathroom"

    def test_latest_movement_wins(self):
        story = [["mary", "moved", "to", "the", "bathroom"],
                 ["mary", "journeyed", "back", "to", "the", "garden"]]
        assert oracle_task1(story, ["where", "is", "mary"]) == "garden"

    def test_unknown_entity(self):
        story = [["mary", "moved", "to", "the", "bathroom"]]
        with pytest.raises(NoAnswerError):
            oracle_task1(story, ["where", "is", "john"])

    def test_agrees_with_generated_gold(self, tmp_path):
        train, _ = write_task_files(tmp_path, 1, n_train=1_000, n_test=5, seed=3)
        examples = parse_babi_file(train)
        assert examples
        for ex in examples:
            assert oracle_task1(ex.story, ex.question) == ex.answer[0]


class TestReproduce:
    def test_missing_data_lists_paths(self, tmp_path):
        with pytest.raises(DataError) as err:
            reproduce_tasks(tmp_path, [1, 4])
        msg = str(err.value)
        assert "qa1" in msg and "qa4" in msg

    def test_unknown_task_rejected(self, tmp_path):
        with pytest.raises(DataError, match="21"):
            reproduce_tasks(tmp_path, [21])

    def test_smoke_run_writes_report(self, tmp_path):
        write_task_files(tmp_path, 1, n_train=200, n_test=50, seed=4)
        out = tmp_path / "report.tsv"
        with pytest.warns(UserWarning):  # 200-example split is non-standard
            reports = reproduce_tasks(tmp_path, [1], budget_multiplier=0.002,
                                       out_path=out)
        assert len(reports) == 1
        assert reports[0].batches_used == 2
        assert reports[0].name == TASK_NAMES[1]
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("task\t")
        assert len(lines) == 2

    @pytest.mark.filterwarnings("ignore:expected 10,000 examples")
    def test_parallel_jobs_match_serial(self, tmp_path):
        for task in (1, 4):
            write_task_files(tmp_path, task, n_train=200, n_test=50, seed=task)

        def reports_without_seconds(jobs):
            reports = reproduce_tasks(tmp_path, [1, 4], budget_multiplier=0.002, jobs=jobs)
            return [dataclasses.replace(r, seconds=0.0) for r in reports]

        parallel, serial = reports_without_seconds(2), reports_without_seconds(1)
        assert [r.task for r in parallel] == [1, 4]
        assert parallel == serial

    def test_pool_never_larger_than_task_list(self, tmp_path, monkeypatch):
        import concurrent.futures

        import amnet.analysis as A

        for task in (1, 4):
            write_task_files(tmp_path, task, n_train=20, n_test=5, seed=task)
        sizes = []

        class StandIn:  # records the pool size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandIn)
        monkeypatch.setattr(A, "_run_task", lambda data_dir, task, *_: TaskReport(
            task, TASK_NAMES[task], 0.0, True, 1, 0.0))
        reports = reproduce_tasks(tmp_path, [1, 4], jobs=64)
        assert sizes == [2] and [r.task for r in reports] == [1, 4]

    def test_reference_table_values(self):
        # anchor a few rows of the reference settings
        assert TASK_SETTINGS[1] == (32, 1, 1, 1_000)
        assert TASK_SETTINGS[4] == (32, 1, 1, 1_200)
        assert TASK_SETTINGS[12] == (32, 1, 1, 1_200)
        assert REFERENCE_ERROR[1] == 0.0
        assert REFERENCE_ERROR[16] == 45.4
        assert len(TASK_SETTINGS) == len(TASK_NAMES) == len(REFERENCE_ERROR) == 20
