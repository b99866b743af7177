import gc
import hashlib

import numpy as np
import pytest

from amnet.data import (
    EOS, GO, PAD, UNK, DataError, EncodedExample, Example, ParseError, Vocabulary, batchify,
    build_vocabulary, detokenize, find_task_file, load_task_data, make_batch,
    parse_babi_file, split_train_val, tokenize,
)
from amnet.synthetic import generate_task, write_task_files

SAMPLE = """1 Mary moved to the bathroom.
2 John went to the hallway.
3 Where is Mary? \tbathroom\t1
4 Daniel went back to the hallway.
5 Sandra moved to the garden.
6 Where is Daniel? \thallway\t4
1 Sandra travelled to the office.
2 Sandra went to the bathroom.
3 Where is Sandra? \tbathroom\t2
"""

PATHS = """1 The office is north of the bedroom.
2 The bedroom is north of the bathroom.
3 What is north of the bedroom? \toffice\t1
1 You are at the kitchen.
2 Go west.
3 How do you go from the kitchen to the garden? \tn,w\t1 2
"""


@pytest.fixture
def sample_file(tmp_path):
    p = tmp_path / "qa1_single-supporting-fact_train.txt"
    p.write_text(SAMPLE)
    return p


class TestParsing:
    def test_basic_example(self, sample_file):
        examples = parse_babi_file(sample_file)
        assert len(examples) == 3
        first = examples[0]
        assert first.story == [["mary", "moved", "to", "the", "bathroom"],
                               ["john", "went", "to", "the", "hallway"]]
        assert first.question == ["where", "is", "mary"]
        assert first.answer == ["bathroom"]
        assert first.supporting == [0]
        assert first.line_numbers == [1, 2]

    def test_questions_do_not_join_story(self, sample_file):
        examples = parse_babi_file(sample_file)
        second = examples[1]
        # 4 statements so far, no question text among them
        assert len(second.story) == 4
        assert second.line_numbers == [1, 2, 4, 5]
        assert ["where", "is", "mary"] not in second.story
        assert second.supporting == [2]

    def test_line_number_reset_starts_new_story(self, sample_file):
        examples = parse_babi_file(sample_file)
        third = examples[2]
        assert third.story == [["sandra", "travelled", "to", "the", "office"],
                               ["sandra", "went", "to", "the", "bathroom"]]

    def test_comma_answers_become_sequences(self, tmp_path):
        p = tmp_path / "qa19_path-finding_train.txt"
        p.write_text(PATHS)
        examples = parse_babi_file(p)
        assert examples[1].answer == ["n", "w"]
        assert examples[1].supporting == [0, 1]

    def test_malformed_lines(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("mary moved to the bathroom.\n")
        with pytest.raises(ParseError, match="bad.txt:1"):
            parse_babi_file(p)
        p.write_text("1 Where is Mary?\tbathroom\n")
        with pytest.raises(ParseError, match="question line"):
            parse_babi_file(p)

    def test_crlf_tolerated(self, tmp_path):
        p = tmp_path / "crlf.txt"
        p.write_bytes(SAMPLE.replace("\n", "\r\n").encode())
        assert len(parse_babi_file(p)) == 3

    def test_parsing_is_idempotent(self, sample_file):
        a = parse_babi_file(sample_file)
        b = parse_babi_file(sample_file)
        assert a == b

    def test_detokenize_round_trip(self, sample_file):
        examples = parse_babi_file(sample_file)
        got = detokenize(examples[0].story[0])
        original = "Mary moved to the bathroom."
        assert got == " ".join(tokenize(original))
        assert got == original.lower().rstrip(".")


class TestVocabulary:
    def test_empty_corpus_has_reserved_only(self):
        v = build_vocabulary([])
        assert len(v) == 4
        assert v.decode([PAD, GO, EOS, UNK]) == ["<pad>", "<go>", "<eos>", "<unk>"]

    def test_deterministic(self, sample_file):
        examples = parse_babi_file(sample_file)
        a = build_vocabulary(examples)
        b = build_vocabulary(examples)
        assert a.id_to_token == b.id_to_token

    def test_matches_token_set_scan(self, sample_file):
        examples = parse_babi_file(sample_file)
        v = build_vocabulary(examples)
        tokens = set()
        for line in SAMPLE.splitlines():
            body = line.split(" ", 1)[1].split("\t")[0]
            tokens.update(tokenize(body))
            if "\t" in line:
                tokens.update(tokenize(line.split("\t")[1]))
        assert len(v) == 4 + len(tokens)
        assert set(v.id_to_token[4:]) == tokens

    def test_bijection_and_lowercase(self, sample_file):
        v = build_vocabulary(parse_babi_file(sample_file))
        for i, tok in enumerate(v.id_to_token):
            assert tok == tok.lower()
            assert v.token_to_id[tok] == i

    def test_unknown_token_maps_to_unk(self, sample_file):
        v = build_vocabulary(parse_babi_file(sample_file))
        assert v.encode_token("zeppelin") == UNK
        with pytest.raises(DataError):
            v.encode_token("zeppelin", strict=True)

    def test_answers_always_in_vocabulary(self, sample_file):
        examples = parse_babi_file(sample_file)
        v = build_vocabulary(examples)
        for ex in examples:
            for tok in ex.answer:
                assert tok in v


class TestSplit:
    def test_ten_thousand(self):
        xs = list(range(10_000))
        train, val = split_train_val(xs)
        assert (len(train), len(val)) == (9_000, 1_000)
        assert train == xs[:9_000] and val == xs[9_000:]

    def test_proportional_with_warning(self):
        with pytest.warns(UserWarning):
            train, val = split_train_val(list(range(10)))
        assert (len(train), len(val)) == (9, 1)

    def test_partition(self):
        xs = list(range(10_000))
        train, val = split_train_val(xs)
        assert sorted(train + val) == xs


def encode_all(path):
    examples = parse_babi_file(path)
    vocab = build_vocabulary(examples)
    return [vocab.encode_example(e, strict=True) for e in examples], vocab


class TestBatching:
    def test_covers_every_example_once(self, sample_file):
        encoded, _ = encode_all(sample_file)
        encoded = encoded * 34  # 102 examples
        batches = batchify(encoded, batch_size=50, seed=7)
        assert [b.size for b in batches] == [50, 50, 2]
        seen = sorted(id(e) for b in batches for e in b.examples)
        assert seen == sorted(id(e) for e in encoded)

    def test_masks_sum_to_true_lengths(self, sample_file):
        encoded, _ = encode_all(sample_file)
        batch = make_batch(encoded)
        for i, e in enumerate(batch.examples):
            assert batch.sentence_mask[i].sum() == len(e.story)
            for j, sent in enumerate(e.story):
                assert batch.word_mask[i, j].sum() == len(sent)
            assert batch.question_mask[i].sum() == len(e.question)
            assert batch.answer_mask[i].sum() == len(e.answer) + 1  # EOS

    def test_sentence_table_reproduces_every_slot(self, sample_file):
        encoded, _ = encode_all(sample_file)
        batch = make_batch(encoded)
        # stories of 2, 4 and 2 sentences; the second repeats the first's two
        assert batch.story.shape[:2] == (3, 4)
        for i, e in enumerate(batch.examples):
            for j, sent in enumerate(e.story):
                row = batch.sentence_rows[i, j]
                want = np.full(batch.story.shape[2], PAD)
                want[:len(sent)] = sent
                np.testing.assert_array_equal(batch.story[i, j], want)
                np.testing.assert_array_equal(batch.sentences[row], want)
                np.testing.assert_array_equal(batch.sentence_word_mask[row],
                                              batch.word_mask[i, j])
                assert batch.word_mask[i, j].sum() == len(sent)

    def test_sentence_table_rows_are_distinct(self, sample_file):
        encoded, _ = encode_all(sample_file)
        batch = make_batch(encoded * 3)
        rows = {tuple(r) for r in batch.sentences}
        # distinct sentences, the all-PAD row and the distinct questions
        assert len(rows) == len(batch.sentences) == 6 + 1 + 3
        read = np.concatenate([batch.sentence_rows.reshape(-1), batch.question_rows])
        assert set(np.unique(read)) == set(range(len(batch.sentences)))

    def test_padded_slots_share_one_all_pad_row(self, sample_file):
        encoded, _ = encode_all(sample_file)
        batch = make_batch(encoded)
        padded = batch.sentence_rows[batch.sentence_mask == 0]
        assert padded.size == 4 and len(set(padded)) == 1
        assert (batch.sentences[padded[0]] == PAD).all()
        assert (batch.sentence_word_mask[padded[0]] == 0).all()
        assert (batch.story[batch.sentence_mask == 0] == PAD).all()
        assert (batch.word_mask[batch.sentence_mask == 0] == 0).all()

    def test_unpadded_batch_has_no_all_pad_row(self, sample_file):
        encoded, _ = encode_all(sample_file)
        batch = make_batch([encoded[0], encoded[2], encoded[0]])
        assert batch.sentence_mask.all()
        assert len(batch.sentences) == 4 + 2  # distinct sentences and questions
        assert batch.sentence_word_mask.sum(axis=1).min() > 0

    def test_equal_questions_share_one_row(self, sample_file):
        encoded, _ = encode_all(sample_file)
        # a copy of the first question that is not the same list
        again = EncodedExample(encoded[2].story, encoded[2].line_numbers,
                               list(encoded[0].question), encoded[2].answer, [])
        batch = make_batch([encoded[0], encoded[1], again, encoded[0]])
        q = batch.question_rows
        assert q[0] == q[2] == q[3] != q[1]
        assert len(set(q.tolist()) & set(batch.sentence_rows.reshape(-1).tolist())) == 0
        for i, e in enumerate(batch.examples):
            assert batch.question_mask[i].sum() == len(e.question)
            np.testing.assert_array_equal(batch.question[i, :len(e.question)], e.question)
            assert (batch.question[i, len(e.question):] == PAD).all()

    def test_questions_never_take_the_all_pad_row(self, sample_file):
        encoded, _ = encode_all(sample_file)
        batch = make_batch(encoded * 2)
        pad_row = batch.sentence_rows[batch.sentence_mask == 0][0]
        assert pad_row not in batch.question_rows
        assert (batch.question_mask.sum(axis=1) > 0).all()
        # an empty question is the empty word sequence: the all-PAD row
        empty = EncodedExample(encoded[0].story, encoded[0].line_numbers, [], [6], [])
        batch = make_batch([encoded[1], empty])
        assert batch.question_rows[1] == batch.sentence_rows[1, -1]
        assert batch.question_mask[1].sum() == 0

    def test_answer_rows_end_with_eos(self, sample_file):
        encoded, _ = encode_all(sample_file)
        batch = make_batch(encoded)
        for i, e in enumerate(batch.examples):
            assert batch.answer[i, len(e.answer)] == EOS

    def test_shuffle_is_seeded(self, sample_file):
        encoded, _ = encode_all(sample_file)
        encoded = encoded * 20
        a = batchify(encoded, 8, seed=3)
        b = batchify(encoded, 8, seed=3)
        c = batchify(encoded, 8, seed=4)
        assert all(np.array_equal(x.story, y.story) for x, y in zip(a, b))
        assert any(not np.array_equal(x.story, y.story) for x, y in zip(a, c))


class TestSyntheticGenerator:
    @pytest.mark.parametrize("task,questions", [(1, 50), (4, 50), (12, 50)])
    def test_generated_files_parse(self, tmp_path, task, questions):
        train, test = write_task_files(tmp_path, task, n_train=questions,
                                       n_test=questions, seed=5)
        examples = parse_babi_file(train)
        assert len(examples) == questions
        for ex in examples:
            assert ex.story and ex.question and len(ex.answer) == 1
            assert all(0 <= s < len(ex.story) for s in ex.supporting)

    def test_deterministic(self):
        assert generate_task(1, 10, seed=9) == generate_task(1, 10, seed=9)
        assert generate_task(1, 10, seed=9) != generate_task(1, 10, seed=10)

    # the bytes of write_task_files(..., seed=0), the acceptance runs' data:
    # 10,000 training questions at seed 0 and 1,000 test questions at seed 1
    @pytest.mark.parametrize("task, n, seed, digest", [
        (1, 10_000, 0, "45882db0273e4e1ee47a67f0bddc1ffa285e58ecc1f8129f824e78d183ca01a3"),
        (4, 10_000, 0, "a3ae65cd5d803da2f837049070241f1122046cb61504cc958623477a7cf0a4b2"),
        (12, 10_000, 0, "8b0e10e7e90d05dce5b5d8648d5fe6bba522e889e54460f0346edd5575da0b33"),
        (1, 1_000, 1, "0ec770a58b919d1315fcb6fb97327518508b643f2d3cbd381f889b8d59125a93"),
        (4, 1_000, 1, "01c35543e31024b5dcf518fbe47f34e2a4a6c4120d35708a6dd968919964921f"),
        (12, 1_000, 1, "11b98187f5a0167122f0e0159a4531e7b1348d01952aee7f86d0733a20a48a34"),
    ])
    def test_output_bytes_are_pinned(self, task, n, seed, digest):
        text = "\n".join(generate_task(task, n, seed))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_task1_answer_is_latest_location(self, tmp_path):
        train, _ = write_task_files(tmp_path, 1, n_train=500, n_test=5, seed=11)
        for ex in parse_babi_file(train):
            actor = ex.question[-1]
            latest = None
            for sent in ex.story:
                if sent[0] == actor:
                    latest = sent[-1]
            assert latest == ex.answer[0]

    def test_task12_pairs_move_together(self, tmp_path):
        train, _ = write_task_files(tmp_path, 12, n_train=500, n_test=5, seed=12)
        for ex in parse_babi_file(train):
            actor = ex.question[-1]
            latest = None
            for sent in ex.story:
                if actor in sent[:3]:  # 'x and y ...'
                    latest = sent[-1]
            assert latest == ex.answer[0]

    def test_load_task_data(self, tmp_path):
        write_task_files(tmp_path, 1, n_train=10_000, n_test=1_000, seed=0)
        data = load_task_data(tmp_path, 1)
        assert len(data.train) == 9_000
        assert len(data.val) == 1_000
        assert len(data.test) == 1_000
        assert data.max_answer_len == 1
        assert data.max_sentence_len >= 5
        assert len(data.vocab) < 40

    @pytest.mark.filterwarnings("ignore:expected 10,000 examples")
    def test_load_task_data_restores_gc_state(self, tmp_path):
        write_task_files(tmp_path, 1, n_train=20, n_test=5, seed=0)
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                load_task_data(tmp_path, 1)
                assert gc.isenabled() == enabled
                with pytest.raises(DataError):
                    load_task_data(tmp_path, 3)  # no such files
                assert gc.isenabled() == enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_find_task_file_missing(self, tmp_path):
        with pytest.raises(DataError, match="qa3"):
            find_task_file(tmp_path, 3, "train")


def _make_all_distinct(path):
    """Give every statement of a bAbi file a word of its own."""
    lines = []
    for k, line in enumerate(path.read_text().splitlines()):
        head, _, rest = line.partition(" ")
        if "\t" not in rest:
            rest = rest.rstrip(".") + f" w{k}."
        lines.append(f"{head} {rest}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.filterwarnings("ignore:expected 10,000 examples")
class TestInternedLoading:
    @pytest.mark.parametrize("task,distinct", [(1, False), (4, False), (12, False), (1, True)])
    def test_equals_plain_encoding(self, tmp_path, task, distinct):
        train_path, test_path = write_task_files(tmp_path, task, n_train=600, n_test=100, seed=3)
        if distinct:
            _make_all_distinct(train_path)
            _make_all_distinct(test_path)
        data = load_task_data(tmp_path, task)
        vocab = data.vocab
        train_raw, val_raw = split_train_val(parse_babi_file(train_path))
        for raw, encoded in ((train_raw, data.train), (val_raw, data.val),
                             (parse_babi_file(test_path), data.test)):
            assert len(raw) == len(encoded)
            for ex, got in zip(raw, encoded):
                assert got.story == [[vocab.token_to_id[t] for t in s] for s in ex.story]
                assert got.question == [vocab.token_to_id[t] for t in ex.question]
                assert got.answer == [vocab.token_to_id[t] for t in ex.answer]
                assert got.line_numbers == ex.line_numbers
                assert got.supporting == ex.supporting
        everything = data.train + data.val + data.test
        assert data.max_sentence_len == max(len(s) for e in everything for s in e.story)
        assert data.max_answer_len == max(len(e.answer) for e in everything)

    def test_equal_statements_share_one_list(self, tmp_path):
        train_path, _ = write_task_files(tmp_path, 1, n_train=600, n_test=100, seed=3)
        raw = parse_babi_file(train_path)
        vocab = build_vocabulary(raw)
        encoded = vocab.encode_examples(raw, strict=True)
        by_text, by_ids = {}, {}
        for ex, enc in zip(raw, encoded):
            for s, ids in zip([*ex.story, ex.question, ex.answer],
                              [*enc.story, enc.question, enc.answer]):
                assert by_text.setdefault(tuple(s), s) is s
                assert by_ids.setdefault(tuple(ids), ids) is ids
        # far fewer distinct lists than the 600 questions' story slots
        assert len(by_text) < 300 < sum(len(ex.story) for ex in raw)

    def test_unseen_test_word_maps_to_unk(self, tmp_path):
        (tmp_path / "qa1_single-supporting-fact_train.txt").write_text(SAMPLE)
        (tmp_path / "qa1_single-supporting-fact_test.txt").write_text(
            "1 Mary flew to the moon.\n2 Where is Mary? \tmoon\t1\n")
        data = load_task_data(tmp_path, 1)
        vocab = data.vocab
        (ex,) = data.test
        assert ex.story == [[vocab.token_to_id["mary"], UNK, vocab.token_to_id["to"],
                             vocab.token_to_id["the"], UNK]]
        assert ex.answer == [UNK]

    def test_hand_built_examples_encode_alike(self, sample_file):
        raw = parse_babi_file(sample_file)
        vocab = build_vocabulary(raw)
        copies = [Example([list(s) for s in ex.story], list(ex.line_numbers),
                          list(ex.question), list(ex.answer), list(ex.supporting))
                  for ex in raw]
        assert vocab.encode_examples(copies) == vocab.encode_examples(raw)
        assert [vocab.encode_example(ex) for ex in copies] == vocab.encode_examples(raw)


def _reference_make_batch(examples):
    """make_batch as a loop filling each array per example and per table row:
    each example's statements, then its question, interned in one table."""
    exs = list(examples)
    b = len(exs)
    s_max = max(len(e.story) for e in exs)
    w_max = max(len(sent) for e in exs for sent in (*e.story, e.question))
    t_max = max(len(e.answer) for e in exs) + 1

    sentence_rows = np.zeros((b, s_max), dtype=np.int64)
    sentence_mask = np.zeros((b, s_max), dtype=np.float64)
    question_rows = np.zeros(b, dtype=np.int64)
    question = np.full((b, w_max), PAD, dtype=np.int64)
    question_mask = np.zeros((b, w_max), dtype=np.float64)
    answer = np.full((b, t_max), PAD, dtype=np.int64)
    answer_mask = np.zeros((b, t_max), dtype=np.float64)
    table: dict[tuple, int] = {}
    for i, e in enumerate(exs):
        n = len(e.story)
        sentence_rows[i, :n] = [table.setdefault(tuple(sent), len(table)) for sent in e.story]
        if n < s_max:
            sentence_rows[i, n:] = table.setdefault((), len(table))
        sentence_mask[i, :n] = 1.0
        question_rows[i] = table.setdefault(tuple(e.question), len(table))
        question[i, :len(e.question)] = e.question
        question_mask[i, :len(e.question)] = 1.0
        gold = list(e.answer) + [EOS]
        answer[i, :len(gold)] = gold
        answer_mask[i, :len(gold)] = 1.0
    sentences = np.full((len(table), w_max), PAD, dtype=np.int64)
    sentence_word_mask = np.zeros((len(table), w_max), dtype=np.float64)
    for sent, r in table.items():
        sentences[r, :len(sent)] = sent
        sentence_word_mask[r, :len(sent)] = 1.0
    return dict(sentence_mask=sentence_mask, question=question, question_mask=question_mask,
                answer=answer, answer_mask=answer_mask, sentences=sentences,
                sentence_word_mask=sentence_word_mask, sentence_rows=sentence_rows,
                question_rows=question_rows)


def _assert_matches_reference(examples):
    batch = make_batch(examples)
    for name, want in _reference_make_batch(examples).items():
        got = getattr(batch, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert batch.examples == list(examples)


class TestMakeBatchReference:
    @pytest.mark.filterwarnings("ignore:expected 10,000 examples")
    @pytest.mark.parametrize("task", [1, 4, 12])
    def test_generated_tasks(self, tmp_path, task):
        write_task_files(tmp_path, task, n_train=300, n_test=60, seed=5)
        data = load_task_data(tmp_path, task)
        for split in (data.train, data.val, data.test):
            order = np.random.default_rng(task).permutation(len(split))
            exs = [split[j] for j in order]
            for size in (1, 7, 50):
                for i in range(0, len(exs), size):
                    _assert_matches_reference(exs[i:i + size])

    @pytest.mark.parametrize("examples", [
        # a story with no statements beside a longer one
        [EncodedExample([], [], [5], [6], []), EncodedExample([[4, 5]], [1], [5], [6], [])],
        # an empty statement
        [EncodedExample([[4, 5], []], [1, 2], [5], [6], []),
         EncodedExample([[7]], [1], [5], [6], [])],
        # empty questions
        [EncodedExample([[4, 5]], [1], [], [6], []),
         EncodedExample([[4]], [1], [], [6, 7], [])],
        # no padded slot
        [EncodedExample([[4, 5], [6]], [1, 2], [5], [6], []),
         EncodedExample([[6], [4, 5]], [1, 2], [5, 9], [6], [])],
        # no statements at all
        [EncodedExample([], [], [5], [6], [])],
    ], ids=["empty-story", "empty-statement", "empty-question", "unpadded", "no-statements"])
    def test_edge_cases(self, examples):
        _assert_matches_reference(examples)
