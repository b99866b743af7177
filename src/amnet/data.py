"""bAbi v1.2 task files: parsing, vocabulary, splits, padded batches.

A task file is a sequence of numbered lines; the number resetting to 1
starts a new story. Statement lines are plain sentences, question lines
carry tab-separated question, answer, and supporting line numbers. Each
question becomes one example whose story is every statement seen so far
in the current story, in order.

Text is lowercased and punctuation is dropped from token streams.
"""

from __future__ import annotations

import functools
import gc
import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAD", "GO", "EOS", "UNK", "RESERVED_TOKENS",
    "ParseError", "DataError", "Example", "EncodedExample", "Vocabulary", "Batch",
    "tokenize", "detokenize", "parse_babi_file", "build_vocabulary",
    "split_train_val", "batchify", "make_batch", "TaskData", "load_task_data",
    "find_task_file",
]

PAD, GO, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<go>", "<eos>", "<unk>")

_TOKEN_RE = re.compile(r"[\w']+")


class ParseError(ValueError):
    """A bAbi file line does not match the v1.2 format."""


class DataError(ValueError):
    """Dataset-level problem: missing files, out-of-vocabulary tokens, bad splits."""


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; periods and question marks are dropped."""
    return _TOKEN_RE.findall(text.lower())


def detokenize(tokens) -> str:
    return " ".join(tokens)


@dataclass
class Example:
    """One question with its reading material, as token strings.

    Read-only: ``parse_babi_file`` gives equal statements (and equal
    questions and answers) of a file one shared token list."""

    story: list[list[str]]
    line_numbers: list[int]
    question: list[str]
    answer: list[str]
    supporting: list[int]  # indices into story


@dataclass
class EncodedExample:
    """Example with every token mapped to a vocabulary id.

    Read-only: ``Vocabulary.encode_examples`` gives every example that holds
    one token list the same id list."""

    story: list[list[int]]
    line_numbers: list[int]
    question: list[int]
    answer: list[int]
    supporting: list[int]


class Vocabulary:
    """Bijective token<->id map with PAD/GO/EOS/UNK reserved at 0..3."""

    def __init__(self, tokens):
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode_token(self, token: str, strict: bool = False) -> int:
        tid = self.token_to_id.get(token)
        if tid is None:
            if strict:
                raise DataError(f"token {token!r} not in vocabulary")
            return UNK
        return tid

    def encode(self, tokens, strict: bool = False) -> list[int]:
        return [self.encode_token(t, strict) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def encode_examples(self, examples, strict: bool = False) -> list[EncodedExample]:
        """Encode each distinct token list (by identity) once; the examples
        that hold it share the resulting id list."""
        exs = list(examples)  # keeps every list alive, so its id stays its own
        memo: dict[int, list[int]] = {}

        def ids(tokens):
            got = memo.get(id(tokens))
            if got is None:
                got = memo[id(tokens)] = self.encode(tokens, strict)
            return got

        return [EncodedExample([ids(s) for s in ex.story], ex.line_numbers, ids(ex.question),
                               ids(ex.answer), ex.supporting) for ex in exs]

    def encode_example(self, ex: Example, strict: bool = False) -> EncodedExample:
        return self.encode_examples([ex], strict)[0]


def parse_babi_file(path) -> list[Example]:
    """Each distinct statement, question and answer text of the file is
    tokenized once; every example holding it shares that one list."""
    examples: list[Example] = []
    story: list[list[str]] = []
    line_numbers: list[int] = []
    tokens_of = functools.cache(tokenize)  # one list per distinct text
    answer_of = functools.cache(
        lambda text: [a.strip().lower() for a in text.split(",") if a.strip()])
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            head, _, rest = line.partition(" ")
            try:
                n = int(head)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: line does not start with a number") from None
            if n == 1:
                story, line_numbers = [], []
            if "\t" in rest:
                parts = rest.split("\t")
                if len(parts) < 3:
                    raise ParseError(
                        f"{path}:{lineno}: question line needs question<TAB>answer<TAB>support")
                question_text, answer_text, support_text = parts[0], parts[1], parts[2]
                question = tokens_of(question_text)
                answer = answer_of(answer_text)
                if not question or not answer:
                    raise ParseError(f"{path}:{lineno}: empty question or answer")
                supporting = []
                for tok in support_text.split():
                    try:
                        ref = int(tok)
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: supporting field {tok!r} is not a line number"
                        ) from None
                    if ref not in line_numbers:
                        raise ParseError(
                            f"{path}:{lineno}: supporting line {ref} is not a prior statement")
                    supporting.append(line_numbers.index(ref))
                examples.append(Example(
                    story=list(story),
                    line_numbers=list(line_numbers),
                    question=question,
                    answer=answer,
                    supporting=supporting,
                ))
            else:
                tokens = tokens_of(rest)
                if not tokens:
                    raise ParseError(f"{path}:{lineno}: empty statement")
                story.append(tokens)
                line_numbers.append(n)
    return examples


def _distinct(lists):
    """Each list once, by identity."""
    return {id(x): x for x in lists}.values()


def build_vocabulary(examples) -> Vocabulary:
    tokens: set[str] = set()
    for sentence in _distinct(s for ex in examples for s in (*ex.story, ex.question, ex.answer)):
        tokens.update(sentence)
    return Vocabulary(sorted(tokens))


def split_train_val(examples):
    """First 9,000 / last 1,000 for the standard 10k sets; 90/10 otherwise."""
    n = len(examples)
    if n == 10_000:
        cut = 9_000
    else:
        warnings.warn(f"expected 10,000 examples, got {n}; using a proportional 90/10 split")
        cut = int(n * 0.9)
    return examples[:cut], examples[cut:]


@dataclass
class Batch:
    """Padded id arrays plus {0,1} masks marking real positions. Each distinct
    word sequence, statement or question, is stored once, in ``sentences``;
    ``story``/``word_mask`` are that table gathered at ``sentence_rows``, padded
    slots sharing an all-PAD row, and ``question``/``question_mask`` the same
    table gathered at ``question_rows``."""

    sentence_mask: np.ndarray  # [B, S]
    answer: np.ndarray         # [B, T] gold tokens then EOS, PAD beyond
    answer_mask: np.ndarray    # [B, T]
    sentences: np.ndarray           # [U, Lw] int64, each distinct word sequence once
    sentence_word_mask: np.ndarray  # [U, Lw]
    sentence_rows: np.ndarray       # [B, S] int64 row of ``sentences`` per slot
    question_rows: np.ndarray       # [B] int64 row of ``sentences`` per question
    examples: list[EncodedExample]

    @property
    def size(self) -> int:
        return len(self.examples)

    @property
    def story(self) -> np.ndarray:
        """[B, S, Lw] int64 word ids per story slot."""
        return self.sentences[self.sentence_rows]

    @property
    def word_mask(self) -> np.ndarray:
        """[B, S, Lw] word mask per story slot."""
        return self.sentence_word_mask[self.sentence_rows]

    @property
    def question(self) -> np.ndarray:
        """[B, Lw] int64 word ids per question."""
        return self.sentences[self.question_rows]

    @property
    def question_mask(self) -> np.ndarray:
        """[B, Lw] word mask per question."""
        return self.sentence_word_mask[self.question_rows]

    @property
    def max_id(self) -> int:
        """The largest token id of the sentences, questions and answers."""
        return int(max(a.max(initial=0) for a in (self.sentences, self.answer)))


def _padded(rows, width: int, fill: int = PAD):
    """Ragged id lists as a ``fill``-padded int64 [len(rows), width] array,
    plus its float64 {0,1} mask of real positions."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    mask = np.arange(width) < lengths[:, None]
    ids = np.full(mask.shape, fill, dtype=np.int64)
    ids[mask] = np.fromiter(itertools.chain.from_iterable(rows), np.int64)
    return ids, mask.astype(np.float64)


def make_batch(examples) -> Batch:
    """Pad a group of encoded examples to its own max dimensions."""
    exs = list(examples)
    if not exs:
        raise DataError("cannot build an empty batch")
    s_max = max(len(e.story) for e in exs)

    # one table of word sequences, statements and questions alike; the empty
    # tuple is the all-PAD row, shared by every padded slot
    table: dict[tuple, int] = {}
    slots, questions = [], []
    for e in exs:
        slots.append([table.setdefault(tuple(sent), len(table)) for sent in e.story])
        if len(e.story) < s_max:
            table.setdefault((), len(table))
        questions.append(table.setdefault(tuple(e.question), len(table)))
    sentence_rows, sentence_mask = _padded(slots, s_max, table.get((), PAD))
    answers = [(*e.answer, EOS) for e in exs]
    answer, answer_mask = _padded(answers, max(map(len, answers)))
    sentences, sentence_word_mask = _padded(list(table), max(map(len, table), default=1))
    return Batch(sentence_mask, answer, answer_mask, sentences, sentence_word_mask,
                 sentence_rows, np.array(questions, dtype=np.int64), exs)


def batchify(examples, batch_size: int = 50, seed: int = 0) -> list[Batch]:
    """Shuffle (seeded) and cut into padded batches covering every example once."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    exs = list(examples)
    order = np.random.default_rng(seed).permutation(len(exs))
    return [make_batch([exs[j] for j in order[i:i + batch_size]])
            for i in range(0, len(exs), batch_size)]


# ---------------------------------------------------------------------------
# task loading


TASK_SLUGS = {
    1: "single-supporting-fact", 2: "two-supporting-facts", 3: "three-supporting-facts",
    4: "two-arg-relations", 5: "three-arg-relations", 6: "yes-no-questions",
    7: "counting", 8: "lists-sets", 9: "simple-negation", 10: "indefinite-knowledge",
    11: "basic-coreference", 12: "conjunction", 13: "compound-coreference",
    14: "time-reasoning", 15: "basic-deduction", 16: "basic-induction",
    17: "positional-reasoning", 18: "size-reasoning", 19: "path-finding",
    20: "agents-motivations",
}


def find_task_file(data_dir, task: int, split: str):
    """Locate qa{task}_*_{split}.txt under data_dir (en-10k naming)."""
    from pathlib import Path

    pattern = f"qa{task}_*_{split}.txt"
    hits = sorted(Path(data_dir).glob(pattern))
    if not hits:
        raise DataError(f"no bAbi file matching {Path(data_dir) / pattern}")
    return hits[0]


@dataclass
class TaskData:
    """Encoded train/val/test splits sharing one vocabulary."""

    vocab: Vocabulary
    train: list[EncodedExample]
    val: list[EncodedExample]
    test: list[EncodedExample]
    max_sentence_len: int
    max_answer_len: int


def load_task_data(data_dir, task: int, with_test: bool = True) -> TaskData:
    """Parse, split and encode one task: train and val strictly, test with
    UNK for tokens unseen in training.

    Each distinct statement of a file is tokenized, encoded and stored once,
    so the examples' story sentences, questions and answers are shared
    lists and must be treated as read-only."""
    # the parse builds hundreds of thousands of small acyclic lists, which
    # every cyclic collection would rescan
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        train_raw = parse_babi_file(find_task_file(data_dir, task, "train"))
        vocab = build_vocabulary(train_raw)
        train, val = split_train_val(vocab.encode_examples(train_raw, strict=True))
        test = []
        if with_test:
            test = vocab.encode_examples(parse_babi_file(find_task_file(data_dir, task, "test")))
    finally:
        if gc_was_enabled:
            gc.enable()
    everything = train + val + test
    max_sentence_len = max(map(len, _distinct(s for e in everything for s in e.story)))
    max_answer_len = max(map(len, _distinct(e.answer for e in everything)))
    return TaskData(vocab, train, val, test, max_sentence_len, max_answer_len)
