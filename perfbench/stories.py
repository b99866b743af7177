"""Benchmark inputs and the symbolic solvers that check answers against them.

The generators write bAbi v1.2 files in the grammar of tasks 1 and 4 and
build the statement streams fed to `amn ask`. They are the benchmark's
own, so the inputs for a seed stay the same whatever the program's
bundled generator does. The solvers work from the story text alone.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

ACTORS = ("Mary", "John", "Daniel", "Sandra")
LOCATIONS = ("bathroom", "bedroom", "garden", "hallway", "kitchen", "office")
VERBS = ("moved", "went", "journeyed", "travelled")
RELATIONS = ("north", "south", "east", "west")

SLUGS = {1: "single-supporting-fact", 4: "two-arg-relations"}
_TOKEN_RE = re.compile(r"[\w']+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _move(rng: random.Random, where: dict, actor: str) -> str:
    """One movement statement; updates ``where``."""
    current = where.get(actor)
    loc = rng.choice([x for x in LOCATIONS if x != current])
    back = " back" if current is not None and rng.random() < 0.3 else ""
    where[actor] = loc
    return f"{actor} {rng.choice(VERBS)}{back} to the {loc}."


def _task1_story(rng: random.Random) -> list[str]:
    """5 questions, each after 2 fresh movement statements (15 lines)."""
    lines, where, last = [], {}, {}
    n = 0
    for _ in range(5):
        for _ in range(2):
            actor = rng.choice(ACTORS)
            n += 1
            lines.append(f"{n} {_move(rng, where, actor)}")
            last[actor] = n
        target = rng.choice(sorted(where))
        n += 1
        lines.append(f"{n} Where is {target}? \t{where[target]}\t{last[target]}")
    return lines


def _task4_story(rng: random.Random) -> list[str]:
    """A chain A-R-B, B-R-C and one question about it (3 lines)."""
    a, b, c = rng.sample(LOCATIONS, 3)
    rel = rng.choice(RELATIONS)
    q, answer, support = rng.choice((
        (f"What is {rel} of the {b}?", a, 1),
        (f"What is the {a} {rel} of?", b, 1),
        (f"What is {rel} of the {c}?", b, 2),
        (f"What is the {b} {rel} of?", c, 2),
    ))
    return [f"1 The {a} is {rel} of the {b}.", f"2 The {b} is {rel} of the {c}.",
            f"3 {q} \t{answer}\t{support}"]


_STORIES = {1: (_task1_story, 5), 4: (_task4_story, 1)}


def write_task(data_dir: Path, task: int, seed: int,
               n_train: int = 10_000, n_test: int = 1_000) -> dict[str, Path]:
    """Write qa{task}_<slug>_{train,test}.txt; returns the path per split."""
    builder, per_story = _STORIES[task]
    paths = {}
    for split, n in (("train", n_train), ("test", n_test)):
        rng = random.Random(f"task{task}-{split}-{seed}")
        lines = []
        for _ in range(n // per_story):
            lines.extend(builder(rng))
        path = data_dir / f"qa{task}_{SLUGS[task]}_{split}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[split] = path
    return paths


@dataclass
class Question:
    story: list[list[str]]
    question: list[str]
    answer: str


def read_questions(path: Path) -> list[Question]:
    """Every question of a bAbi file with the statements before it, in file order."""
    out, story = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        head, _, rest = line.partition(" ")
        if head == "1":
            story = []
        if "\t" in rest:
            text, answer, _ = rest.split("\t")
            out.append(Question([list(s) for s in story], tokenize(text), answer.strip()))
        else:
            story.append(tokenize(rest))
    return out


# ---------------------------------------------------------------------------
# solvers


def solve_task1(story, question) -> str | None:
    """Where is X: the place X last moved to ("x <verb> [back] to the place")."""
    who = question[-1]
    for toks in reversed(story):
        if toks[0] == who and toks[-3:-1] == ["to", "the"]:
            return toks[-1]
    return None


def solve_task4(story, question) -> str | None:
    """Follow "the A is R of the B" facts: "what is R of the B" gives A,
    "what is the A R of" gives B."""
    facts = [(t[1], t[3], t[6]) for t in story if len(t) == 7 and t[2] == "is"]
    if question[:2] != ["what", "is"]:
        return None
    if question[2] == "the":            # what is the A R of
        a, rel = question[3], question[4]
        hits = [y for x, r, y in facts if x == a and r == rel]
    else:                               # what is R of the B
        rel, b = question[2], question[-1]
        hits = [x for x, r, y in facts if y == b and r == rel]
    return hits[0] if len(hits) == 1 else None


SOLVERS = {1: solve_task1, 4: solve_task4}


# ---------------------------------------------------------------------------
# `amn ask` sessions


def ask_long_session(rng: random.Random, statements: int = 200,
                     ask_every: int = 2) -> list[str]:
    """One task-1 story grown to ``statements`` sentences, a question after
    every ``ask_every`` of them, then "reset"."""
    lines, where = [], {}
    for i in range(1, statements + 1):
        lines.append(_move(rng, where, rng.choice(ACTORS)))
        if i % ask_every == 0:
            lines.append(f"? where is {rng.choice(sorted(where)).lower()}")
    lines.append("reset")
    return lines


def ask_short_session(rng: random.Random, stories: int = 100) -> list[str]:
    """``stories`` task-4 stories of 2 statements, one question each, "reset"
    after every one."""
    lines = []
    for _ in range(stories):
        story = _task4_story(rng)
        lines += [s.partition(" ")[2] for s in story[:2]]
        lines += ["? " + story[2].partition(" ")[2].split("\t")[0].strip(), "reset"]
    return lines
