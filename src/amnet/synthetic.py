"""Synthetic story generators in the bAbi v1.2 file format.

Covers the location-tracking task (1, "single supporting fact"), the
two-argument-relations task (4) and the conjunction task (12): numbered
statement lines, tab-separated question lines carrying the answer and the
supporting statement's line number, line numbers resetting to 1 at every
new story. Output is accepted by any bAbi v1.2 reader, and real
distribution files are accepted by this package's parser unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generate_task", "write_task_files", "GENERATED_TASKS"]

ACTORS = ("Mary", "John", "Daniel", "Sandra")
LOCATIONS = ("bathroom", "bedroom", "garden", "hallway", "kitchen", "office")
VERBS = ("moved", "went", "journeyed", "travelled")
RELATIONS = ("north", "south", "east", "west")

GENERATED_TASKS = (1, 4, 12)


def _movement(rng: np.random.Generator, subject: str, current: str | None) -> tuple[str, str]:
    """One movement statement; returns (sentence, new location)."""
    options = [loc for loc in LOCATIONS if loc != current]
    loc = options[rng.integers(len(options))]
    verb = VERBS[rng.integers(len(VERBS))]
    back = " back" if current is not None and rng.uniform() < 0.3 else ""
    return f"{subject} {verb}{back} to the {loc}.", loc


def _task1_story(rng: np.random.Generator) -> list[str]:
    """One story: 5 questions, each after 2 fresh statements (15 lines)."""
    lines = []
    where: dict[str, str] = {}
    last_line: dict[str, int] = {}
    n = 0
    for _ in range(5):
        for _ in range(2):
            actor = ACTORS[rng.integers(len(ACTORS))]
            sentence, loc = _movement(rng, actor, where.get(actor))
            where[actor] = loc
            n += 1
            last_line[actor] = n
            lines.append(f"{n} {sentence}")
        moved = sorted(where)
        target = moved[rng.integers(len(moved))]
        n += 1
        lines.append(f"{n} Where is {target}? \t{where[target]}\t{last_line[target]}")
    return lines


def _task4_story(rng: np.random.Generator) -> list[str]:
    """One story: a two-statement chain A-R-B, B-R-C and one question (3 lines)."""
    a, b, c = [LOCATIONS[i] for i in rng.choice(len(LOCATIONS), size=3, replace=False)]
    rel = RELATIONS[rng.integers(len(RELATIONS))]
    lines = [
        f"1 The {a} is {rel} of the {b}.",
        f"2 The {b} is {rel} of the {c}.",
    ]
    form = rng.integers(4)
    if form == 0:
        q, answer, support = f"What is {rel} of the {b}?", a, 1
    elif form == 1:
        q, answer, support = f"What is the {a} {rel} of?", b, 1
    elif form == 2:
        q, answer, support = f"What is {rel} of the {c}?", b, 2
    else:
        q, answer, support = f"What is the {b} {rel} of?", c, 2
    lines.append(f"3 {q} \t{answer}\t{support}")
    return lines


def _task12_story(rng: np.random.Generator) -> list[str]:
    """Like task 1 but every statement moves a pair of actors together."""
    lines = []
    where: dict[str, str] = {}
    last_line: dict[str, int] = {}
    n = 0
    for _ in range(5):
        for _ in range(2):
            i, j = rng.choice(len(ACTORS), size=2, replace=False)
            pair = (ACTORS[i], ACTORS[j])
            options = [loc for loc in LOCATIONS
                       if loc != where.get(pair[0]) and loc != where.get(pair[1])]
            loc = options[rng.integers(len(options))]
            verb = VERBS[rng.integers(len(VERBS))]
            back = " back" if pair[0] in where and rng.uniform() < 0.3 else ""
            n += 1
            lines.append(f"{n} {pair[0]} and {pair[1]} {verb}{back} to the {loc}.")
            for actor in pair:
                where[actor] = loc
                last_line[actor] = n
        moved = sorted(where)
        target = moved[rng.integers(len(moved))]
        n += 1
        lines.append(f"{n} Where is {target}? \t{where[target]}\t{last_line[target]}")
    return lines


_STORY_BUILDERS = {1: (_task1_story, 5), 4: (_task4_story, 1), 12: (_task12_story, 5)}


def generate_task(task: int, n_questions: int, seed: int = 0) -> list[str]:
    """Produce bAbi-format lines holding exactly ``n_questions`` questions."""
    if task not in _STORY_BUILDERS:
        raise ValueError(f"no generator for task {task}; have {sorted(_STORY_BUILDERS)}")
    builder, per_story = _STORY_BUILDERS[task]
    if n_questions % per_story:
        raise ValueError(f"task {task} emits {per_story} questions per story; "
                         f"{n_questions} is not a multiple")
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    for _ in range(n_questions // per_story):
        lines.extend(builder(rng))
    return lines


def write_task_files(data_dir, task: int, n_train: int = 10_000, n_test: int = 1_000,
                     seed: int = 0):
    """Write qa{task}_<slug>_{train,test}.txt into data_dir; returns both paths."""
    from pathlib import Path

    from amnet.data import TASK_SLUGS

    out = Path(data_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for split, n, s in (("train", n_train, seed), ("test", n_test, seed + 1)):
        path = out / f"qa{task}_{TASK_SLUGS[task]}_{split}.txt"
        path.write_text("\n".join(generate_task(task, n, seed=s)) + "\n", encoding="utf-8")
        paths.append(path)
    return tuple(paths)
