"""Synthetic story generators in the bAbi v1.2 file format.

Covers the location-tracking task (1, "single supporting fact"), the
two-argument-relations task (4) and the conjunction task (12): numbered
statement lines, tab-separated question lines carrying the answer and the
supporting statement's line number, line numbers resetting to 1 at every
new story. Output is accepted by any bAbi v1.2 reader, and real
distribution files are accepted by this package's parser unchanged.
"""

from __future__ import annotations

from functools import partial

import numpy as np

__all__ = ["generate_task", "write_task_files"]

ACTORS = ("Mary", "John", "Daniel", "Sandra")
LOCATIONS = ("bathroom", "bedroom", "garden", "hallway", "kitchen", "office")
VERBS = ("moved", "went", "journeyed", "travelled")
RELATIONS = ("north", "south", "east", "west")


def _movement_story(rng: np.random.Generator, together: bool) -> list[str]:
    """One story of task 1, or with ``together`` task 12: 5 questions, each
    after 2 fresh statements (15 lines). A statement moves one actor, or a
    pair of actors together, to a place none of them is at."""
    lines: list[str] = []
    where: dict[str, str] = {}
    last_line: dict[str, int] = {}
    for _ in range(5):
        for _ in range(2):
            movers = ([ACTORS[i] for i in rng.choice(len(ACTORS), size=2, replace=False)]
                      if together else [ACTORS[rng.integers(len(ACTORS))]])
            options = [loc for loc in LOCATIONS if loc not in {where.get(a) for a in movers}]
            loc = options[rng.integers(len(options))]
            verb = VERBS[rng.integers(len(VERBS))]
            back = " back" if movers[0] in where and rng.uniform() < 0.3 else ""
            lines.append(f"{len(lines) + 1} {' and '.join(movers)} {verb}{back} to the {loc}.")
            for actor in movers:
                where[actor] = loc
                last_line[actor] = len(lines)
        target = sorted(where)[rng.integers(len(where))]
        lines.append(f"{len(lines) + 1} Where is {target}? \t{where[target]}\t{last_line[target]}")
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


_STORY_BUILDERS = {1: (partial(_movement_story, together=False), 5), 4: (_task4_story, 1),
                   12: (partial(_movement_story, together=True), 5)}


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
    """Write qa{task}_<slug>_{train,test}.txt into data_dir, the slug being
    the task's name with hyphens for spaces; returns both paths."""
    from pathlib import Path

    from amnet.data import TASK_NAMES

    slug = TASK_NAMES[task].replace(" ", "-")
    out = Path(data_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for split, n, s in (("train", n_train, seed), ("test", n_test, seed + 1)):
        path = out / f"qa{task}_{slug}_{split}.txt"
        path.write_text("\n".join(generate_task(task, n, seed=s)) + "\n", encoding="utf-8")
        paths.append(path)
    return tuple(paths)
