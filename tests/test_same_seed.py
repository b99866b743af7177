"""Same-seed training runs write byte-identical checkpoints.

`amn train --max-batches 40 --seed 17` on the acceptance data
(`write_task_files(..., seed=0)`) for task 1, and for task 4 with a depth-2,
3-memory model, pinned by SHA-256. Float32 sums depend on how BLAS splits a
product over threads, so each run sets its own thread count, and the
digests are pinned at 1 and at 2 BLAS threads.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amnet.synthetic import write_task_files

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = {
    "task1": ["--task", "1"],
    "task4-depth2-m3": ["--task", "4", "--layers", "2", "--memories", "3"],
}

DIGESTS = {
    ("task1", 1): "c6e85a9c16e61d72c0fd3aa34ecc0985484c8dd5640d79af3cea4b1ac0c06741",
    ("task1", 2): "1ffe0435fa640218a37ea2e78270eedf92b6021c0181a080c9aecf6861aeb841",
    ("task4-depth2-m3", 1): "b40aac7ab5e47b88cbd44f0bee09409733909270cd0d92c45edb6fa73a8a18fe",
    ("task4-depth2-m3", 2): "0b9c7f60e319cc38e68d3c6f346940997a1143123f41da50054e635d928e22f2",
}


@pytest.fixture(scope="module")
def babi_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("babi10k")
    for task in (1, 4):
        write_task_files(d, task, seed=0)
    return d


@pytest.mark.parametrize("run, threads", sorted(DIGESTS))
def test_checkpoint_bytes_are_pinned(babi_dir, tmp_path, run, threads):
    out = tmp_path / "model.ckpt"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "amnet.cli", "train", "--data-dir", str(babi_dir),
            *RUNS[run], "--max-batches", "40", "--seed", "17", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[run, threads]
