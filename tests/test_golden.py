"""Seed-to-bytes pins: fixed commands must print the same bytes on every commit.

The digests were recorded with numpy 2.4.6.  Neither output depends on BLAS
sums at full precision: the draw does no matrix product, and the study table
rounds to 4 decimals.  A change that alters these bytes on purpose updates
the digest here and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvcreg

GOLDEN = {
    "simulate": (
        ["simulate", "--seed", "1"],
        0,
        "c809367190e77679b839a6295677ed2d6406a3875f4e4a6dee925a9f8f4a1919",
    ),
    "study-table": (
        ["study", "--seed", "7", "--reps", "20", "--format", "table"],
        5,
        "fd9df7fbb1f13419454bbfe75bcdf0919ac0fad3bfb63c8aa92abf014db1cff0",
    ),
}


@pytest.mark.parametrize("args, code, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_stdout_digest(args, code, digest):
    env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "mvcreg.cli", *args], env=env, capture_output=True
    )
    assert out.returncode == code, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == digest
