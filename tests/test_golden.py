"""Seed-to-bytes pins: fixed commands must print the same bytes on every commit.

The digests were recorded with numpy 2.4.6 on x86-64 with OpenBLAS.  The draw
does no matrix product, and the study table rounds to 4 decimals, so those
two pins hold across BLAS builds.  The JSON documents print every float to
17 digits: the fit of the seed-12345 draw (whose plug-in error variance is
clamped, so its ``warnings`` are pinned too) and the study's ``analytic_v``
can move in the last digits with another BLAS or numpy build.  A change that
alters these bytes on purpose updates the digest here and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvcreg

#: stands for the CSV that ``simulate --seed 12345`` prints
CLAMPED_CSV = "<simulate --seed 12345>"

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
    "study-json": (
        ["study", "--seed", "7", "--reps", "20"],
        5,
        "db48879fb60bf13d2fde9df45ef4c732ef4997fd8c68fcea784891f5bead6b79",
    ),
    "fit-clamped-json": (
        ["fit", "-i", CLAMPED_CSV],
        0,
        "bd82068a1ead7ef99aa30e19b45264b7c6a21a533dfa6812937b7bd09518ceee",
    ),
    "fit-clamped-table": (
        ["fit", "-i", CLAMPED_CSV, "--format", "table"],
        0,
        "d991f56e0aa542f7ee6157341f668a7dc568d18119dfb7c93b0100c8533e310a",
    ),
}


def _mvcreg(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mvcreg.cli", *args], env=env, capture_output=True
    )


@pytest.mark.parametrize("args, code, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_stdout_digest(args, code, digest, tmp_path):
    if CLAMPED_CSV in args:
        csv = tmp_path / "clamped.csv"
        csv.write_bytes(_mvcreg("simulate", "--seed", "12345").stdout)
        args = [str(csv) if arg == CLAMPED_CSV else arg for arg in args]
    out = _mvcreg(*args)
    assert out.returncode == code, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == digest
