"""Seed-to-bytes pins: fixed commands must print the same bytes on every commit.

The digests were recorded with numpy 2.4.6 on x86-64 with OpenBLAS.  The draw
does no matrix product, and the study table rounds to 4 decimals, so those
two pins hold across BLAS builds.  The JSON documents print every float to
17 digits: the fit of the seed-12345 draw (whose plug-in error variance is
clamped, so its ``warnings`` are pinned too) and the study's ``analytic_v``
can move in the last digits with another BLAS or numpy build.  A change that
alters these bytes on purpose updates the digest here and says why.

The bundled design has M=2 and d=2, so more pins use a three-component
design with an intercept and two Gaussian regressors (d=3), built here from a
closed-form rule: the fit of the CSV that ``simulate --seed 2`` draws from
it, the weights of that CSV as JSON and as CSV, and its study, whose
analytic V takes every product of the covariance at M=3.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvcreg

#: stands for the CSV that ``simulate --seed 12345`` prints
CLAMPED_CSV = "<simulate --seed 12345>"
#: stands for the JSON file of :func:`three_component_config`
THREE_CONFIG = "<three-component config>"
#: stands for the CSV that ``simulate --seed 2`` draws from that config
THREE_CSV = "<simulate -i three-component config --seed 2>"


def three_component_config() -> dict:
    """M=3, d=3, N=600 explicit design: row j of p is proportional to
    1 + (j (2k + 3) mod 11) in column k."""
    rows = []
    for j in range(600):
        raw = [1 + j * (2 * k + 3) % 11 for k in range(3)]
        rows.append([v / sum(raw) for v in raw])

    def component(means, sds, error_sd, coefficients):
        gaussians = [{"kind": "gaussian", "mean": m, "sd": s} for m, s in zip(means, sds)]
        return {
            "regressors": [{"kind": "constant"}, *gaussians],
            "error_sd": error_sd,
            "coefficients": coefficients,
        }

    return {
        "n_obs": 600,
        "components": [
            component([1.0, -0.5], [1.0, 2.0], 0.5, [1.0, 2.0, -1.0]),
            component([0.0, 1.0], [1.5, 0.5], 1.0, [-1.0, 0.5, 3.0]),
            component([2.0, 0.0], [1.0, 1.0], 0.25, [0.0, -2.0, 1.0]),
        ],
        "concentrations": {"model": "explicit", "values": rows},
        "seed": 3,
    }


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
    "fit-three-component-json": (
        ["fit", "-i", THREE_CSV],
        0,
        "9621597c9eed64a1e171d4452561b8c7c9db8ed1a85949c762d0cb074716026a",
    ),
    "study-three-component-json": (
        ["study", "-i", THREE_CONFIG, "--reps", "20"],
        0,
        "fdd819cbe58bcfc9a2dc8be0b1ad73b2708307d20fac57963c4e750ea647924f",
    ),
    "weights-three-component-json": (
        ["weights", "-i", THREE_CSV],
        0,
        "4968992820f71962cd3cde32d90a20d882832334cec150165c145ef708e84fbb",
    ),
    "weights-three-component-csv": (
        ["weights", "-i", THREE_CSV, "--format", "csv"],
        0,
        "53b0e1216ad49a93c2accce70b64fa91d8c2951111ddffbc47858fabcb003d4a",
    ),
}


def _mvcreg(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mvcreg.cli", *args], env=env, capture_output=True
    )


@pytest.mark.parametrize("args, code, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_stdout_digest(args, code, digest, tmp_path):
    config = tmp_path / "three.json"
    config.write_text(json.dumps(three_component_config()), encoding="utf-8")
    inputs = {
        CLAMPED_CSV: ("simulate", "--seed", "12345"),
        THREE_CSV: ("simulate", "-i", str(config), "--seed", "2"),
    }
    for placeholder, command in inputs.items():
        if placeholder in args:
            csv = tmp_path / "input.csv"
            csv.write_bytes(_mvcreg(*command).stdout)
            args = [str(csv) if arg == placeholder else arg for arg in args]
    args = [str(config) if arg == THREE_CONFIG else arg for arg in args]
    out = _mvcreg(*args)
    assert out.returncode == code, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == digest
