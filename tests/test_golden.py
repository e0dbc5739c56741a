"""Seed-to-bytes pins: fixed commands must print the same bytes on every commit.

The digests were recorded with numpy 2.4.6 on x86-64, under the ``SkylakeX``
kernel that numpy's bundled OpenBLAS 0.3.31 picked at run time.  Three pins
also hold under the ``Haswell``, ``Sandybridge`` and ``Prescott`` kernels
(forced with ``OPENBLAS_CORETYPE``): ``simulate``, whose draw does no matrix
product, and ``study-table`` and ``fit-clamped-table``, which round to 4
decimals.  The JSON documents print every float to 17 digits, and another
kernel, BLAS or numpy build can move their last digits: the fit of the
seed-12345 draw (whose plug-in error variance is clamped, so its
``warnings`` are pinned too), the study's ``analytic_v``, and the weights.
So a failed digest names the numpy version and the kernel it ran under, and
:func:`test_json_within_and_across_blas_kernels` checks what does hold under
a forced kernel.  A change that alters these bytes on purpose updates the
digest here and says why.

The bundled design has M=2 and d=2, so more pins use a three-component
design with an intercept and two Gaussian regressors (d=3), built here from a
closed-form rule: the fit of the CSV that ``simulate --seed 2`` draws from
it, the weights of that CSV as JSON and as CSV, and its study, whose
analytic V takes every product of the covariance at M=3.

The same commands, a refusal of each kind and command lines that the
parser refuses also pin the form of stderr: every line of it is
``mvcreg: <kind>: <message>``.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvcreg
import mvcreg.errors
from conftest import openblas_core, overflowing_inputs

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


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _python(*args, pin=False, **env):
    """``python <args>`` in a fresh interpreter with ``env`` added to its
    environment; ``pin`` keeps it to one CPU."""
    env = dict(os.environ, PYTHONPATH=str(Path(mvcreg.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        preexec_fn=_one_cpu if pin else None,
    )


def _mvcreg(*args, **options):
    return _python("-m", "mvcreg.cli", *args, **options)


def _with_inputs(args, tmp_path) -> list[str]:
    """``args`` with each placeholder replaced by the file it stands for,
    written into ``tmp_path``."""
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
    return [str(config) if arg == THREE_CONFIG else arg for arg in args]


@pytest.mark.parametrize("args, code, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_stdout_digest(args, code, digest, tmp_path):
    out = _mvcreg(*_with_inputs(args, tmp_path))
    assert out.returncode == code, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == digest, (
        "recorded with numpy 2.4.6 and OpenBLAS kernel SkylakeX; this run: "
        f"numpy {np.__version__}, OpenBLAS kernel {openblas_core()}"
    )


#: the kernel forced, one that an x86-64 OpenBLAS can run on any x86-64 CPU
FORCED_CORE = "Prescott"


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not hasattr(os, "sched_setaffinity"),
    reason="forces an x86-64 OpenBLAS kernel and pins the process to one CPU",
)
def test_json_within_and_across_blas_kernels(tmp_path):
    # within a forced kernel, the JSON bytes depend on neither the BLAS
    # thread count nor the CPU count (pinned, the study runs serially);
    # across kernels only the last digits of its floats move: at most 1.5e-15
    # (fit) and 2.7e-14 (study) of the document's largest value, measured
    # under Prescott against SkylakeX, and 8e-14 under Haswell
    default_core = openblas_core()
    if default_core is None:
        pytest.skip("numpy bundles no OpenBLAS")
    tests = str(Path(__file__).parent)
    report = f"import sys; sys.path.insert(0, {tests!r}); import conftest\n"
    report += "print(conftest.openblas_core())"
    out = _python("-c", report, OPENBLAS_CORETYPE=FORCED_CORE)
    assert out.returncode == 0, out.stderr.decode()
    forced_core = out.stdout.decode().strip()
    if forced_core in ("None", default_core):
        pytest.skip(f"OpenBLAS does not switch from {default_core} under {FORCED_CORE}")

    config = tmp_path / "three.json"
    config.write_text(json.dumps(three_component_config()), encoding="utf-8")
    csv = tmp_path / "three.csv"
    csv.write_bytes(_mvcreg("simulate", "-i", str(config), "--seed", "2").stdout)
    for args in (["fit", "-i", str(csv)], ["study", "-i", str(config), "--reps", "20"]):
        default = _mvcreg(*args)
        forced = [
            _mvcreg(*args, pin=pin, OPENBLAS_CORETYPE=FORCED_CORE, OPENBLAS_NUM_THREADS=threads)
            for pin, threads in ((False, "1"), (False, "2"), (True, "1"))
        ]
        for out in forced[1:]:
            assert (out.returncode, out.stdout) == (forced[0].returncode, forced[0].stdout), args
        assert forced[0].returncode == default.returncode == 0, args

        # ints too: a float that one kernel prints as a whole number
        # parses as an int
        expected, got = (
            _numbers(json.loads(out.stdout, parse_int=float)) for out in (default, forced[0])
        )
        assert got[0] == expected[0], args  # keys and shapes
        scale = np.abs(expected[1][np.isfinite(expected[1])]).max()
        np.testing.assert_allclose(got[1], expected[1], rtol=0, atol=1e-11 * scale, err_msg=str(args))


def _numbers(doc):
    """``doc`` with each number replaced by ``float``, and its numbers in document order."""
    numbers = []

    def walk(value):
        if isinstance(value, dict):
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            return [walk(item) for item in value]
        if isinstance(value, float):
            numbers.append(value)
            return float
        return value

    return walk(doc), np.array(numbers)


#: stand for a CSV whose two concentration columns are equal, one whose
#: second regressor is twice the first, and the two CSVs of
#: :func:`conftest.overflowing_inputs`
EQUAL_COLUMNS_CSV = "<equal concentration columns>"
COLLINEAR_CSV = "<collinear regressors>"
OVERFLOWING_SUMS_CSV = "<overflowing sums>"
OVERFLOWING_PLUG_IN_CSV = "<overflowing plug-in>"

#: every golden command, refusals of each kind, and refused command lines
STDERR_CASES = {
    **{name: (args, code) for name, (args, code, _) in GOLDEN.items()},
    "fit-singular-gramian": (["fit", "-i", EQUAL_COLUMNS_CSV], 3),
    "fit-singular-normal-matrix": (["fit", "-i", COLLINEAR_CSV], 4),
    "fit-overflowing-sums": (["fit", "-i", OVERFLOWING_SUMS_CSV], 2),
    "fit-overflowing-plug-in": (["fit", "-i", OVERFLOWING_PLUG_IN_CSV], 2),
    "study-failing-rel-tol": (["study", "-i", THREE_CONFIG, "--reps", "20", "--rel-tol", "0.01"], 5),
    "fit-without-input": (["fit"], 2),
    "unknown-subcommand": (["regress"], 2),
    "fit-bad-format": (["fit", "-i", "data.csv", "--format", "xml"], 2),
}


def _error_codes() -> set[str]:
    """The ``code`` of :class:`~mvcreg.errors.MvcregError` and of every subclass."""
    codes, types = set(), [mvcreg.errors.MvcregError]
    while types:
        error = types.pop()
        codes.add(error.code)
        types += error.__subclasses__()
    return codes


@pytest.mark.parametrize("args, code", STDERR_CASES.values(), ids=STDERR_CASES.keys())
def test_every_stderr_line_is_an_mvcreg_line(args, code, tmp_path):
    # stderr is for machines too: under Python's default warning filters,
    # every line is "mvcreg: <kind>: <message>", and nothing else gets there
    # (a numpy RuntimeWarning, a traceback)
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(20, 2)).tolist()
    refusals = {
        EQUAL_COLUMNS_CSV: "y,x1,p1,p2\n" + "".join(f"{y!r},{x!r},0.5,0.5\n" for y, x in rows),
        COLLINEAR_CSV: "y,x1,x2,p1\n" + "".join(f"{y!r},{x!r},{2 * x!r},1.0\n" for y, x in rows),
    }
    files = {placeholder: tmp_path / f"refused{i}.csv" for i, placeholder in enumerate(refusals)}
    for placeholder, text in refusals.items():
        files[placeholder].write_text(text, encoding="utf-8")
    overflowing = overflowing_inputs(tmp_path)
    files[OVERFLOWING_SUMS_CSV] = overflowing["sums"]
    files[OVERFLOWING_PLUG_IN_CSV] = overflowing["plug-in"]
    args = _with_inputs([str(files.get(arg, arg)) for arg in args], tmp_path)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
    env["PYTHONPATH"] = str(Path(mvcreg.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "mvcreg.cli", *args], env=env, capture_output=True)
    kinds = {"warning", "note", "comparison-failure"} | _error_codes()
    line = re.compile(f"mvcreg: ({'|'.join(map(re.escape, sorted(kinds)))}): ")
    lines = out.stderr.decode().splitlines()
    assert out.returncode == code, lines
    assert [text for text in lines if not line.match(text)] == []
    assert lines or code == 0
