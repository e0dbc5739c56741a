"""Self-tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py -q``
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def wide_fit(tmp_path_factory):
    """The fit-wide input and the CLI's JSON output for it, made in-process."""
    import mvcreg.cli

    work = str(tmp_path_factory.mktemp("wide"))
    (csv_path,) = inputs.write_inputs("fit-wide", 3, ROOT, work)
    out = os.path.join(work, "fit.json")
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        assert mvcreg.cli.main(["fit", "--input", csv_path, "--intercept"]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc, reference.read_dataset(csv_path, intercept=True)


def test_reference_accepts_current_fit(wide_fit):
    doc, data = wide_fit
    assert reference.check_fit(doc, *data) == []


@pytest.mark.parametrize("field", ["coefficients", "plug_in_cov"])
def test_reference_rejects_relative_perturbation(wide_fit, field):
    doc, data = wide_fit
    values = np.asarray(doc[field], dtype=float)
    for index in np.ndindex(values.shape):
        bent = values.copy()
        bent[index] *= 1.0 + 1e-6
        assert reference.check_fit(dict(doc, **{field: bent.tolist()}), *data), index


@pytest.fixture(scope="module")
def small_roundtrip(tmp_path_factory):
    """A reference-design CSV of 2000 rows from the CLI's simulate, and its fit."""
    import mvcreg.cli

    work = str(tmp_path_factory.mktemp("tall"))
    (config_path,) = inputs.write_inputs("roundtrip-tall", 3, ROOT, work)
    config = reference.load_json(config_path)
    config["n_obs"] = 2000
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    csv_path = os.path.join(work, "tall.csv")
    assert mvcreg.cli.main(["simulate", "--input", config_path, "--seed", "3", "--output", csv_path]) == 0
    out = os.path.join(work, "fit.json")
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        assert mvcreg.cli.main(["fit", "--input", csv_path]) == 0
    return config, csv_path, reference.load_json(out)


def test_simulated_check_rejects_a_truncated_csv_and_a_wrong_header(small_roundtrip, tmp_path):
    config, csv_path, _ = small_roundtrip
    assert reference.check_simulated(csv_path, config) == []
    with open(csv_path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    truncated = tmp_path / "truncated.csv"
    truncated.write_bytes(b"".join(lines[:-1]))
    assert reference.check_simulated(str(truncated), config)
    cut_mid_line = tmp_path / "cut.csv"
    cut_mid_line.write_bytes(b"".join(lines)[:-3])
    assert reference.check_simulated(str(cut_mid_line), config)
    renamed = tmp_path / "renamed.csv"
    renamed.write_bytes(b"y,x1,x2,p1,q2\n" + b"".join(lines[1:]))
    assert reference.check_simulated(str(renamed), config)


def test_design_check_rejects_coefficients_off_the_design(small_roundtrip):
    config, _, doc = small_roundtrip
    assert reference.check_design(doc, config) == []
    se = np.sqrt(np.asarray(doc["plug_in_cov"])[1, 0, 0] / doc["n_obs"])
    coef = np.asarray(doc["coefficients"])
    coef[1, 0] = config["components"][1]["coefficients"][0] + 1.01 * reference.Z_MAX * se
    assert reference.check_design(dict(doc, coefficients=coef.tolist()), config)


def test_study_check_counts_replications_and_rejects_a_failed_comparison():
    point = {"rep_count": 2000, "failures": 1, "scaled_cov": [[[1.0]]]}
    ok = {"points": [point], "comparison": {"ok": True}}
    assert reference.check_study(ok, 2000) == ([], 2000, 1)
    problems, _, _ = reference.check_study(dict(ok, comparison={"ok": False}), 2000)
    assert problems
    problems, _, _ = reference.check_study(ok, 8000)
    assert problems


def test_wrapper_returns_same_value_and_reraises_same_exception():
    rec = tracer.Tracer()
    payload = object()
    error = ValueError("boom")

    def ok(x, *, y):
        return (x, y)

    def bad():
        raise error

    assert rec.wrap("m.ok", ok)(payload, y=2) == (payload, 2)
    with pytest.raises(ValueError) as caught:
        rec.wrap("m.bad", bad)()
    assert caught.value is error
    summary = rec.summary()
    assert summary["m.ok"]["calls"] == 1 and summary["m.bad"]["calls"] == 1


def test_self_time_excludes_children():
    rec = tracer.Tracer()
    inner = rec.wrap("m.inner", lambda: sum(range(20000)))
    outer = rec.wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = rec.summary()
    assert summary["m.inner"]["calls"] == 3
    child_total = summary["m.inner"]["total_s"]
    assert summary["m.outer"]["self_s"] == pytest.approx(
        summary["m.outer"]["total_s"] - child_total, abs=1e-9
    )


def test_install_patches_every_from_import_binding():
    import mvcreg.covariance
    import mvcreg.estimator
    import mvcreg.moments

    original = mvcreg.moments.weighted_fourth_moment
    rec = tracer.Tracer()
    uninstall = tracer.install(rec, "mvcreg")
    try:
        assert mvcreg.covariance.weighted_fourth_moment is mvcreg.moments.weighted_fourth_moment
        assert mvcreg.covariance.weighted_fourth_moment is not original
        y, x, p = inputs.wide_dataset(4)
        data = mvcreg.moments.Dataset(y=y[:500], x=x[:500])
        conc = mvcreg.ConcentrationMatrix(p[:500])
        mvcreg.estimator.fit_all(data, conc)
    finally:
        uninstall()
    assert mvcreg.covariance.weighted_fourth_moment is original
    summary = rec.summary()
    # fit_all reaches these through the estimator module's own bindings
    assert summary["concentrations.build_gramian"]["calls"] == 1
    assert summary["moments.component_regression_moments"]["calls"] == 4
    assert rec.counters["moments.component_regression_moments.flops_computed"] == 4 * 2 * 500 * 5 * 6


def test_every_reported_function_exists():
    found = tracer.public_functions("mvcreg")
    assert [name for name in run.LAYER_FUNCTIONS if name not in found] == []


def test_same_seed_same_input_bytes(tmp_path):
    def csv_bytes(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        (path,) = inputs.write_inputs("fit-wide", seed, ROOT, str(work))
        with open(path, "rb") as fh:
            return fh.read()

    first = csv_bytes(5, "a")
    assert csv_bytes(5, "b") == first
    assert csv_bytes(6, "c") != first


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
