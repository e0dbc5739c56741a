"""Independent numpy reference for the outputs the benchmark checks.

Usage::

    python3 perfbench/reference.py fit CSV FIT_JSON [--intercept] [--design CONFIG]
    python3 perfbench/reference.py simulated CSV CONFIG
    python3 perfbench/reference.py study REPORT_JSON EXPECTED_REPS

Prints one JSON object whose ``problems`` list is empty when the output is
correct.  The fit reference follows the paper's formulas directly and shares
no code with mvcreg:

* Gamma = p'p / N and weights a = p Gamma^-1 (by ``solve``);
* per component, the weighted normal equations (X'AX) b = X'Ay;
* the plug-in Sigma with the fourth-moment term contracted,
  (1/N) sum_j a_js (x_j' delta_s)^2 x_j x_j', the weighted residual variance
  clamped at 0 when negative, and the sandwich V = D^-1 Sigma D^-1.

A CSV that ``mvcreg simulate`` wrote from a design CONFIG must have the
design's header and ``n_obs`` rows, and with ``--design`` every fitted
coefficient must lie within ``Z_MAX`` plug-in standard errors of the design's.
"""

from __future__ import annotations

import json
import sys

import numpy as np

#: agreement required with the reference, relative to each entry, plus a floor
#: relative to the largest entry of the same matrix for entries near zero.
#: Current output agrees to ~1e-12; a 1e-6 relative perturbation must fail.
RTOL = 1e-9
SCALE_TOL = 1e-11
#: largest distance, in plug-in standard errors sqrt(V_ii / N), allowed between
#: a coefficient fitted on simulated data and the design's coefficient
Z_MAX = 6.0


def reference_fit(y: np.ndarray, x: np.ndarray, p: np.ndarray):
    """Coefficients (M x d) and plug-in covariances (M x d x d)."""
    n, n_comp = p.shape
    gamma = p.T @ p / n
    a = np.linalg.solve(gamma, p.T).T
    xtax = np.stack([(x * a[:, [s]]).T @ x / n for s in range(n_comp)])
    xtay = np.stack([x.T @ (a[:, s] * y) / n for s in range(n_comp)])
    coef = np.stack([np.linalg.solve(xtax[s], xtay[s]) for s in range(n_comp)])
    sigma2 = np.array(
        [max(float(np.mean(a[:, s] * (y - x @ coef[s]) ** 2)), 0.0) for s in range(n_comp)]
    )
    covs = []
    for m in range(n_comp):
        co = (p * a[:, [m]] ** 2).T @ p / n  # c[s, t] = <a_m^2 p_s p_t>
        w = co.sum(axis=1)
        sigma = np.zeros(xtax[m].shape)
        u = np.zeros((x.shape[1], n_comp))
        for s in range(n_comp):
            delta = coef[s] - coef[m]
            fourth = (x * (a[:, s] * (x @ delta) ** 2)[:, None]).T @ x / n
            sigma += w[s] * (xtax[s] * sigma2[s] + fourth)
            u[:, s] = xtax[s] @ delta
        sigma -= u @ co @ u.T
        d_inv = np.linalg.inv(xtax[m])
        covs.append(d_inv @ sigma @ d_inv)
    return coef, np.stack(covs)


def read_dataset(path: str, intercept: bool):
    """y, x and p from a ``y,x1..xd,p1..pM`` CSV, parsed by numpy."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    d = sum(name.startswith("x") for name in header)
    y, x, p = table[:, 0], table[:, 1 : 1 + d], table[:, 1 + d :]
    if intercept:
        x = np.column_stack([np.ones(len(y)), x])
    return y, x, p


def mismatches(label: str, got, want) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, reference {want.shape}"]
    out = []
    for m in range(want.shape[0]):
        err = np.abs(got[m] - want[m])
        allowed = RTOL * np.abs(want[m]) + SCALE_TOL * np.abs(want[m]).max()
        if not np.all(err <= allowed):  # also catches NaN
            worst = float(np.nanmax(err / np.abs(want[m]).max()))
            out.append(f"{label}[{m}]: off the reference by {worst:.3g} of its scale")
    return out


def check_fit(doc: dict, y, x, p) -> list[str]:
    if doc.get("errors"):
        return [f"fit reported errors: {doc['errors']}"]
    coef, covs = reference_fit(y, x, p)
    problems = []
    if doc.get("n_obs") != len(y):
        problems.append(f"n_obs {doc.get('n_obs')} != {len(y)} rows")
    problems += mismatches("coefficients", doc.get("coefficients"), coef)
    problems += mismatches("plug_in_cov", doc.get("plug_in_cov"), covs)
    return problems


def design_header(config: dict) -> list[str]:
    d = len(config["components"][0]["regressors"])
    n_comp = config["n_components"]
    return ["y"] + [f"x{i + 1}" for i in range(d)] + [f"p{k + 1}" for k in range(n_comp)]


def check_simulated(path: str, config: dict) -> list[str]:
    """The CSV has the design's header and one complete line per observation."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").rstrip("\n").split(",")
        rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    problems = []
    if header != design_header(config):
        problems.append(f"simulated CSV header {header}, expected {design_header(config)}")
    if rows != config["n_obs"]:
        problems.append(f"simulated CSV has {rows} rows, expected {config['n_obs']}")
    return problems


def check_design(doc: dict, config: dict) -> list[str]:
    """Every fitted coefficient lies within Z_MAX standard errors of the design's."""
    coef = np.asarray(doc["coefficients"], dtype=float)
    covs = np.asarray(doc["plug_in_cov"], dtype=float)
    truth = np.array([comp["coefficients"] for comp in config["components"]], dtype=float)
    if coef.shape != truth.shape:
        return [f"coefficients shape {coef.shape}, design {truth.shape}"]
    se = np.sqrt(np.diagonal(covs, axis1=1, axis2=2) / doc["n_obs"])
    z = np.abs(coef - truth) / se
    if not np.all(z <= Z_MAX):  # also catches NaN
        return [f"coefficients {coef.tolist()} are up to {np.nanmax(z):.3g} standard errors "
                f"from the design's {truth.tolist()}"]
    return []


def check_study(doc: dict, expected_reps: int) -> tuple[list[str], int, int]:
    """Problems other than failed replications, replications run and failed."""
    points = doc.get("points", [])
    reps = sum(pt["rep_count"] for pt in points)
    failed = sum(pt["failures"] for pt in points)
    problems = []
    if reps != expected_reps:
        problems.append(f"study ran {reps} replications, expected {expected_reps}")
    comparison = doc.get("comparison", {})
    if comparison.get("ok") is not True:
        problems.append(f"comparison with the analytic limit not ok: {comparison}")
    if not np.all(np.isfinite([pt["scaled_cov"] for pt in points])):
        problems.append("non-finite scaled covariance")
    return problems, reps, failed


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    kind = argv[0]
    if kind == "fit":
        doc = load_json(argv[2])
        problems = check_fit(doc, *read_dataset(argv[1], "--intercept" in argv[3:]))
        if "--design" in argv[3:]:
            problems += check_design(doc, load_json(argv[argv.index("--design") + 1]))
        result = {"problems": problems}
    elif kind == "simulated":
        result = {"problems": check_simulated(argv[1], load_json(argv[2]))}
    elif kind == "study":
        doc = load_json(argv[1])
        problems, reps, failed = check_study(doc, int(argv[2]))
        result = {"problems": problems, "reps": reps, "failed_reps": failed}
    else:
        raise SystemExit(f"unknown check {kind!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
