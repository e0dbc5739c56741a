"""Command-line interface.

Subcommands
-----------
fit        estimate per-component coefficients from a CSV dataset
weights    emit the minimax weight matrix and its consistency checks
simulate   draw a synthetic dataset from a JSON config
study      run a seeded replication study and compare to the analytic limit

Diagnostics go to stderr as one line ``mvcreg: <code>: <message>``.  Exit
codes: 0 success, 1 a worker process lost, 2 bad input or config, 3
singular concentration Gramian, 4 estimation failure, 5 study comparison
outside tolerance.

Each subcommand imports the modules it runs when it runs: ``fit`` and
``weights`` never load ``simgen`` or ``montecarlo``, ``weights`` loads neither
``covariance`` nor ``estimator``, and ``simulate`` loads none of
``montecarlo``, ``covariance`` and ``estimator``.  The start of every command
is then the interpreter, numpy and the modules it uses.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

import numpy as np

from .concentrations import DEFAULT_GAMMA_TOL, build_gramian, compute_weights
from .errors import ConfigError, DataFormatError, MvcregError, SingularGramian, WorkerLost
from .moments import Dataset


def _diag(exc: MvcregError) -> None:
    print(f"mvcreg: {exc.code}: {exc}", file=sys.stderr)


@contextlib.contextmanager
def _open_output(args):
    # opened after the work, so a refused input or config leaves an existing
    # file as it was; a regular file is written to a temporary file beside it
    # that replaces it after the last chunk, so a failure while writing (a
    # render worker lost, a full disk) leaves it as it was too.  A failed
    # open or write is one diagnostic; a closed pipe is left to main
    to_stdout = args.output is None or args.output == "-"
    temporary = None  # stdout, /dev/null, a FIFO and the like are written as they are
    try:
        if to_stdout:
            yield sys.stdout
            sys.stdout.flush()  # a full disk shows here, not in the flush at exit
            return
        target = os.path.realpath(args.output)  # a link's file, as open() writes it
        try:
            mode = os.stat(target).st_mode
        except OSError:
            mode = None  # a file to create
        if mode is None or stat.S_ISREG(mode):
            folder, name = os.path.split(target)
            path = os.path.join(folder, f".{name}.{os.urandom(6).hex()}.tmp")
            # 0o666 less the umask: the mode open() gives a file it creates
            flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
            fh = open(os.open(path, flags, 0o666), "w", encoding="utf-8")
            temporary = path
        else:
            fh = open(target, "w", encoding="utf-8")
        with fh:
            if temporary is not None and mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))  # the mode of the file it replaces
            yield fh
        if temporary is not None:
            os.replace(temporary, target)
    except BaseException as exc:
        if temporary is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temporary)
        if not isinstance(exc, OSError) or isinstance(exc, BrokenPipeError):
            raise
        if to_stdout:  # drops the unwritten rest, which the flush at exit would report
            with contextlib.suppress(OSError):
                sys.stdout.close()
        name = "standard output" if to_stdout else args.output
        raise ConfigError("--output", f"cannot write {name}: {exc.strerror or exc}") from None


def _write_output(args, text: str) -> None:
    with _open_output(args) as fh:
        fh.write(text)


def _with_intercept(data: Dataset, source: str) -> Dataset:
    x = np.empty((data.n_obs, data.n_regressors + 1))
    x[:, 0] = 1.0
    x[:, 1:] = data.x
    x.flags.writeable = False  # handed over to Dataset, which keeps data.y as is
    try:
        return Dataset(y=data.y, x=x)
    except ValueError as exc:  # the column of ones leaves too few rows
        raise DataFormatError(f"{source}: {exc}") from None


def cmd_fit(args) -> int:
    from . import dataio
    from .covariance import plug_in_covariance
    from .estimator import DEFAULT_XTX_TOL, fit_all

    data, p = dataio.read_csv(args.input)
    if args.intercept:
        data = _with_intercept(data, args.input)
    xtx_tol = DEFAULT_XTX_TOL if args.xtx_tol is None else args.xtx_tol
    fit = fit_all(data, p, xtx_tol=xtx_tol, gamma_tol=args.gamma_tol)
    cov = None if fit.errors else plug_in_covariance(data, p, fit)
    if args.format == "table":
        text = dataio.format_fit_table(fit, cov)
    else:
        text = dataio.dumps(dataio.fit_result_to_dict(fit, cov))
    _write_output(args, text)
    for note in cov.warnings if cov is not None else ():
        print(f"mvcreg: warning: {note}", file=sys.stderr)
    if fit.errors:
        for err in fit.errors.values():
            _diag(err)
        return 4
    return 0


def cmd_weights(args) -> int:
    from . import dataio

    data, p = dataio.read_csv(args.input)
    gramian = build_gramian(p)
    weights = compute_weights(p, gramian, gamma_tol=args.gamma_tol)
    if args.format == "csv":
        with _open_output(args) as fh:
            dataio.write_weights_csv(fh, weights)  # chunk by chunk, never the whole text
    else:
        _write_output(args, dataio.dumps(dataio.weights_to_dict(gramian, weights, p)))
    return 0


def cmd_simulate(args) -> int:
    from . import dataio
    from .simgen import generate, with_seed

    config, _ = load_configuration(args)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    sim = generate(config)
    data, p = sim.data, sim.p
    del sim  # the CSV holds no labels: they go before the render
    with _open_output(args) as fh:
        dataio.write_csv(fh, data, p)  # chunk by chunk, never the whole text
    return 0


def cmd_study(args) -> int:
    from . import dataio
    from .montecarlo import compare_report, run_study
    from .simgen import with_seed

    config, options = load_configuration(args)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    reps = args.reps if args.reps is not None else options.rep_count
    if reps is None:
        raise ConfigError("rep_count", "not set in the config and no override given")
    report = run_study(config, reps, options.n_grid)
    rel_tol = args.rel_tol if args.rel_tol is not None else options.rel_tol
    comparison = None
    if rel_tol is not None:
        comparison = compare_report(report, rel_tol, options.mean_tol)
    if args.format == "table":
        text = dataio.format_report_table(report)
        if comparison is not None:
            state = "ok" if comparison.ok else "FAILED"
            text += (
                f"comparison at n={comparison.n_obs}: {state} "
                f"(worst cov rel err {comparison.worst_cov_rel:.3f}, "
                f"tol {comparison.rel_tol})\n"
            )
    else:
        doc = dataio.report_to_dict(report)
        if comparison is not None:
            doc["comparison"] = dataio.comparison_to_dict(comparison)
        text = dataio.dumps(doc)
    _write_output(args, text)
    for pt in report.points:
        if pt.failures:
            codes = ", ".join(f"{code}: {count}" for code, count in pt.failure_codes.items())
            print(
                f"mvcreg: note: n={pt.n_obs}: {pt.failures} of {pt.rep_count} "
                f"replications failed ({codes})",
                file=sys.stderr,
            )
    if comparison is not None and not comparison.ok:
        for line in comparison.cov_failures + comparison.mean_failures:
            print(f"mvcreg: comparison-failure: {line}", file=sys.stderr)
        return 5
    return 0


def load_configuration(args):
    from .simgen import load_config_file, reference_study_config

    if args.input is None:
        return reference_study_config()
    return load_config_file(args.input)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcreg",
        description=(
            "Per-component linear regression for mixtures with known, "
            "observation-dependent mixing probabilities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, formats, default_format):
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", choices=formats, default=default_format,
            help=f"output format (default {default_format})",
        )

    p_fit = sub.add_parser("fit", help="fit per-component coefficients from CSV data")
    p_fit.add_argument("--input", "-i", required=True, help="CSV dataset path")
    common(p_fit, formats=("json", "table"), default_format="json")
    p_fit.add_argument(
        "--intercept", action="store_true",
        help="prepend a constant regressor column before fitting",
    )
    p_fit.add_argument("--gamma-tol", type=float, default=DEFAULT_GAMMA_TOL)
    p_fit.add_argument("--xtx-tol", type=float, default=None)  # None: DEFAULT_XTX_TOL
    p_fit.set_defaults(func=cmd_fit)

    p_w = sub.add_parser("weights", help="emit the minimax weight matrix")
    p_w.add_argument("--input", "-i", required=True, help="CSV dataset path")
    common(p_w, formats=("json", "csv"), default_format="json")
    p_w.add_argument("--gamma-tol", type=float, default=DEFAULT_GAMMA_TOL)
    p_w.set_defaults(func=cmd_weights)

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset from a config")
    p_sim.add_argument(
        "--input", "-i", default=None,
        help="JSON config path (default: bundled reference design)",
    )
    common(p_sim, formats=("csv",), default_format="csv")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_st = sub.add_parser("study", help="run a seeded replication study")
    p_st.add_argument(
        "--input", "-i", default=None,
        help="JSON config path (default: bundled reference design)",
    )
    common(p_st, formats=("json", "table"), default_format="json")
    p_st.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_st.add_argument("--reps", type=int, default=None, help="override rep_count")
    p_st.add_argument(
        "--rel-tol", type=float, default=None,
        help="enforce this relative tolerance against the analytic limit",
    )
    p_st.set_defaults(func=cmd_study)

    return parser


def _check_tolerances(args) -> None:
    for name in ("gamma_tol", "xtx_tol", "rel_tol"):
        value = getattr(args, name, None)
        if value is not None and not value > 0:  # NaN is not positive either
            raise ConfigError("--" + name.replace("_", "-"), f"must be positive, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_tolerances(args)
        return args.func(args)
    except (DataFormatError, ConfigError) as exc:
        _diag(exc)
        return 2
    except SingularGramian as exc:
        _diag(exc)
        return 3
    except WorkerLost as exc:
        _diag(exc)
        return 1
    except MvcregError as exc:
        _diag(exc)
        return 4
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
