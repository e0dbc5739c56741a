"""Reading and writing datasets, fit results, and study reports.

The CSV layout is one observation per row with header
``y,x1,...,xd,p1,...,pM``: response first, then the regressor columns, then
the concentration columns.  Floats are written with ``repr`` so a write/read
round trip reproduces the array bytes exactly.

The writer renders fixed chunks of rows: it stacks one chunk of the
columns, maps ``repr`` over its cells and joins them row by row, so it holds
one chunk's table and text at a time when it writes to a file.  The reader
skips one leading byte-order mark, checks the header, counts the data lines
with a numpy scan for newlines over fixed-size reads of the file, and fills
preallocated y, x and p from ``np.loadtxt`` one chunk of rows at a time, so
it holds the parsed arrays once, with nothing N-sized beside them.  Input
``np.loadtxt`` refuses (quoted cells, ``1_0``, or a genuine error) is parsed
again by the row-wise ``csv.reader`` path, which accepts exactly what
``float`` accepts, names the line of the first bad record, and holds one
Python list per row.  Both paths convert with CPython's string-to-double
routine, so they give the same values.

From ``_POOL_MIN_CELLS`` cells on, both directions use the worker processes
of ``_pool``, a few chunks ahead at a time.  Render workers inherit the
columns when they are forked and return each chunk's text, which the parent
writes in row order, so the bytes are those of the serial writer.  For a
file, the counting pass also records the byte offset of every chunk's first
data line; parse workers seek there and run the same ``np.loadtxt`` call on
their chunk, and the parent fills the arrays in chunk order.  A chunk that
``np.loadtxt`` refuses sends the whole file to the row-wise path, as in the
serial reader, so the messages and line numbers are the same.  Smaller
inputs, and text parsed by ``parse_csv_text``, stay in the calling process.

JSON output is rendered by a small deterministic writer (insertion-ordered
keys, floats at 17 significant digits) so that byte-identical inputs yield
byte-identical reports.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import warnings
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from . import _pool
from .concentrations import ConcentrationMatrix
from .errors import DataFormatError
from .moments import _CHUNK_ROWS, Dataset

if TYPE_CHECKING:  # annotations only: fit and simulate need not load these
    from .covariance import AsymptoticCovariance
    from .estimator import FitResult
    from .montecarlo import ComparisonReport, MonteCarloReport

_HEADER_RE = re.compile(r"^y(,x\d+)+(,p\d+)+$")

#: CSV rows only need to be stochastic to rounding precision, not exactly
_ROW_SUM_TOL = 1e-6


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------


#: cells below which CSV text is rendered and parsed in the calling process:
#: on two CPUs a pool saves more than it costs to start from about 250000
#: cells when rendering and 500000 when parsing
_POOL_MIN_CELLS = 500_000


def _workers(cells: int, blocks: int) -> int:
    """Processes that render or parse ``cells`` CSV cells split into ``blocks`` blocks."""
    return _pool.worker_count(blocks) if cells >= _POOL_MIN_CELLS else 1


def _render_rows(columns: list[np.ndarray], start: int) -> str:
    """CSV text of the ``_CHUNK_ROWS`` rows of ``columns`` from row ``start``.

    ``columns`` are stacked side by side.  Every cell is ``repr`` of a Python
    float, exactly what ``csv.writer`` writes for ``repr(float(v))``: a
    float's repr never needs quoting.
    """
    rows = slice(start, start + _CHUNK_ROWS)
    block = np.column_stack([column[rows] for column in columns])
    cells = map(repr, block.ravel().tolist())
    return "\n".join(map(",".join, zip(*[cells] * block.shape[1]))) + "\n"


#: the columns a render worker renders, inherited when its process starts
_shared_columns: list[np.ndarray] = []


def _share_columns(columns: list[np.ndarray]) -> None:
    _shared_columns[:] = columns


def _render_shared(start: int) -> str:
    return _render_rows(_shared_columns, start)


def _csv_chunks(header: list[str], columns: list[np.ndarray]):
    """Yield CSV text for ``header`` and the rows of ``columns``, chunk by chunk.

    From ``_POOL_MIN_CELLS`` cells on, the chunks are rendered by forked
    workers, which inherit ``columns`` copy-on-write, and yielded in row
    order, so the text is the same whatever the worker count.
    """
    yield ",".join(header) + "\n"
    starts = range(0, columns[0].shape[0], _CHUNK_ROWS)
    workers = _workers(columns[0].shape[0] * len(header), len(starts))
    if workers == 1:
        yield from (_render_rows(columns, start) for start in starts)
        return
    with _pool.ordered_map(workers, _share_columns, (columns,)) as ordered_map:
        yield from ordered_map(_render_shared, starts)


def _write_chunks(path, chunks) -> None:
    # closing, so that a failed write stops the render workers at once
    with contextlib.closing(chunks):
        if hasattr(path, "write"):
            path.writelines(chunks)
            return
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _header(d: int, n_comp: int) -> list[str]:
    return ["y"] + [f"x{i + 1}" for i in range(d)] + [f"p{k + 1}" for k in range(n_comp)]


def _dataset_chunks(data: Dataset, p: ConcentrationMatrix):
    if p.values.shape[0] != data.n_obs:
        raise ValueError(
            f"dataset has {data.n_obs} rows but concentration matrix has "
            f"{p.values.shape[0]}"
        )
    header = _header(data.n_regressors, p.values.shape[1])
    return _csv_chunks(header, [data.y, data.x, p.values])


def _weights_chunks(a: np.ndarray):
    return _csv_chunks([f"a{m + 1}" for m in range(a.shape[1])], [a])


def render_csv(data: Dataset, p: ConcentrationMatrix) -> str:
    """Serialize a dataset and its concentration rows to CSV text."""
    return "".join(_dataset_chunks(data, p))


def write_csv(path, data: Dataset, p: ConcentrationMatrix) -> None:
    """Write ``render_csv``'s text to a path or an open text stream, chunk by chunk."""
    _write_chunks(path, _dataset_chunks(data, p))


def render_weights_csv(a: np.ndarray) -> str:
    """The N x M weight matrix as CSV: header ``a1,...,aM``, one row per observation."""
    return "".join(_weights_chunks(a))


def write_weights_csv(path, a: np.ndarray) -> None:
    """Write ``render_weights_csv``'s text to a path or an open text stream, chunk by chunk."""
    _write_chunks(path, _weights_chunks(a))


def parse_csv_text(text: str, source: str = "<string>") -> tuple[Dataset, ConcentrationMatrix]:
    """Parse CSV text into a dataset plus concentration matrix.

    The header fixes the column split: ``x`` columns must be numbered
    1..d and ``p`` columns 1..M, in order.  Any malformed cell raises
    DataFormatError naming the line.  Concentration rows must sum to one
    within ``_ROW_SUM_TOL``.
    """
    return _parse_stream(io.StringIO(text), source)


def read_csv(path) -> tuple[Dataset, ConcentrationMatrix]:
    """Parse a CSV file as ``parse_csv_text`` would, without holding its text.

    Lines end at ``\\n`` only, as in ``io.StringIO``, so the file and its
    text give the same result.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            return _parse_stream(fh, str(path))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_stream(fh, source: str):
    try:
        names = _read_header(fh, source)
        d = sum(1 for h in names if h.startswith("x"))
        start = fh.tell()
        columns = _load_table(fh, d, len(names) - 1 - d)
        if columns is None:
            fh.seek(start)
            arr = _parse_rows(csv.reader(fh), len(names), source)
            columns = arr[:, 0], arr[:, 1 : 1 + d], arr[:, 1 + d :]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{source}: not UTF-8 text ({exc.reason})") from None
    y, x, p_values = columns
    try:
        data = Dataset(y=y, x=x)
        p = ConcentrationMatrix(p_values, row_sum_tol=_ROW_SUM_TOL)
    except ValueError as exc:
        raise DataFormatError(f"{source}: {exc}") from None
    return data, p


def _read_header(fh, source: str) -> list[str]:
    if fh.read(1) != "\ufeff":  # one leading byte-order mark is not part of the header
        fh.seek(0)
    # readline, not iteration, so that fh.tell() still works afterwards
    reader = csv.reader(iter(fh.readline, ""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{source}: empty file") from None
    except csv.Error as exc:
        raise DataFormatError(f"{source}: line 1: {exc}") from None
    joined = ",".join(h.strip() for h in header)
    if not _HEADER_RE.match(joined):
        raise DataFormatError(
            f"{source}: header must be y,x1,...,xd,p1,...,pM, got {joined!r}"
        )
    names = joined.split(",")
    d = sum(1 for h in names if h.startswith("x"))
    expected = _header(d, len(names) - 1 - d)
    if names != expected:
        raise DataFormatError(
            f"{source}: columns out of order; expected {','.join(expected)}, got {joined!r}"
        )
    return names


#: lines ``np.loadtxt`` skips as empty; every other line is a row or an error
_BLANK_LINES = ("\n", "\r\n")


def _load_table(fh, d: int, n_comp: int) -> tuple[np.ndarray, ...] | None:
    """Read-only y, x and p of all data rows, or None where ``np.loadtxt`` refuses.

    A scan of the bytes for newlines counts the data lines; the arrays are
    then allocated once and filled from ``np.loadtxt`` one block of
    ``_CHUNK_ROWS`` rows at a time, so nothing N-sized exists beside them.
    A file of ``_POOL_MIN_CELLS`` cells or more is parsed by forked workers,
    each of which seeks to the byte offset of its block's first data line,
    which the counting pass records; the parent fills the arrays in block
    order.  ``np.loadtxt`` converts cells with the same string-to-double
    routine as ``float``, so whatever it accepts parses to the row-wise
    path's values.
    """
    start = fh.tell()
    n, offsets = _count_rows(fh, start)
    if n == 0:
        return None  # the row-wise path names the empty input
    width = 1 + d + n_comp
    sizes = [min(_CHUNK_ROWS, n - begin) for begin in range(0, n, _CHUNK_ROWS)]
    workers = _workers(n * width, len(sizes)) if offsets else 1
    if workers == 1:
        fh.seek(start)
        return _fill(n, d, n_comp, (_load_block(fh, rows, width) for rows in sizes))
    with _pool.ordered_map(workers) as ordered_map:
        blocks = ordered_map(_parse_block, repeat(fh.name), offsets, sizes, repeat(width))
        return _fill(n, d, n_comp, blocks)


def _fill(n: int, d: int, n_comp: int, blocks) -> tuple[np.ndarray, ...] | None:
    """Read-only y, x and p of the ``n`` rows ``blocks`` yields in order, or None
    at the first block that is None."""
    y, x, p = np.empty(n), np.empty((n, d)), np.empty((n, n_comp))
    begin = 0
    for block in blocks:
        if block is None:
            return None
        stop = begin + len(block)
        y[begin:stop] = block[:, 0]
        x[begin:stop] = block[:, 1 : 1 + d]
        p[begin:stop] = block[:, 1 + d :]
        begin = stop
    for arr in (y, x, p):
        arr.flags.writeable = False  # handed over to Dataset and ConcentrationMatrix
    return y, x, p


#: bytes the counting pass reads at a time; the block and its newline mask
#: are its only transients of this size, whatever the file's size
_COUNT_BLOCK_BYTES = 1 << 18


def _count_rows(fh, start: int) -> tuple[int, list[int] | None]:
    """The data lines of ``fh`` from ``start`` on, and the byte offset of every
    ``_CHUNK_ROWS``-th of them, or None for a text stream with no bytes beneath.

    A file is read one block of ``_COUNT_BLOCK_BYTES`` at a time, and numpy
    finds the newlines of each.  A line that is ``\\n`` or ``\\r\\n`` alone is
    blank, as ``_BLANK_LINES`` says, and a last line with no newline is a
    data line.  Only a block with a line of at most two bytes is tested for
    blank lines, as no CSV row is that short: the test's numpy kernels would
    add their code pages to the resident memory of every ``fit``.
    """
    buffer = getattr(fh, "buffer", None)
    if buffer is None:
        return sum(line not in _BLANK_LINES for line in fh), None
    buffer.seek(start)  # a UTF-8 stream's position after a whole line is its byte offset
    n, offsets = 0, []
    # the byte before each block stays in front of it, for a \r\n split between two
    block = bytearray(1 + _COUNT_BLOCK_BYTES)
    pos = line_start = start  # byte offsets of block[1] and of the line it is in
    while size := buffer.readinto(memoryview(block)[1:]):
        data = np.frombuffer(block, np.uint8, 1 + size)
        ends = np.flatnonzero((data == ord("\n"))[1:])  # offsets from pos
        if ends.size:
            after = pos + int(ends[-1]) + 1  # where the line after the block's last begins
            first = int(ends[0]) - (line_start - pos - 1)  # line lengths, newlines included
            lengths = np.diff(ends)
            if first <= 2 or (lengths.size and lengths.min() <= 2):
                lengths = np.concatenate(([first], lengths))
                blank = (lengths == 1) | ((lengths == 2) & (data[ends] == ord("\r")))
                ends = ends[~blank]
            for end in ends[-n % _CHUNK_ROWS :: _CHUNK_ROWS].tolist():
                before = block.rfind(b"\n", 1, 1 + end)  # the newline ending the line before
                offsets.append(pos + before if before >= 1 else line_start)
            n += ends.size
            line_start = after
        block[0] = block[size]
        pos += size
    if line_start < pos:  # a last line with no newline
        if n % _CHUNK_ROWS == 0:
            offsets.append(line_start)
        n += 1
    return n, offsets


def _load_block(fh, rows: int, width: int) -> np.ndarray | None:
    """The next ``rows`` data rows of ``fh``, or None if ``np.loadtxt`` refuses them
    or they are not ``rows`` x ``width``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "input contained no data" and kin
        # a blank line is skipped, as without max_rows; only the note is new
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
        try:
            block = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=rows)
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            return None
    return block if block.shape == (rows, width) else None


def _parse_block(path, offset: int, rows: int, width: int) -> np.ndarray | None:
    """``_load_block`` of the ``rows`` data rows of the file ``path`` from byte ``offset``."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        fh.seek(offset)
        return _load_block(fh, rows, width)


def _parse_rows(reader, n_col: int, source: str) -> np.ndarray:
    """Row-wise parse of the data records; names the line of the first bad one."""
    rows = []
    lineno = 1
    try:
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != n_col:
                raise DataFormatError(
                    f"{source}: line {lineno}: expected {n_col} fields, got {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise DataFormatError(
                    f"{source}: line {lineno}: not a number: {bad!r}"
                ) from None
    except csv.Error as exc:
        raise DataFormatError(f"{source}: line {lineno + 1}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{source}: no data rows")
    return np.array(rows)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


# --------------------------------------------------------------------------
# deterministic JSON
# --------------------------------------------------------------------------


def _write_json(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(value, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            out.append("NaN")
        elif math.isinf(value):
            out.append("Infinity" if value > 0 else "-Infinity")
        else:
            out.append(format(value, ".17g"))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text: ordered keys, 17-significant-digit floats."""
    out: list[str] = []
    _write_json(obj, out)
    out.append("\n")
    return "".join(out)


# --------------------------------------------------------------------------
# result -> dict
# --------------------------------------------------------------------------


def fit_result_to_dict(
    fit: FitResult, covs: tuple[AsymptoticCovariance, ...] | None = None
) -> dict:
    """The fit as a document; with the plug-in covariances ``covs`` of every
    component, in component order, also their ``v`` and standard errors."""
    doc = {
        "n_obs": fit.n_obs,
        "n_components": fit.n_components,
        "det_gamma": fit.det_gamma,
        "coefficients": fit.coefficients,
        "xtx_condition": fit.xtx_condition,
        "negative_eigenvalues": list(fit.negative_eigenvalues),
        "errors": {
            str(m): {"code": err.code, "message": str(err)}
            for m, err in sorted(fit.errors.items())
        },
    }
    if covs is not None:
        doc["plug_in_cov"] = [cov.v for cov in covs]
        doc["std_errors"] = [cov.std_errors for cov in covs]
    return doc


def weights_to_dict(gramian, a: np.ndarray, p: ConcentrationMatrix) -> dict:
    n = a.shape[0]
    # (1/N) a' p should be the identity; report it so drift is visible
    cross = np.einsum("jm,jk->mk", a, p.values) / n
    return {
        "n_obs": n,
        "det_gamma": gramian.det_gamma,
        "gamma": gramian.gamma,
        "weights": a,
        "biorthogonality": cross,
    }


def report_to_dict(report: MonteCarloReport) -> dict:
    return {
        "seed": report.seed,
        "true_b": report.true_b,
        "analytic_v": report.analytic_v,
        "points": [
            {
                "n_obs": pt.n_obs,
                "rep_count": pt.rep_count,
                "failures": pt.failures,
                "mean_b": pt.mean_b,
                "scaled_cov": pt.scaled_cov,
            }
            for pt in report.points
        ],
    }


def comparison_to_dict(cmp: ComparisonReport) -> dict:
    return {
        "n_obs": cmp.n_obs,
        "rel_tol": cmp.rel_tol,
        "mean_abs_tol": cmp.mean_abs_tol,
        "ok": cmp.ok,
        "worst_cov_rel": cmp.worst_cov_rel,
        "worst_mean_abs": cmp.worst_mean_abs,
        "cov_failures": list(cmp.cov_failures),
        "mean_failures": list(cmp.mean_failures),
    }


# --------------------------------------------------------------------------
# text table
# --------------------------------------------------------------------------


def format_fit_table(
    fit: FitResult, covs: tuple[AsymptoticCovariance, ...] | None = None
) -> str:
    """Aligned coefficient table, one row per component.

    With the plug-in covariances ``covs`` of every component, in component
    order, each component's standard errors follow on an ``se`` row; failed
    components render as ``nan`` with the error code appended.
    """
    d = fit.coefficients.shape[1]
    width = 12
    lines = [
        f"{'component':>10}" + "".join(f"{f'b[{i + 1}]':>{width}}" for i in range(d))
    ]
    for m in range(fit.n_components):
        row = f"{m + 1:>10}" + "".join(
            f"{fit.coefficients[m, i]:>{width}.4f}" for i in range(d)
        )
        if m in fit.errors:
            row += f"  [{fit.errors[m].code}]"
        lines.append(row)
        if covs is not None:
            se = covs[m].std_errors
            lines.append(
                f"{'se':>10}" + "".join(f"{se[i]:>{width}.4f}" for i in range(d))
            )
    lines.append(f"det(Gamma) = {fit.det_gamma:.6g}")
    return "\n".join(lines) + "\n"


def format_report_table(report: MonteCarloReport) -> str:
    """Aligned per-component table of scaled covariances over the grid.

    One block per component.  Columns are the variances in order, then the
    upper-triangle covariances; the final ``inf`` row is the analytic limit.
    """
    n_comp, d = report.true_b.shape
    pairs = [(i, i) for i in range(d)] + [
        (i, k) for i in range(d) for k in range(i + 1, d)
    ]
    width = 12
    lines = []
    for m in range(n_comp):
        lines.append(f"component {m + 1}")
        head = f"{'n':>8}" + "".join(
            f"{f'V[{i + 1},{k + 1}]':>{width}}" for i, k in pairs
        )
        head += f"{'failures':>{width}}"
        lines.append(head)
        for pt in report.points:
            row = f"{pt.n_obs:>8}"
            for i, k in pairs:
                row += f"{pt.scaled_cov[m, i, k]:>{width}.4f}"
            row += f"{pt.failures:>{width}}"
            lines.append(row)
        row = f"{'inf':>8}"
        for i, k in pairs:
            row += f"{report.analytic_v[m, i, k]:>{width}.4f}"
        lines.append(row)
        if m < n_comp - 1:
            lines.append("")
    return "\n".join(lines) + "\n"
