"""Reading and writing datasets, fit results, and study reports.

The CSV layout is one observation per row with header
``y,x1,...,xd,p1,...,pM``: response first, then the regressor columns, then
the concentration columns.  Floats are written with ``repr`` so a write/read
round trip reproduces the array bytes exactly.

The writer renders fixed chunks of rows: it stacks one chunk of the
columns, maps ``repr`` over its cells and joins them row by row, so it holds
one chunk's table and text at a time when it writes to a file.  The reader
of a file skips one leading byte-order mark, checks the header, counts the
lines with a numpy scan for newlines over fixed-size reads of the file,
recording the byte offset of every chunk's first line, and fills
preallocated y, x and p in chunk order, so it holds the parsed arrays once,
with nothing N-sized beside them.  Each chunk of lines is parsed by itself
from its offset: by ``np.loadtxt``, and where ``np.loadtxt`` refuses it
(quoted cells, ``1_0``, blank lines alone, or a genuine error) by the
row-wise ``csv.reader`` path over the same lines, which accepts exactly
what ``float`` accepts, names the line of the first bad record, and holds
one Python list per row of that chunk.  Both paths convert with CPython's
string-to-double routine, so they give the same values.  ``np.loadtxt``
drops blank lines; where they leave fewer rows than lines, the arrays are
shrunk in place.  Text given to ``parse_csv_text`` is parsed row by row
as a whole.  Both readers are strict about quotes: a closing quote must end
its cell, and a quoted cell must close before the input ends.  A file gives
the same arrays or the same message as its text, except for a record that a
quoted line break carries across the end of a chunk: that chunk ends inside
a quoted cell, so the file is refused at the chunk's last line where its
text is accepted.  Messages name physical lines, the header being line 1 (a
header that spans lines is refused), and a record that spans lines by the
line it ends on.

Both directions map one function over the chunks: from ``_POOL_MIN_CELLS``
cells on with ``_pool``'s ordered map, whose forked workers each send every
W-th chunk through a pipe, below that with the builtin ``map``.  Render
workers inherit the columns and send each chunk's text, which the parent
writes in row order; parse workers send each chunk's rows, or its error,
which the parent stores or raises in chunk order.  So the bytes, arrays
and messages are the same whatever the worker count.

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
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

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


#: cells below which CSV text is rendered and parsed in the calling process.
#: CLI wall on two CPUs (s, median of 13 alternating runs, serial/pooled):
#:   cells      100k       200k       300k       400k       500k
#:   simulate   0.27/0.26  0.32/0.32  0.41/0.40  0.39/0.32  0.41/0.36
#:   fit        0.22/0.20  0.29/0.26  0.30/0.32  0.26/0.23  0.26/0.25
#: A fork costs little, but below ~400k cells the gain is within the spread.
_POOL_MIN_CELLS = 500_000


def _chunk_map(cells: int, chunks: int, fn):
    """``_pool``'s ordered map of ``fn`` from ``_POOL_MIN_CELLS`` cells on, else ``map``."""
    if cells < _POOL_MIN_CELLS:
        return contextlib.nullcontext(partial(map, fn))  # and _pool stays unloaded
    from . import _pool
    return _pool.ordered_map(_pool.worker_count(chunks), fn)


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


def _csv_chunks(header: list[str], columns: list[np.ndarray]):
    """Yield CSV text for ``header`` and the rows of ``columns``, chunk by chunk.

    From ``_POOL_MIN_CELLS`` cells on, the chunks are rendered by forked
    workers, which inherit ``columns`` copy-on-write, and yielded in row
    order, so the text is the same whatever the worker count.
    """
    yield ",".join(header) + "\n"
    starts = range(0, columns[0].shape[0], _CHUNK_ROWS)
    cells = columns[0].shape[0] * len(header)
    with _chunk_map(cells, len(starts), partial(_render_rows, columns)) as render:
        yield from render(starts)


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
    """Parse CSV text into a dataset plus concentration matrix, row by row.

    The header fixes the column split: ``x`` columns must be numbered
    1..d and ``p`` columns 1..M, in order.  Any malformed cell raises
    DataFormatError naming the line.  Concentration rows must sum to one
    within ``_ROW_SUM_TOL``.
    """
    return _parse_stream(io.StringIO(text), source, by_blocks=False)


def read_csv(path) -> tuple[Dataset, ConcentrationMatrix]:
    """Parse the CSV file ``path`` in blocks of lines, without holding its text.

    Lines end at ``\\n`` only, as in ``io.StringIO``, so the file gives what
    ``parse_csv_text`` gives for its text, except where a record that a
    quoted line break carries onto the next line is split between two
    blocks: that is refused at the first block's last line.  Each block
    opens the file again by its name and seeks to its first line, so a file
    descriptor, a pipe or a FIFO is refused.
    """
    if isinstance(path, int):
        raise DataFormatError(f"cannot read {path}: a path is needed, not a file descriptor")
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            if not fh.seekable():  # a pipe or FIFO: every block reopens and seeks the file
                raise DataFormatError(f"cannot read {path}: a regular file is needed, not a pipe")
            return _parse_stream(fh, str(path), by_blocks=True)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_stream(fh, source: str, by_blocks: bool):
    try:
        d, n_comp = _read_header(fh, source)
        if by_blocks:
            y, x, p_values = _load_table(fh, d, n_comp)
        else:
            rows = _parse_rows(fh, 1 + d + n_comp, source, 2)
            y, x, p_values = _fill(len(rows), d, n_comp, [rows])
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{source}: not UTF-8 text ({exc.reason})") from None
    if not len(y):
        raise DataFormatError(f"{source}: no data rows")
    try:
        data = Dataset(y=y, x=x)
        p = ConcentrationMatrix(p_values, row_sum_tol=_ROW_SUM_TOL)
    except ValueError as exc:
        raise DataFormatError(f"{source}: {exc}") from None
    return data, p


def _read_header(fh, source: str) -> tuple[int, int]:
    """d and M of the header ``y,x1,...,xd,p1,...,pM`` on the first line of ``fh``."""
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
    if reader.line_num != 1:  # data lines are numbered from 2
        raise DataFormatError(f"{source}: line 1: the header has a quoted line break")
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
    return d, len(names) - 1 - d


def _load_table(fh, d: int, n_comp: int) -> tuple[np.ndarray, ...]:
    """Read-only y, x and p of the data rows of the file ``fh`` reads, from
    its position on.

    A scan of the bytes for newlines counts the lines and records the byte
    offset of every block of ``_CHUNK_ROWS`` lines; the arrays are then
    allocated for that many rows and filled, in block order, by
    ``_parse_block``, so nothing N-sized exists beside them.  From
    ``_POOL_MIN_CELLS`` cells on, forked workers parse the blocks; below
    that, the calling process maps the same function over them.  A block
    is parsed by itself wherever it is parsed, row by row where
    ``np.loadtxt`` refuses it, and its errors name the file's own lines.
    """
    # a UTF-8 stream's position after a whole line is its byte offset
    n, offsets = _count_lines(fh.buffer, fh.tell())
    width = 1 + d + n_comp
    firsts = range(2, n + 2, _CHUNK_ROWS)  # the header is line 1
    sizes = [min(_CHUNK_ROWS, n + 2 - first) for first in firsts]
    with _chunk_map(n * width, len(sizes), partial(_parse_block, fh.name, width=width)) as parse:
        return _fill(n, d, n_comp, parse(firsts, offsets, sizes))


def _fill(n: int, d: int, n_comp: int, blocks) -> tuple[np.ndarray, ...]:
    """Read-only y, x and p of the at most ``n`` rows ``blocks`` yields in order.

    Where blank lines leave fewer than ``n`` rows, each array is shrunk in
    place, so it still owns its memory and is held once.
    """
    y, x, p = np.empty(n), np.empty((n, d)), np.empty((n, n_comp))
    begin = 0
    for block in blocks:
        stop = begin + len(block)
        y[begin:stop] = block[:, 0]
        x[begin:stop] = block[:, 1 : 1 + d]
        p[begin:stop] = block[:, 1 + d :]
        begin = stop
    for arr in (y, x, p):
        if begin < n:
            arr.resize((begin, *arr.shape[1:]), refcheck=False)
        arr.flags.writeable = False  # handed over to Dataset and ConcentrationMatrix
    return y, x, p


#: bytes the counting pass reads at a time; the block and its newline mask
#: are its only transients of this size, whatever the file's size
_COUNT_BLOCK_BYTES = 1 << 18


def _count_lines(buffer, start: int) -> tuple[int, list[int]]:
    """The lines of the binary file ``buffer`` from byte ``start`` on, and the
    byte offset of the first line of every block of ``_CHUNK_ROWS``.

    The file is read one block of ``_COUNT_BLOCK_BYTES`` at a time, and numpy
    finds the newlines of each; a last line with no newline counts too.
    """
    buffer.seek(start)
    n, offsets, pos, last = 0, [start], start, ord("\n")
    block = bytearray(_COUNT_BLOCK_BYTES)
    while size := buffer.readinto(block):
        ends = np.flatnonzero(np.frombuffer(block, np.uint8, size) == ord("\n"))
        # a block of lines begins after every _CHUNK_ROWS-th newline
        starts = ends[_CHUNK_ROWS - 1 - n % _CHUNK_ROWS :: _CHUNK_ROWS] + (pos + 1)
        offsets.extend(starts.tolist())
        n += ends.size
        pos += size
        last = block[size - 1]
    n += last != ord("\n")  # a last line with no newline
    return n, offsets[: -(-n // _CHUNK_ROWS)]  # no block begins at the end of the file


def _parse_block(path, first: int, offset: int, lines: int, width: int) -> np.ndarray:
    """The rows of the ``lines`` lines of the file ``path`` that begin at
    byte ``offset`` with line ``first``.

    ``np.loadtxt`` parses them; where it refuses them (quoted cells, ``1_0``,
    blank lines alone, or a genuine error) or they are not ``width`` columns
    wide, ``_parse_rows`` parses the same lines again, and refuses them if
    they end inside a quoted cell.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as fh, warnings.catch_warnings():
        fh.seek(offset)
        warnings.simplefilter("error")  # "input contained no data" and kin
        with contextlib.suppress(ValueError, Warning):  # UnicodeDecodeError is a ValueError
            block = np.loadtxt(islice(fh, lines), delimiter=",", comments=None, ndmin=2)
            if block.shape[1] == width:
                return block
        fh.seek(offset)
        return _parse_rows(islice(fh, lines), width, str(path), first)


def _parse_rows(lines, n_col: int, source: str, first: int) -> np.ndarray:
    """Row-wise parse of the records of ``lines``, the first of which is
    line ``first`` of ``source``; names the line the first bad record ends on.

    The reader is strict: a closing quote must end its cell, and a quoted
    cell must close before ``lines`` end, so a block of a file that ends
    inside a quoted cell is refused at its last line.
    """
    reader = csv.reader(lines, strict=True)
    rows = []
    try:
        for cells in reader:
            lineno = first - 1 + reader.line_num
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
        raise DataFormatError(f"{source}: line {first - 1 + reader.line_num}: {exc}") from None
    return np.array(rows).reshape(len(rows), n_col)


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


def fit_result_to_dict(fit: FitResult, cov: AsymptoticCovariance | None = None) -> dict:
    """The fit as a document; with the plug-in covariance ``cov`` of every
    component, also its ``v``, standard errors and any ``warnings``."""
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
    if cov is not None:
        doc["plug_in_cov"] = cov.v
        doc["std_errors"] = cov.std_errors
        if cov.warnings:
            doc["warnings"] = list(cov.warnings)
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


def _cells(texts) -> str:
    """``texts`` right-aligned in cells of 12 characters, each with a space
    before it, so a longer text widens its cell and stays apart."""
    return "".join(" " + text.rjust(11) for text in texts)


def format_fit_table(fit: FitResult, cov: AsymptoticCovariance | None = None) -> str:
    """Aligned coefficient table, one row per component.

    With the plug-in covariance ``cov`` of every component, each
    component's standard errors follow on an ``se`` row; failed
    components render as ``nan`` with the error code appended.
    """
    d = fit.coefficients.shape[1]
    lines = [f"{'component':>10}" + _cells(f"b[{i + 1}]" for i in range(d))]
    for m in range(fit.n_components):
        row = f"{m + 1:>10}" + _cells(f"{b:.4f}" for b in fit.coefficients[m])
        if m in fit.errors:
            row += f"  [{fit.errors[m].code}]"
        lines.append(row)
        if cov is not None:
            lines.append(f"{'se':>10}" + _cells(f"{se:.4f}" for se in cov.std_errors[m]))
    lines.append(f"det(Gamma) = {fit.det_gamma:.6g}")
    return "\n".join(lines) + "\n"


def format_report_table(report: MonteCarloReport) -> str:
    """Aligned per-component table of scaled covariances over the grid.

    One block per component.  Columns are the variances in order, then the
    upper-triangle covariances; the final ``inf`` row is the analytic limit.
    """
    n_comp, d = report.true_b.shape
    pairs = [(i, i) for i in range(d)] + [(i, k) for i in range(d) for k in range(i + 1, d)]
    names = [f"V[{i + 1},{k + 1}]" for i, k in pairs]
    upper = tuple(zip(*pairs))  # the rows and the columns of the pairs
    lines = []
    for m in range(n_comp):
        lines += [f"component {m + 1}", f"{'n':>8}" + _cells([*names, "failures"])]
        for pt in report.points:
            cov = [f"{v:.4f}" for v in pt.scaled_cov[m][upper]]
            lines.append(f"{pt.n_obs:>8}" + _cells([*cov, str(pt.failures)]))
        lines.append(f"{'inf':>8}" + _cells(f"{v:.4f}" for v in report.analytic_v[m][upper]))
        if m < n_comp - 1:
            lines.append("")
    return "\n".join(lines) + "\n"
