"""Reading and writing datasets, fit results, and study reports.

The CSV layout is one observation per row with header
``y,x1,...,xd,p1,...,pM``: response first, then the regressor columns, then
the concentration columns.  Floats are written with ``repr`` so a write/read
round trip reproduces the array bytes exactly.

The writer renders fixed chunks of rows: it takes one chunk's columns from a
function of the chunk's first row, stacks them, maps ``repr`` over its cells
and joins them row by row, so it holds one chunk's table and text at a time
when it writes to a file.  The function slices arrays held in memory, or,
for ``simulate``, draws the chunk (:func:`~mvcreg.simgen.draw_blocks`), so
that the rows are drawn where they are rendered and the dataset is never
held whole.  One reader
serves a file and text alike: it is given an opener of the input's bytes,
which reopens the file, refusing it if it changed, or wraps the text's
UTF-8 bytes.  It skips one leading byte-order mark, checks the header,
counts the lines with a numpy scan for newlines over fixed-size reads,
recording the byte offset of every chunk's first line, and fills y, x and
p, allocated for every line, in place, so it holds the parsed arrays once,
with nothing N-sized beside them.  Each chunk of lines is parsed by itself
from its offset: by ``np.loadtxt``, and where ``np.loadtxt`` refuses it
(quoted cells, ``1_0``, blank lines alone, or a genuine error) or gives a
value that is not finite, by the row-wise ``csv.reader`` path over the same
lines, which accepts exactly the finite values that ``float`` accepts,
names the line of the first bad record, and holds one Python list per row
of that chunk.  Both paths convert with CPython's string-to-double routine,
so they give the same values, and both check every cell to be finite, so
``Dataset`` need not read y and x again.  A chunk's rows are written from
its first line's row on; ``np.loadtxt`` drops blank lines, and where they
leave fewer rows than lines, the later chunks' rows are moved up and the
arrays are cut to the rows read.  Quotes are
read strictly: a closing quote must end its cell, and a quoted cell must
close before its chunk ends, so a record that a quoted line break carries
across the end of a chunk is refused at the chunk's last line, in a file
and in its text.  Messages name physical lines, the header being line 1 (a
header that spans lines is refused), and a record that spans lines by the
line it ends on.

Both directions map one function over the chunks with
:func:`mvcreg._pool.chunk_map`: from ``_POOL_MIN_CELLS`` cells on, forked
workers each take every W-th chunk, below that the calling process takes
them all.  Render workers inherit the function that gives the columns and
send each chunk's text through a pipe, which the parent writes in row
order.  Parse workers inherit the opener and y, x and p, which from that
size on live in shared mappings (:func:`mvcreg._pool.table_empty`); they
write each chunk's rows there and send its row count, or its error, which
the parent raises in chunk order.  So the parent touches none of the rows
it reads, and the fit's row sums, pooled for a table in those mappings,
leave y and x to the workers too.  The bytes, arrays and messages are the same
whatever the worker count.

JSON output is rendered by a small deterministic writer (insertion-ordered
keys, floats at 17 significant digits) so that byte-identical inputs yield
byte-identical reports.  The weights document, the one with an N-sized
value, is written block by block: its head, then the weights one chunk of
rows at a time, each rendered by the same writer and mapped over the chunks
as CSV text is, then its tail.  This
module composes every document and table the commands print.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import warnings
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from ._pool import chunk_map, table_empty
from .concentrations import ConcentrationMatrix, GramianSummary
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


def _render_rows(rows, start: int) -> str:
    """CSV text of the block of rows from row ``start`` whose columns
    ``rows(start)`` gives.

    The columns are stacked side by side.  Every cell is ``repr`` of a
    Python float, exactly what ``csv.writer`` writes for ``repr(float(v))``:
    a float's repr never needs quoting.
    """
    block = np.column_stack(rows(start))
    cells = map(repr, block.ravel().tolist())
    return "\n".join(map(",".join, zip(*[cells] * block.shape[1]))) + "\n"


def _column_rows(columns: list[np.ndarray], start: int) -> list[np.ndarray]:
    """The ``_CHUNK_ROWS`` rows of each of ``columns`` from row ``start``."""
    return [column[start : start + _CHUNK_ROWS] for column in columns]


def _csv_chunks(header: list[str], n: int, rows):
    """Yield CSV text for ``header`` and ``n`` rows, chunk by chunk, the
    columns of the block from row ``start`` being ``rows(start)``.

    From ``_POOL_MIN_CELLS`` cells on, the chunks are rendered by forked
    workers, which inherit ``rows`` and what it reads, and yielded in row
    order, so the text is the same whatever the worker count.
    """
    yield ",".join(header) + "\n"
    starts = range(0, n, _CHUNK_ROWS)
    with chunk_map(n * len(header), partial(_render_rows, rows), starts) as chunks:
        yield from chunks


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


def render_csv(data: Dataset, p: ConcentrationMatrix) -> str:
    """Serialize a dataset and its concentration rows to CSV text."""
    out = io.StringIO()
    write_csv(out, data, p)
    return out.getvalue()


def write_csv(path, data: Dataset, p: ConcentrationMatrix) -> None:
    """Write a dataset and its concentration rows as CSV to a path or an
    open text stream, chunk by chunk."""
    if p.values.shape[0] != data.n_obs:
        raise ValueError(
            f"dataset has {data.n_obs} rows but concentration matrix has "
            f"{p.values.shape[0]}"
        )
    rows = partial(_column_rows, [data.y, data.x, p.values])
    write_csv_blocks(path, data.n_regressors, p.n_components, data.n_obs, rows)


def write_csv_blocks(path, n_regressors: int, n_components: int, n_obs: int, rows) -> None:
    """Write ``n_obs`` rows as CSV to a path or an open text stream, chunk by
    chunk: ``rows(start)`` gives the y, x and p of the block of
    ``_CHUNK_ROWS`` rows from row ``start``, each time it is called.

    So a dataset that is drawn a block at a time, as ``simulate``'s is, is
    drawn in the render workers, and only a block of it is ever held.
    """
    header = _header(n_regressors, n_components)
    _write_chunks(path, _csv_chunks(header, n_obs, rows))


def write_weights_csv(path, a: np.ndarray) -> None:
    """Write the N x M weight matrix as CSV, header ``a1,...,aM`` and one
    row per observation, to a path or an open text stream, chunk by chunk."""
    header = [f"a{m + 1}" for m in range(a.shape[1])]
    _write_chunks(path, _csv_chunks(header, a.shape[0], partial(_column_rows, [a])))


def parse_csv_text(text: str, source: str = "<string>") -> tuple[Dataset, ConcentrationMatrix]:
    """Parse CSV text into a dataset plus concentration matrix.

    The text is read as its UTF-8 bytes, by ``read_csv``'s reader, so it
    gives what its file gives.  The header fixes the column split: ``x``
    columns must be numbered 1..d and ``p`` columns 1..M, in order.  Any
    malformed cell raises DataFormatError naming the line.  Concentration
    rows must sum to one within ``_ROW_SUM_TOL``.
    """
    return _parse_stream(partial(io.BytesIO, text.encode("utf-8", "surrogatepass")), source)


def read_csv(path) -> tuple[Dataset, ConcentrationMatrix]:
    """Parse the CSV file ``path`` in blocks of lines, without holding its text.

    Lines end at ``\\n`` only.  Each block opens the file again by its name
    and seeks to its first line, so a file descriptor, a pipe or a FIFO is
    refused, and so is a file that is replaced or changed while it is read.
    """
    if isinstance(path, int):
        raise DataFormatError(f"cannot read {path}: a path is needed, not a file descriptor")
    try:
        # a FIFO with no writer would hold open() for ever; every block
        # reopens and seeks the file, which a pipe or tty cannot do
        if stat.S_ISFIFO(os.stat(path).st_mode):
            raise DataFormatError(f"cannot read {path}: a regular file is needed, not a pipe")
        with open(path, "rb") as fh:
            if not fh.seekable():
                raise DataFormatError(f"cannot read {path}: a regular file is needed, not a pipe")
            stamp = _stamp(fh)
        return _parse_stream(partial(_open_unchanged, path, stamp), str(path))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _stamp(fh) -> tuple[int, ...]:
    """What changes when the file open as ``fh`` is replaced or written."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _open_unchanged(path, stamp: tuple[int, ...]):
    """The file ``path`` opened for binary reading, if ``stamp`` is still its stamp."""
    fh = open(path, "rb")
    if _stamp(fh) != stamp:
        fh.close()
        raise DataFormatError(f"{path}: the file changed while it was read")
    return fh


def _parse_stream(opener, source: str):
    """The dataset and concentrations of the CSV bytes that ``opener()``
    opens a new binary stream of each time it is called."""
    try:
        with io.TextIOWrapper(opener(), encoding="utf-8", newline="\n") as fh:
            d, n_comp = _read_header(fh, source)
            # a UTF-8 stream's position after a whole line is its byte offset
            n, offsets = _count_lines(fh.buffer, fh.tell())
        y, x, p_values = _load_table(opener, source, n, offsets, d, n_comp)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{source}: not UTF-8 text ({exc.reason})") from None
    if not len(y):
        raise DataFormatError(f"{source}: no data rows")
    try:
        data = Dataset._parsed(y, x)  # the parse checked every cell
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


def _load_table(opener, source: str, n: int, offsets: list[int], d: int, n_comp: int):
    """Read-only y, x and p of the ``n`` lines of data rows whose blocks of
    ``_CHUNK_ROWS`` lines begin at byte ``offsets`` of what ``opener`` opens.

    The arrays are allocated for ``n`` rows and filled in place by
    ``_parse_into``, so nothing N-sized exists beside them.  From
    ``_POOL_MIN_CELLS`` cells on, they live in shared mappings, forked
    workers parse the blocks and write their rows there, and the calling
    process touches none of them; below that, it maps the same function
    over the blocks itself.  A block is parsed by itself wherever it is
    parsed, row by row where ``np.loadtxt`` refuses it, and its errors name
    the input's own lines.
    """
    width = 1 + d + n_comp
    firsts = range(2, n + 2, _CHUNK_ROWS)  # the header is line 1
    sizes = [min(_CHUNK_ROWS, n + 2 - first) for first in firsts]
    cells = n * width
    table = tuple(table_empty(cells, shape) for shape in ((n,), (n, d), (n, n_comp)))
    parse = partial(_parse_into, table, opener, source, width)
    with chunk_map(cells, parse, firsts, offsets, sizes) as counts:
        return _compact(table, counts)


def _parse_into(table, opener, source: str, width: int, first: int, offset: int, lines: int):
    """Parse the block of ``lines`` lines from line ``first`` (see
    ``_parse_block``) into the arrays ``table`` of y, x and p, from the row
    of its first line on; its row count."""
    block = _parse_block(opener, source, width, first, offset, lines)
    start, (y, x, p) = first - 2, table
    rows = slice(start, start + len(block))
    d = x.shape[1]
    y[rows], x[rows], p[rows] = block[:, 0], block[:, 1 : 1 + d], block[:, 1 + d :]
    return len(block)


def _compact(table, counts) -> tuple[np.ndarray, ...]:
    """Read-only y, x and p of the rows that ``table``'s blocks hold, each
    block's ``counts`` rows from the row of its first line on.

    Where blank lines leave a block fewer rows than lines, the rows of the
    blocks after it are moved up, and each array is its leading rows: a
    view of a shared mapping, or an array of numpy's shrunk in place, so
    that it still owns its memory and is held once.
    """
    begin = 0
    for start, count in zip(range(0, len(table[0]), _CHUNK_ROWS), counts):
        if begin < start:
            for arr in table:
                arr[begin : begin + count] = arr[start : start + count]
        begin += count
    arrays = []
    for arr in table:
        if arr.flags.owndata:
            arr.resize((begin, *arr.shape[1:]), refcheck=False)
        else:
            arr = arr[:begin]
        arr.flags.writeable = False  # handed over to Dataset and ConcentrationMatrix
        arrays.append(arr)
    return tuple(arrays)


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


def _parse_block(opener, source: str, width: int, first: int, offset: int, lines: int):
    """The rows of the ``lines`` lines that begin at byte ``offset`` with
    line ``first`` of what ``opener`` opens.

    ``np.loadtxt`` parses them; where it refuses them (quoted cells, ``1_0``,
    blank lines alone, or a genuine error), they are not ``width`` columns
    wide or a cell is not finite, ``_parse_rows`` parses the same lines
    again, and refuses them if they end inside a quoted cell.
    """
    with io.TextIOWrapper(opener(), encoding="utf-8", newline="\n") as fh:
        fh.seek(offset)
        # UnicodeDecodeError is a ValueError
        with warnings.catch_warnings(), contextlib.suppress(ValueError, Warning):
            warnings.simplefilter("error")  # "input contained no data" and kin
            block = np.loadtxt(islice(fh, lines), delimiter=",", comments=None, ndmin=2)
            if block.shape[1] == width and np.isfinite(block).all():
                return block
        fh.seek(offset)
        return _parse_rows(islice(fh, lines), width, source, first)


def _parse_rows(lines, n_col: int, source: str, first: int) -> np.ndarray:
    """Row-wise parse of the records of ``lines``, the first of which is
    line ``first`` of ``source``; names the line the first bad record ends
    on, a cell that is not a number or not finite (``nan``, ``inf``,
    ``1e400``) being bad.

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
                row = [float(c) for c in cells]
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise DataFormatError(
                    f"{source}: line {lineno}: not a number: {bad!r}"
                ) from None
            if not all(map(math.isfinite, row)):
                bad = next(c for c, v in zip(cells, row) if not math.isfinite(v))
                raise DataFormatError(f"{source}: line {lineno}: not a finite number: {bad!r}")
            rows.append(row)
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
        "det_gamma": fit.gramian.det_gamma,
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


def _weights_json_chunks(gramian: GramianSummary, a: np.ndarray, p: ConcentrationMatrix):
    n = a.shape[0]
    # (1/N) a' p should be the identity; report it so drift is visible
    cross = np.einsum("jm,jk->mk", a, p.values) / n
    doc = {"n_obs": n, "det_gamma": gramian.det_gamma, "gamma": gramian.gamma, "weights": []}
    doc["biorthogonality"] = cross
    head, tail = dumps(doc).split("[]")  # its one empty list, where the weights go
    yield head + "["
    starts = range(0, n, _CHUNK_ROWS)
    with chunk_map(a.size, partial(_json_rows, a), starts) as blocks:
        yield from blocks
    yield "]" + tail


def _json_rows(a: np.ndarray, start: int) -> str:
    """The block of rows of ``a`` from row ``start`` as ``dumps`` writes them
    in a list, less the list's brackets, with the comma that parts it from
    the rows before."""
    return (", " if start else "") + dumps(a[start : start + _CHUNK_ROWS])[1:-2]


def write_weights_json(path, gramian: GramianSummary, a: np.ndarray, p: ConcentrationMatrix):
    """Write the weights document of ``a`` and ``p`` to a path or an open text
    stream, the N x M weights one block of rows at a time, rendered as the
    CSV writer renders its chunks (by forked workers from
    ``_POOL_MIN_CELLS`` cells on)."""
    _write_chunks(path, _weights_json_chunks(gramian, a, p))


def report_to_dict(report: MonteCarloReport, comparison: ComparisonReport | None = None) -> dict:
    doc = {
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
    if comparison is not None:
        doc["comparison"] = comparison_to_dict(comparison)
    return doc


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
    lines.append(f"det(Gamma) = {fit.gramian.det_gamma:.6g}")
    return "\n".join(lines) + "\n"


def format_report_table(
    report: MonteCarloReport, comparison: ComparisonReport | None = None
) -> str:
    """Aligned per-component table of scaled covariances over the grid.

    One block per component.  Columns are the variances in order, then the
    upper-triangle covariances; the final ``inf`` row is the analytic limit.
    With ``comparison``, a last line gives its outcome.
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
    if comparison is not None:
        state = "ok" if comparison.ok else "FAILED"
        lines.append(f"comparison at n={comparison.n_obs}: {state} (worst cov rel err "
                     f"{comparison.worst_cov_rel:.3f}, tol {comparison.rel_tol})")
    return "\n".join(lines) + "\n"
