import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mvcreg.dataio

from mvcreg import (
    ConcentrationMatrix,
    DataFormatError,
    Dataset,
    fit_all,
    generate,
    plug_in_covariance,
    reference_study_config,
)
from mvcreg.dataio import (
    comparison_to_dict,
    dumps,
    fit_result_to_dict,
    format_fit_table,
    format_report_table,
    parse_csv_text,
    read_csv,
    render_csv,
    render_weights_csv,
    report_to_dict,
    weights_to_dict,
    write_csv,
)
from mvcreg.concentrations import build_gramian, compute_weights
from mvcreg.montecarlo import compare_report, run_study
from mvcreg.simgen import with_n_obs, with_seed


def small_sim(n=50, seed=8):
    config, _ = reference_study_config()
    return generate(with_seed(with_n_obs(config, n), seed))


class TestCsv:
    def test_round_trip_bit_exact(self):
        sim = small_sim()
        text = render_csv(sim.data, sim.p)
        data, p = parse_csv_text(text)
        assert data.y.tobytes() == sim.data.y.tobytes()
        assert data.x.tobytes() == sim.data.x.tobytes()
        assert p.values.tobytes() == sim.p.values.tobytes()

    def test_file_round_trip(self, tmp_path):
        sim = small_sim()
        path = tmp_path / "data.csv"
        write_csv(path, sim.data, sim.p)
        data, p = read_csv(path)
        assert data.y.tobytes() == sim.data.y.tobytes()

    def test_header_line(self):
        sim = small_sim()
        first = render_csv(sim.data, sim.p).splitlines()[0]
        assert first == "y,x1,x2,p1,p2"

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_csv(tmp_path / "absent.csv")

    def test_rejects_a_file_descriptor(self, tmp_path):
        # open() would close the caller's descriptor, and every block's read
        # would move its one shared offset
        path = tmp_path / "sim.csv"
        sim = small_sim()
        write_csv(path, sim.data, sim.p)
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(DataFormatError, match=f"cannot read {fd}: a path is needed"):
                read_csv(fd)
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # still open, not moved
        finally:
            os.close(fd)

    def test_rejects_bad_header(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_csv_text("a,b,c\n1,2,3\n")

    def test_rejects_out_of_order_columns(self):
        with pytest.raises(DataFormatError):
            parse_csv_text("y,p1,x1\n1.0,1.0,2.0\n")

    @pytest.mark.parametrize(
        "header, message",
        [
            ("y,p1,x1", "header must be y,x1,...,xd,p1,...,pM, got 'y,p1,x1'"),
            ("y,x2,x1,p1", "columns out of order; expected y,x1,x2,p1, got 'y,x2,x1,p1'"),
            ("y,x1,p2", "columns out of order; expected y,x1,p1, got 'y,x1,p2'"),
            ("y,x1,x1,p1", "columns out of order; expected y,x1,x2,p1, got 'y,x1,x1,p1'"),
            # data lines are numbered from 2, so the header is one line
            ('"y\n",x1,x2,p1', "line 1: the header has a quoted line break"),
        ],
    )
    def test_header_refusal_messages(self, header, message, tmp_path):
        text = header + "\n1.0,2.0,3.0,1.0\n"
        with pytest.raises(DataFormatError) as exc_info:
            parse_csv_text(text, source="h.csv")
        assert str(exc_info.value) == f"h.csv: {message}"
        path = tmp_path / "h.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_csv, path) == ("error", f"{path}: {message}")

    def test_reports_bad_cell_line(self):
        text = "y,x1,p1\n1.0,2.0,1.0\n1.0,oops,1.0\n"
        with pytest.raises(DataFormatError, match="line 3"):
            parse_csv_text(text)

    def test_reports_short_row(self):
        text = "y,x1,p1\n1.0,2.0\n"
        with pytest.raises(DataFormatError, match="line 2"):
            parse_csv_text(text)

    def test_rejects_empty(self):
        with pytest.raises(DataFormatError):
            parse_csv_text("")
        with pytest.raises(DataFormatError, match="no data rows"):
            parse_csv_text("y,x1,p1\n")

    def test_rejects_non_stochastic_rows(self):
        text = "y,x1,p1,p2\n1.0,2.0,0.6,0.6\n2.0,1.0,0.5,0.5\n"
        with pytest.raises(DataFormatError):
            parse_csv_text(text)

    def test_row_count_mismatch_on_render(self):
        sim = small_sim()
        p = ConcentrationMatrix(sim.p.values[:-1])
        with pytest.raises(ValueError):
            render_csv(sim.data, p)


#: where repr switches notation or loses its shortest form: signed zero,
#: subnormals, and the fixed/exponent boundaries at 1e16 and 1e-5
_SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
    -1e16, 1e-5, 9.999999999999999e-06, 0.0001, 1e22, 0.1, 1 / 3, 1.7976931348623157e308,
]
_FINITE = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_UNIT = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 9.999999999999999e-06, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


def reference_csv(header, rows) -> str:
    """What the row-wise csv.writer with ``repr(float(v))`` cells wrote."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()


def dataset_reference_csv(data, p) -> str:
    header = ["y"] + [f"x{i + 1}" for i in range(data.n_regressors)]
    header += [f"p{k + 1}" for k in range(p.n_components)]
    return reference_csv(header, np.column_stack([data.y, data.x, p.values]))


def outcome(parse, *args, **kwargs):
    """The parsed arrays' bytes, or the DataFormatError text."""
    try:
        data, p = parse(*args, **kwargs)
    except DataFormatError as exc:
        return ("error", str(exc))
    return ("ok", data.y.tobytes(), data.x.tobytes(), p.values.tobytes())


_HEADER = "y,x1,p1\n"
_ROWS = "1.5,2.0,1.0\n-3.25,0.5,1.0\n"
#: (text, parsed by the row-wise path?) for inputs at the edge of the format
_EDGE_CASES = {
    "plain": (_HEADER + _ROWS, True),
    "whitespace-only line": (_HEADER + "1.5,2.0,1.0\n   \n-3.25,0.5,1.0\n", False),
    "hash line": (_HEADER + "# note\n" + _ROWS, False),
    "short row": (_HEADER + "1.5,2.0\n-3.25,0.5,1.0\n", False),
    "every row short": (_HEADER + "1.5,2.0\n-3.25,0.5\n", False),
    "extra field": (_HEADER + "1.5,2.0,1.0,4.0\n-3.25,0.5,1.0\n", False),
    "trailing comma": (_HEADER + "1.5,2.0,1.0,\n-3.25,0.5,1.0\n", False),
    "empty cell": (_HEADER + "1.5,,1.0\n-3.25,0.5,1.0\n", False),
    "hex cell": (_HEADER + "0x1,2.0,1.0\n-3.25,0.5,1.0\n", False),
    "quoted cells": (_HEADER + '"1.5","2.0",1.0\n-3.25,0.5,1.0\n', True),
    "text after a closing quote": (_HEADER + '"1.5"0,2.0,1.0\n-3.25,0.5,1.0\n', False),
    "quote open at the end": (_HEADER + _ROWS + '1.5,2.0,"1.0\n', False),
    "quote open at the end, no final newline": (_HEADER + _ROWS + '1.5,2.0,"1.0', False),
    "underscore digits": (_HEADER + "1_5,2.0,1.0\n-3.25,0.5,1.0\n", True),
    "full-width digits": (_HEADER + "１.5,2.0,1.0\n-3.25,0.5,1.0\n", True),
    "spaces around cells": (_HEADER + " 1.5 ,2.0 , 1.0\n-3.25,0.5,1.0\n", True),
    "late bad cell": (_HEADER + _ROWS * 3 + "1.5,oops,1.0\n", False),
    "crlf": ((_HEADER + _ROWS).replace("\n", "\r\n"), True),
    "blank lines": (_HEADER + "\n1.5,2.0,1.0\n\n\r\n-3.25,0.5,1.0\n\n", True),
    "no final newline": (_HEADER + _ROWS.rstrip("\n"), True),
    "nan cell": (_HEADER + "nan,2.0,1.0\n-3.25,0.5,1.0\n", False),
    "inf cell": (_HEADER + "1.5,-inf,1.0\n-3.25,0.5,1.0\n", False),
    "header only": (_HEADER, False),
    "header and blank lines": (_HEADER + "\n\n", False),
    "cr-only line endings": (_HEADER.replace("\n", "\r") + _ROWS.replace("\n", "\r"), False),
    "bare cr in a row": (_HEADER + "1.5,2.0\r,1.0\n-3.25,0.5,1.0\n", False),
    "rows not stochastic": (_HEADER + "1.5,2.0,0.5\n-3.25,0.5,1.0\n", False),
}


class TestCsvParity:
    @given(
        data=st.integers(3, 12).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=_FINITE),
                arrays(np.float64, (n, 2), elements=_FINITE),
                arrays(np.float64, n, elements=_UNIT),
            )
        )
    )
    def test_render_matches_row_writer(self, data):
        y, x, u = data
        dataset = Dataset(y=y, x=x)
        p = ConcentrationMatrix(np.column_stack([u, 1.0 - u]))
        assert render_csv(dataset, p) == dataset_reference_csv(dataset, p)

    def test_render_across_chunk_boundaries(self):
        n = 2 * mvcreg.dataio._CHUNK_ROWS + 3
        rng = np.random.default_rng(5)
        data = Dataset(y=rng.standard_normal(n) * 1e12, x=rng.standard_normal((n, 3)))
        u = rng.random(n)
        p = ConcentrationMatrix(np.column_stack([u, 1.0 - u]))
        text = render_csv(data, p)
        assert text == dataset_reference_csv(data, p)
        assert outcome(parse_csv_text, text) == (
            "ok", data.y.tobytes(), data.x.tobytes(), p.values.tobytes()
        )

    def test_weights_csv_matches_row_writer(self):
        a = np.array([[2.0, -0.0], [1e16, 1e-5], [5e-324, -1 / 3]])
        expected = reference_csv(["a1", "a2"], a)
        assert render_weights_csv(a) == expected

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_edge_case_matches_row_wise_path(self, case, tmp_path, monkeypatch, io_pools):
        # blocks of one to three lines put every line at every place in a
        # block; with one line per block in a pool, a refused line is parsed
        # row by row in a worker and its error crosses the pool
        text, accepted = _EDGE_CASES[case]
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(parse_csv_text, text, source=str(path))
        assert (expected[0] == "ok") == accepted
        runs = [(chunk, 1) for chunk in (1, 2, 3, mvcreg.dataio._CHUNK_ROWS)] + [(1, 2), (1, 3)]
        for chunk, workers in runs:
            monkeypatch.setattr(mvcreg.dataio, "_CHUNK_ROWS", chunk)
            io_pools.force(workers)
            assert outcome(read_csv, path) == expected, (chunk, workers)

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_file_and_text_agree(self, case, tmp_path):
        text = _EDGE_CASES[case][0]
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_csv, path) == outcome(parse_csv_text, text, source=str(path))

    @staticmethod
    def tall_text(case):
        """A CSV of 2 * chunk + 3 rows, altered at the chunk boundaries by ``case``."""
        chunk = mvcreg.dataio._CHUNK_ROWS
        n = 2 * chunk + 3
        rng = np.random.default_rng(12)
        u = rng.random(n)
        table = np.column_stack([rng.standard_normal(n) * 1e3, rng.standard_normal(n), u, 1.0 - u])
        lines = [",".join(map(repr, row)) for row in table.tolist()]
        if case == "blank lines at chunk ends":
            for at in (2 * chunk, chunk, 1):
                lines.insert(at, "" if at != chunk else "\r")
        elif case == "bad cell in the last chunk":
            lines[2 * chunk + 1] = "1.0,oops,0.5,0.5"
        elif case == "short row in the second chunk":
            lines[chunk + 7] = "1.0,2.0,1.0"
        elif case == "trailing whitespace line":
            lines.append("   ")
        return "y,x1,p1,p2\n" + "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "case",
        [
            "plain",
            "blank lines at chunk ends",
            "bad cell in the last chunk",
            "short row in the second chunk",
            "trailing whitespace line",
        ],
    )
    def test_tall_file_matches_row_wise_path(self, case, tmp_path, monkeypatch):
        text = self.tall_text(case)
        path = tmp_path / "tall.csv"
        path.write_bytes(text.encode("utf-8"))
        row_wise = []
        parse_rows = mvcreg.dataio._parse_rows

        def recording_parse_rows(*args):
            row_wise.append(args)
            return parse_rows(*args)

        monkeypatch.setattr(mvcreg.dataio, "_parse_rows", recording_parse_rows)
        got = outcome(read_csv, path)
        accepted = case in ("plain", "blank lines at chunk ends")
        assert (got[0] == "ok") == accepted
        assert bool(row_wise) != accepted  # accepted input is never parsed row by row
        assert got == outcome(parse_csv_text, text, source=str(path))

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "case",
        [
            "plain",
            "blank lines at chunk ends",
            "bad cell in the last chunk",
            "short row in the second chunk",
            "trailing whitespace line",
        ],
    )
    def test_pooled_tall_file_matches_serial_path(self, case, workers, tmp_path, io_pools):
        # a refused block is parsed row by row in the worker that refused it,
        # and its error is raised where its result is taken: same text, same line
        path = tmp_path / "tall.csv"
        path.write_bytes(self.tall_text(case).encode("utf-8"))
        serial = outcome(read_csv, path)
        assert io_pools.started == []
        io_pools.force(workers)
        assert outcome(read_csv, path) == serial
        assert io_pools.started == [workers]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_leading_byte_order_mark_is_skipped(self, workers, tmp_path, io_pools):
        text = self.tall_text("blank lines at chunk ends")
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        expected = outcome(read_csv, plain)
        assert expected[0] == "ok"
        io_pools.force(workers)
        assert outcome(read_csv, marked) == expected
        assert outcome(parse_csv_text, "\ufeff" + text) == expected
        assert io_pools.started == ([workers] if workers > 1 else [])
        # only one mark is the file's; a second is the header's first character
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8-sig"))
        with pytest.raises(DataFormatError, match=r"header must be .*got '\\ufeffy,x1"):
            read_csv(marked)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_row_wise_path_runs_on_the_refused_block_only(
        self, workers, tmp_path, monkeypatch, io_pools
    ):
        calls = tmp_path / "calls"
        parse_rows = mvcreg.dataio._parse_rows

        def recording_parse_rows(lines, n_col, source, first):
            with open(calls, "a") as log:  # one small append per call, from any process
                log.write(f"{first}\n")
            return parse_rows(lines, n_col, source, first)

        monkeypatch.setattr(mvcreg.dataio, "_parse_rows", recording_parse_rows)
        io_pools.force(workers)
        chunk = mvcreg.dataio._CHUNK_ROWS
        lines = self.tall_text("plain").split("\n")
        lines[1 + chunk + 7] = '"' + lines[1 + chunk + 7].replace(",", '",', 1)  # a quoted cell
        cases = {
            "plain": (self.tall_text("plain"), []),
            "quoted cell in the second block": ("\n".join(lines), [2 + chunk]),
            "bad cell in the last block": (
                self.tall_text("bad cell in the last chunk"), [2 + 2 * chunk]
            ),
        }
        for case, (text, firsts) in cases.items():
            path = tmp_path / "tall.csv"
            path.write_bytes(text.encode("utf-8"))
            calls.write_text("")
            got = outcome(read_csv, path)
            assert [int(line) for line in calls.read_text().split()] == firsts, case
            assert got == outcome(parse_csv_text, text, source=str(path)), case
        assert io_pools.started == ([workers] * 3 if workers > 1 else [])

    @pytest.mark.parametrize(
        "text, refused",
        [
            # lines after the record are named by their place in the file
            (_HEADER + '0.5,1.0,1.0\n1.5,"2.0\n",1.0\n\n-3.25,oops,1.0\n', "line 6: not a number: 'oops'"),
            (_HEADER + '0.5,1.0,1.0\n1.5,"2.0\n",1.0\n\n-3.25,0.5,1.0\n', None),
            # split, the block after line 3 reads the closing quote as an
            # opening one, so each block by itself gives rows of the right width
            (_HEADER + '0.5,0.5,1.0\n1,2,"1.0\n"\n5",8,1.0\n', "line 5: not a number: '5\"'"),
            (_HEADER + '0.5,0.5,1.0\n1,2,"1.0\n"4",5,1.0\n', "line 4: ',' expected after '\"'"),
        ],
    )
    def test_quoted_line_break_is_split_at_a_block_boundary(self, text, refused, tmp_path, monkeypatch):
        # the one way a file and its text differ: a record that a quoted line
        # break carries from line 3 onto line 4 is read within one block of
        # lines, and refused where a block ends at line 3, inside the quote
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(parse_csv_text, text, source=str(path))
        if refused is None:
            assert expected == ("ok", *(np.array(c).tobytes() for c in (
                [0.5, 1.5, -3.25], [[1.0], [2.0], [0.5]], [[1.0]] * 3
            )))
        else:
            assert expected == ("error", f"{path}: {refused}")
        for chunk in (3, 4, mvcreg.dataio._CHUNK_ROWS):  # lines 3 and 4 in one block
            monkeypatch.setattr(mvcreg.dataio, "_CHUNK_ROWS", chunk)
            assert outcome(read_csv, path) == expected, chunk
        for chunk in (1, 2):  # a block ends at line 3
            monkeypatch.setattr(mvcreg.dataio, "_CHUNK_ROWS", chunk)
            assert outcome(read_csv, path) == ("error", f"{path}: line 3: unexpected end of data")

    @staticmethod
    def line_loop(raw: bytes, start: int, chunk: int) -> tuple[int, list[int]]:
        """The lines of ``raw`` from byte ``start`` on, and the offset of every
        ``chunk``-th of them from the first, by one step per line."""
        buffer = io.BytesIO(raw)
        buffer.seek(start)
        n, offsets = 0, []
        for line in buffer:
            if n % chunk == 0:
                offsets.append(buffer.tell() - len(line))
            n += 1
        return n, offsets

    _COUNT_CASES = {
        "plain": b"y,x1,p1\n1,2,1\n3,4,1\n5,6,1\n",
        "no last newline": b"y,x1,p1\n1,2,1\n3,4,1\n5,6,1",
        "blank lines": b"y,x1,p1\n\n1,2,1\r\n\r\n\n3,4,1\r\n\n\n5,6,1\n\r\n",
        "carriage returns": b"y,x1,p1\r\n\r\r\n1,2,1\r\n\r\n\r\n\r",
        "one-byte lines": b"y,x1,p1\n7\n\r\n8\n\n\r\n9\r\n",
        "leading byte-order mark": b"\xef\xbb\xbfy,x1,p1\n1,2,1\n\r\n3,4,1\n5,6,1",
        "header only": b"y,x1,p1\n",
        "blank lines only": b"y,x1,p1\n\n\r\n\n",
    }

    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 5, 1 << 18])
    @pytest.mark.parametrize("case", list(_COUNT_CASES))
    def test_row_count_matches_line_loop(self, case, read_bytes, tmp_path, monkeypatch):
        # reads of a few bytes end a block at every byte, between \r and \n too
        raw = self._COUNT_CASES[case]
        path = tmp_path / "case.csv"
        path.write_bytes(raw)
        monkeypatch.setattr(mvcreg.dataio, "_COUNT_BLOCK_BYTES", read_bytes)
        monkeypatch.setattr(mvcreg.dataio, "_CHUNK_ROWS", 2)
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            mvcreg.dataio._read_header(fh, str(path))
            start = fh.tell()
            got = mvcreg.dataio._count_lines(fh.buffer, start)
        assert got == self.line_loop(raw, start, 2)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 5, 1 << 18])
    @pytest.mark.parametrize("case", list(_COUNT_CASES))
    def test_read_matches_row_wise_path(self, case, read_bytes, chunk, tmp_path, monkeypatch):
        # blocks of one to three lines, so blank lines fall at every place in one
        path = tmp_path / "case.csv"
        path.write_bytes(self._COUNT_CASES[case])
        monkeypatch.setattr(mvcreg.dataio, "_COUNT_BLOCK_BYTES", read_bytes)
        monkeypatch.setattr(mvcreg.dataio, "_CHUNK_ROWS", chunk)
        text = self._COUNT_CASES[case].decode("utf-8")
        assert outcome(read_csv, path) == outcome(parse_csv_text, text, source=str(path))

    def test_read_arrays_are_handed_over_once(self, tmp_path, monkeypatch, io_pools):
        # serial and pooled reads parse each block of lines once, with one function
        def forbidden(*args):
            raise AssertionError("blank lines sent the file to the row-wise path")

        calls = tmp_path / "calls"
        parse_block = mvcreg.dataio._parse_block

        def recording_parse_block(path, first, offset, lines, width):
            with open(calls, "a") as log:  # one small append per call, from any process
                log.write(f"{first} {offset} {lines}\n")
            return parse_block(path, first, offset, lines, width)

        monkeypatch.setattr(mvcreg.dataio, "_parse_rows", forbidden)
        monkeypatch.setattr(mvcreg.dataio, "_parse_block", recording_parse_block)
        chunk = mvcreg.dataio._CHUNK_ROWS
        sim = small_sim(n=2 * chunk + 3)
        lines = render_csv(sim.data, sim.p).split("\n")
        for end in (chunk, 2 * chunk):  # the last line of the first two blocks of lines
            lines.insert(end, "")
        path = tmp_path / "sim.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = path.read_bytes()
        n, offsets = self.line_loop(raw, raw.index(b"\n") + 1, chunk)
        blocks = [
            f"{2 + k * chunk} {offset} {min(chunk, n - k * chunk)}"
            for k, offset in enumerate(offsets)
        ]
        assert len(blocks) == 3
        for workers in (1, 2, 3):
            io_pools.force(workers)
            calls.write_text("")
            data, p = read_csv(path)
            assert sorted(calls.read_text().splitlines()) == sorted(blocks), workers
            assert io_pools.started == ([workers] if workers > 1 else [])
            io_pools.started.clear()
            held = [data.y, data.x, p.values]
            for arr in held:
                assert not arr.flags.writeable
                assert arr.flags.c_contiguous and arr.flags.owndata
            for i, first in enumerate(held):
                for second in held[i + 1 :]:
                    assert not np.shares_memory(first, second)
            assert data.x.tobytes() == sim.data.x.tobytes()
            assert p.values.tobytes() == sim.p.values.tobytes()

    def test_parsed_arrays_are_kept_without_a_copy(self, tmp_path, monkeypatch):
        filled = []
        load_table = mvcreg.dataio._load_table

        def recording_load_table(*args):
            filled.append(load_table(*args))
            return filled[-1]

        monkeypatch.setattr(mvcreg.dataio, "_load_table", recording_load_table)
        sim = small_sim(n=1000)
        path = tmp_path / "sim.csv"
        write_csv(path, sim.data, sim.p)
        data, p = read_csv(path)
        y, x, p_values = filled[0]
        assert data.y is y and data.x is x and p.values is p_values

    def test_header_only_warns_nothing(self, recwarn):
        with pytest.raises(DataFormatError, match="no data rows"):
            parse_csv_text(_HEADER)
        assert len(recwarn) == 0

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((_HEADER + _ROWS * 2000).encode() + b"\xe9,1.0,1.0\n")
        with pytest.raises(DataFormatError, match="latin1.csv: not UTF-8"):
            read_csv(path)

    def test_well_formed_output_never_takes_the_fallback(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a well-formed CSV took the row-wise path")

        monkeypatch.setattr(mvcreg.dataio, "_parse_rows", forbidden)
        sim = small_sim(n=3000)
        path = tmp_path / "sim.csv"
        write_csv(path, sim.data, sim.p)
        data, p = read_csv(path)
        assert data.x.tobytes() == sim.data.x.tobytes()
        assert p.values.tobytes() == sim.p.values.tobytes()


class TestJson:
    def test_deterministic_output(self):
        doc = {"b": [1.0, 0.1], "a": np.array([[2.0]]), "n": 3, "flag": True}
        assert dumps(doc) == dumps(doc)

    def test_seventeen_digit_floats(self):
        out = dumps({"x": 0.1})
        assert "0.10000000000000001" in out

    def test_round_trips_through_json(self):
        doc = {"v": [0.1, 1 / 3, 1e-17], "nested": {"w": np.arange(3.0)}}
        parsed = json.loads(dumps(doc))
        assert parsed["v"] == [0.1, 1 / 3, 1e-17]
        assert parsed["nested"]["w"] == [0.0, 1.0, 2.0]

    def test_nan_and_inf_tokens(self):
        parsed = json.loads(dumps({"a": float("nan"), "b": float("inf")}))
        assert np.isnan(parsed["a"]) and np.isinf(parsed["b"])

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})


class TestResultDocs:
    def test_fit_result_document(self):
        sim = small_sim(n=400)
        fit = fit_all(sim.data, sim.p)
        doc = fit_result_to_dict(fit, plug_in_covariance(sim.data, sim.p, fit))
        parsed = json.loads(dumps(doc))
        assert parsed["n_obs"] == 400
        assert len(parsed["coefficients"]) == 2
        assert len(parsed["plug_in_cov"]) == 2
        assert len(parsed["std_errors"][0]) == 2
        assert parsed["errors"] == {}

    def test_weights_document(self):
        sim = small_sim(n=100)
        gramian = build_gramian(sim.p)
        weights = compute_weights(sim.p, gramian)
        doc = weights_to_dict(gramian, weights, sim.p)
        cross = np.array(doc["biorthogonality"])
        np.testing.assert_allclose(cross, np.eye(2), atol=1e-10)

    def test_report_and_comparison_documents(self):
        config, _ = reference_study_config()
        report = run_study(
            with_n_obs(config, 100), rep_count=10, n_grid=(100,)
        )
        doc = report_to_dict(report)
        assert doc["points"][0]["n_obs"] == 100
        cmp_doc = comparison_to_dict(compare_report(report, rel_tol=10.0))
        assert set(cmp_doc) >= {"ok", "worst_cov_rel", "cov_failures"}
        json.loads(dumps(doc))
        json.loads(dumps(cmp_doc))


class TestTables:
    def test_report_table_layout(self):
        config, _ = reference_study_config()
        report = run_study(with_n_obs(config, 120), rep_count=8, n_grid=(60, 120))
        text = format_report_table(report)
        lines = text.splitlines()
        assert lines[0] == "component 1"
        assert "component 2" in lines
        assert sum("inf" in line for line in lines) == 2
        header = next(line for line in lines if "V[1,1]" in line)
        assert "V[2,2]" in header and "V[1,2]" in header

    def test_wide_cells_stay_apart(self):
        # a cell of 12 or more characters gets a space before it, so every
        # row of either table splits on whitespace into its label and one
        # field per column
        sim = small_sim(n=400)
        data = Dataset(y=-1e9 * sim.data.y, x=sim.data.x)
        fit = fit_all(data, sim.p)
        fit_rows = format_fit_table(fit, plug_in_covariance(data, sim.p, fit)).splitlines()
        config, _ = reference_study_config()
        report = run_study(with_n_obs(config, 120), rep_count=8, n_grid=(60, 120))
        report = dataclasses.replace(
            report,
            analytic_v=-1e9 * report.analytic_v,
            points=tuple(
                dataclasses.replace(pt, scaled_cov=-1e9 * pt.scaled_cov) for pt in report.points
            ),
        )
        report_rows = format_report_table(report).splitlines()
        widths = [len(row.split()) for row in fit_rows[:-1]]
        assert widths == [3] * len(widths)  # label, b[1], b[2]; det(Gamma) apart
        rows = [row for row in report_rows if row and not row.startswith("component")]
        # label, three covariances, failures; the analytic row has no failures
        assert [len(row.split()) for row in rows] == [5, 5, 5, 4] * 2
        fields = [f for row in fit_rows[1:-1] + rows for f in row.split()[1:]]
        assert max(map(len, fields)) >= 12

    def test_fit_table_mentions_failures(self):
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=30)
        data = Dataset(y=rng.normal(size=30), x=np.column_stack([x1, x1]))
        t = np.arange(1, 31) / 30
        p = ConcentrationMatrix(np.column_stack([t, 1 - t]))
        fit = fit_all(data, p)
        text = format_fit_table(fit)
        assert "singular-normal-matrix" in text
        assert "nan" in text
