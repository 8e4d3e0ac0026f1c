"""Output bytes: CSV and SVG rows from _textio.write_rows and JSON reports from to_json.

The expected bytes and digests were recorded when every exporter still formatted its
own rows, the SVG was built as one string and reports went through a recursive copy;
they pin the files to that form.
"""

import hashlib
import io
import sys
from fractions import Fraction

import numpy as np
import pytest

import helpers
from kcirculant import _textio, cli, extremes, spectral
from kcirculant.cli import main
from kcirculant.montecarlo import ExperimentReport


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestWriteCsv:
    def test_cells(self):
        buf = io.StringIO()
        _textio.write_rows(buf, "f,i,s", [np.array([0.1, -0.0, 1e16, 5e-324]),
                                          np.array([-1, 2**62, 0, 7]), ["a", "b", "c", "d"]])
        assert buf.getvalue() == ("f,i,s\n0.1,-1,a\n-0.0,4611686018427387904,b\n"
                                  "1e+16,0,c\n5e-324,7,d\n")

    def test_append_writes_no_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        _textio.write_rows(path, "x", [[1, 2]])
        _textio.write_rows(path, "x", [np.array([3.5])], append=True)
        assert path.read_bytes() == b"x\n1\n2\n3.5\n"

    def test_rows_past_one_write(self):
        rows = 3 * _textio._ROWS + 5
        buf = io.StringIO()
        _textio.write_rows(buf, "i,x", [np.arange(rows), np.arange(rows) / 4])
        text = buf.getvalue()
        assert text.startswith("i,x\n0,0.0\n1,0.25\n") and text.endswith("196612,49153.0\n")
        same = text == "i,x\n" + "".join(f"{i},{i / 4!r}\n" for i in range(rows))
        assert same  # a bool: pytest would diff the two 196,614-line texts

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError, match=r"differ in length: \[2, 3\]"):
            _textio.write_rows(io.StringIO(), "a,b", [[1, 2], [1, 2, 3]])


class TestSpectrumCsvBytes:
    def test_structural_zeros(self, tmp_path):
        path = tmp_path / "s.csv"
        assert main(["spectrum", "--k", "2", "--n", "6", "--out", str(path)]) == 0
        assert path.read_text() == (
            "re,im,block_index,root_index\n0.0,0.0,-1,0\n0.0,0.0,-1,1\n0.0,0.0,-1,2\n"
            "0.7798044635276788,0.0,0,0\n0.8878844294078976,0.0,1,0\n"
            "-0.8878844294078976,1.087344824487156e-16,1,1\n")

    @pytest.mark.parametrize("k, n, digest", [
        (2, 6, "48cb9e7ec62118f0b13bb4b7eec808e1b133b5558b4a0b186ab333030f4388ce"),
        (6, 360, "2604b816efcdd3e2ce0640c2617e6cca6a6a55bf384cb52f817b6d53b8c1422c"),
    ])
    def test_appended_trials_to_file_and_stdout(self, k, n, digest, tmp_path, capsys):
        argv = ["spectrum", "--k", str(k), "--n", str(n), "--trials", "3"]
        path = tmp_path / "s.csv"
        assert main([*argv, "--out", str(path)]) == 0
        assert sha256(path.read_bytes()) == digest
        assert path.read_text().count("re,im") == 1
        assert main([*argv, "--out", "-"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == digest

    def test_svg(self, tmp_path):
        path = tmp_path / "s.svg"
        assert main(["spectrum", "--k", "6", "--n", "360", "--trials", "3",
                     "--format", "svg", "--out", str(path)]) == 0
        assert sha256(path.read_bytes()) == (
            "c3881488af1f5c87f8b6c5f978fc24c0901f69bf3bfbd207cb684cee0bc5cfdf")


class TestSpectrumSvgBytes:
    @pytest.mark.parametrize("argv, digest", [
        (["--k", "3", "--n", "50", "--law", "delta"],  # the axis floor, lim = 1.05
         "b9d8ab3bd2f3e690dbcdc561e1d5488c8d5d4386fa8b5d098cf3940e67800d0d"),
        (["--k", "6", "--n", "90", "--trials", "3"],  # structural zeros
         "1775a649d9f42b8b5a96ce6af2a92186598c9edfe4eb7e1da57b38dbeb915d31"),
        (["--preset", "ring_k2"],  # 90,100 circles
         "263a8aa026b8d8f5edcb0bb6014eb2c8bd0e719f86991c75b7a6c13ebe8f065b"),
    ])
    def test_file_and_stdout(self, argv, digest, tmp_path, capsys):
        argv = ["spectrum", *argv, "--format", "svg"]
        path = tmp_path / "s.svg"
        assert main([*argv, "--out", str(path)]) == 0
        assert sha256(path.read_bytes()) == digest
        assert main([*argv, "--out", "-"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == digest

    def test_circles_go_out_in_blocks(self, monkeypatch):
        class Chunks(list):
            write = list.append  # each write_text call hands the stream one chunk

        chunks = Chunks()
        monkeypatch.setattr(sys, "stdout", chunks)
        assert main(["spectrum", "--k", "3", "--n", "40000", "--trials", "2",
                     "--format", "svg", "--out", "-"]) == 0
        circles = [chunk.count("<circle") for chunk in chunks]
        assert sum(circles) == 80000
        assert max(circles) <= 65536


class TestRadiiCsvBytes:
    def test_seeds_past_two_to_the_63(self):
        records = [{"trial": 0, "seed": 2**64 - 1, "sp": 1.25, "standardized": np.float64(-0.1)},
                   {"trial": np.int64(1), "seed": 2**63, "sp": np.float64(2.0) / 3,
                    "standardized": 1e-300},
                   {"trial": 2, "seed": 7, "sp": 1e16, "standardized": -0.0}]
        buf = io.StringIO()
        extremes.export_radii_csv(iter(records), buf)
        assert buf.getvalue() == ("trial,seed,sp,standardized\n"
                                  "0,18446744073709551615,1.25,-0.1\n"
                                  "1,9223372036854775808,0.6666666666666666,1e-300\n"
                                  "2,7,1e+16,-0.0\n")

    def test_gumbel_command(self, tmp_path):
        path = tmp_path / "radii.csv"
        assert main(["gumbel", "--kk", "20", "--trials", "50", "--csv", str(path)]) == 1
        rows = path.read_text().splitlines()[1:]
        assert sum(int(row.split(",")[1]) >= 2**63 for row in rows) == 24
        assert sha256(path.read_bytes()) == (
            "956cf5a129927b38588adb785e6d67c6647a34b24ae29870d61b6f67b41a58c2")


class TestReportJson:
    @staticmethod
    def report(**aggregates):
        return ExperimentReport(
            config={"kind": "x", "k": np.int64(3)},
            hypothesis={"upsilon_exact": Fraction(3, 7), "ok": np.bool_(True),
                        "f": np.float64(0.1)},
            trials=[{"v": np.array([1.5, -0.0]), "i": np.array([[1, 2]], dtype=np.int64),
                     "t": (1, np.float32(0.5))}],
            aggregates=aggregates, passed=np.bool_(False))

    def test_numpy_and_fraction_values(self):
        assert self.report(m=1 / 3).to_json() == (
            '{\n  "aggregates": {\n    "m": 0.3333333333333333\n  },\n'
            '  "config": {\n    "k": 3,\n    "kind": "x"\n  },\n'
            '  "hypothesis": {\n    "f": 0.1,\n    "ok": true,\n    "upsilon_exact": "3/7"\n  },\n'
            '  "pass": false,\n'
            '  "trials": [\n    {\n      "i": [\n        [\n          1,\n          2\n'
            '        ]\n      ],\n      "t": [\n        1,\n        0.5\n      ],\n'
            '      "v": [\n        1.5,\n        -0.0\n      ]\n    }\n  ]\n}\n')

    def test_nan_aggregate_raises(self):
        with pytest.raises(ValueError, match="not JSON compliant: nan"):
            self.report(m=float("nan")).to_json()

    @pytest.mark.parametrize("value, name", [({1, 2}, "set"), (object(), "object")])
    def test_unsupported_type_raises(self, value, name):
        with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
            self.report(m=value).to_json()


class TestOneRowFormatter:
    """Every CSV and SVG row is formatted by _textio.write_rows: each writer hands it columns."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for module in (spectral, extremes, helpers):
            monkeypatch.setattr(module, "write_rows",
                                lambda path, header, columns, append=False:
                                calls.append((header, [list(c) for c in columns], append)))
        return calls

    def test_spectrum(self, calls):
        result = spectral.formula_spectrum(np.arange(4.0), 3, 4)
        spectral.export_spectrum_csv(result, io.StringIO(), scale=0.5, append=True)
        assert calls == [("re,im,block_index,root_index",
                          [list((result.eigenvalues * 0.5).real),
                           list((result.eigenvalues * 0.5).imag),
                           list(result.block_index), list(result.root_index)], True)]

    def test_radii(self, calls):
        buf = io.StringIO()
        extremes.export_radii_csv([{"trial": 0, "seed": 9, "sp": 1.5, "standardized": 2.0}], buf)
        assert calls == [("trial,seed,sp,standardized", [[0], [9], [1.5], [2.0]], False)]
        assert buf.getvalue() == ""

    def test_svg(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "write_rows", lambda path, header, columns, append=False,
                            row=None: calls.append((path, header, columns, append, row)))
        path = tmp_path / "s.svg"
        assert main(["spectrum", "--k", "6", "--n", "360", "--trials", "3",
                     "--format", "svg", "--out", str(path)]) == 0
        [(out, header, columns, append, row)] = calls
        assert out == str(path) and not append and path.read_text() == "</svg>\n"
        assert [type(c) for c in columns] == [np.ndarray, np.ndarray]
        assert [len(c) for c in columns] == [1080, 1080] and row.startswith("<circle")
        # the header, one circle per point and the footer give the recorded file
        circles = "".join(row % cells + "\n" for cells in zip(*(c.tolist() for c in columns)))
        assert sha256((header + "\n" + circles + "</svg>\n").encode()) == (
            "c3881488af1f5c87f8b6c5f978fc24c0901f69bf3bfbd207cb684cee0bc5cfdf")

    def test_points(self, calls):
        helpers.export_points_csv([1 + 2j], ["law"], io.StringIO())
        assert calls == [("re,im,tag", [[1.0], [2.0], ["law"]], False)]
