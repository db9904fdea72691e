import struct

import numpy as np
import pytest

from conftest import random_signal
from qtfa import (Axis, OlctParams, StqolctPlan, fileio, gaussian_signal, grid,
                  load_field, load_signal, save_field, save_signal,
                  stqolct_forward)
from qtfa.errors import FormatError, ParameterError
from qtfa.fileio import _CSV_LOAD_FACTOR, _PAYLOAD_CHUNK


@pytest.fixture
def signal(small_axes):
    return random_signal(*small_axes, seed=42)


class TestQs2d:
    def test_roundtrip_bit_identical(self, signal, tmp_path):
        path = tmp_path / "f.qs2d"
        save_signal(signal, path)
        back = load_signal(path)
        assert back.ax1 == signal.ax1 and back.ax2 == signal.ax2
        assert np.array_equal(back.data, signal.data)

    def test_header_layout(self, signal, tmp_path):
        path = tmp_path / "f.qs2d"
        save_signal(signal, path)
        raw = path.read_bytes()
        assert raw[:4] == b"QS2D"
        version, n1, n2 = struct.unpack_from("<3I", raw, 4)
        assert (version, n1, n2) == (1, 16, 16)
        assert len(raw) == 48 + 16 * 16 * 4 * 8

    def test_wrong_magic(self, signal, tmp_path):
        path = tmp_path / "f.qs2d"
        save_signal(signal, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == 0

    def test_truncated_payload(self, signal, tmp_path):
        path = tmp_path / "f.qs2d"
        save_signal(signal, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == len(raw) - 8

    def test_non_finite_payload_reports_offset(self, signal, tmp_path):
        path = tmp_path / "f.qs2d"
        save_signal(signal, path)
        raw = bytearray(path.read_bytes())
        bad_index = 37
        struct.pack_into("<d", raw, 48 + 8 * bad_index, float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == 48 + 8 * bad_index

    @pytest.mark.parametrize("where", ["second chunk", "last value"])
    def test_non_finite_past_the_first_chunk_reports_offset(self, tmp_path, where):
        # the last value sits in a third, partial chunk
        ax = Axis.centered(130, 8.0)
        count = 130 * 130 * 4
        assert count > 2 * _PAYLOAD_CHUNK
        bad_index = _PAYLOAD_CHUNK + 5 if where == "second chunk" else count - 1
        path = tmp_path / "f.qs2d"
        save_signal(random_signal(ax, ax, seed=43), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 48 + 8 * bad_index, float("-inf"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == 48 + 8 * bad_index

    def test_non_finite_axis_min_reports_offset(self, signal, tmp_path):
        path = tmp_path / "f.qs2d"
        save_signal(signal, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 32, float("nan"))  # min2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == 32

    def test_unknown_extension(self, signal, tmp_path):
        with pytest.raises(ParameterError):
            save_signal(signal, tmp_path / "f.dat")


class TestCsv:
    def test_roundtrip_exact(self, signal, tmp_path):
        # the data and both axes come back equal, on a sweep of grids that
        # holds some whose mean coordinate step is an ulp off the step
        path = tmp_path / "f.csv"
        short = Axis.centered(2, 1.0)
        signals = [signal]
        for n in range(2, 41):
            for extent in (0.3, 1.0, 2.5, 4.0, 7.3, 8.0, 12.9):
                ax = Axis.centered(n, extent)
                signals += [random_signal(ax, short, seed=n), random_signal(short, ax, seed=n)]
        drifted = sum(float(np.mean(np.diff(f.ax1.coords))) != f.ax1.step for f in signals)
        for f in signals:
            save_signal(f, path)
            back = load_signal(path)
            assert (back.ax1, back.ax2) == (f.ax1, f.ax2)
            assert np.array_equal(back.data, f.data)
        assert drifted

    def test_over_budget_load_raises_before_it_is_read(self, signal, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        need = _CSV_LOAD_FACTOR * path.stat().st_size
        monkeypatch.setattr(grid, "_memory_budget", lambda: need - 1)
        monkeypatch.setattr(fileio, "open", lambda *args: pytest.fail("the file was read"),
                            raising=False)
        with pytest.raises(ParameterError, match=f"^{path}: loading the CSV file needs {need} "
                                                 f"bytes, over the memory budget of {need - 1} "):
            load_signal(path)

    def test_a_load_of_exactly_the_budget_is_read(self, signal, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        need = _CSV_LOAD_FACTOR * path.stat().st_size
        monkeypatch.setattr(grid, "_memory_budget", lambda: need)
        assert np.array_equal(load_signal(path).data, signal.data)

    def test_header_and_line_endings(self, signal, tmp_path):
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        raw = path.read_bytes()
        assert raw.startswith(b"x1,x2,q0,q1,q2,q3\n")
        assert b"\r" not in raw

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y,a,b,c,d\n0,0,1,0,0,0\n")
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == 0

    def test_bad_field_count(self, signal, tmp_path):
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        lines = path.read_text().split("\n")
        lines[3] = lines[3] + ",0.0"
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError):
            load_signal(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_its_line(self, signal, tmp_path, value):
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        lines = path.read_text().split("\n")
        fields = lines[3].split(",")
        fields[4] = value
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == sum(len(line) + 1 for line in lines[:3])

    def test_offsets_count_bytes_not_characters(self, signal, tmp_path):
        # float() parses the two-byte digit U+0660, so the file gets as far
        # as the nan in row 3, which must be reported at that row's byte
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        lines = path.read_text().split("\n")
        fields = lines[1].split(",")
        fields[2] = "\u0660"
        lines[1] = ",".join(fields)
        fields = lines[3].split(",")
        fields[3] = "nan"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == len("\n".join(lines[:3]).encode("utf-8")) + 1

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xc3"])
    def test_a_byte_that_is_not_utf8_reports_its_offset(self, signal, tmp_path, bad):
        # an invalid byte, and a lead byte cut short, 5 bytes into data row 2
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:5] + bad + lines[2][5:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match="not UTF-8") as err:
            load_signal(path)
        assert err.value.offset == len(b"\n".join(lines[:2])) + 1 + 5

    @pytest.mark.parametrize("first", ["header", "row 1"])
    def test_of_two_faults_the_first_in_the_file_is_reported(self, signal, tmp_path, first):
        # a bad header or an unparsable data row 1, and an invalid byte in
        # data row 3: the offset is that of the first fault
        path = tmp_path / "f.csv"
        save_signal(signal, path)
        lines = path.read_bytes().split(b"\n")
        if first == "header":
            lines[0] = b"x,y,a,b,c,d"
        else:
            lines[1] = lines[1].replace(b",", b",x", 1)
        lines[3] = b"\xff" + lines[3]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError) as err:
            load_signal(path)
        assert err.value.offset == (0 if first == "header" else len(lines[0]) + 1)

    @pytest.mark.parametrize("row, column, bad_row", [
        (5, None, 5),      # row 5 deleted: row 5 now holds row 6's coordinates
        (15, None, None),  # last row deleted: every row fits, the file ends early
        (6, 1, 6),         # x2 of row 6 off the grid of the fitted axes
        (2, 1, 2),         # x2 of row 2 breaks the spacing of the x2 axis
        (8, 0, 8),         # x1 of row 8 breaks the spacing of the x1 axis
    ])
    def test_grid_errors_report_the_first_bad_line(self, tmp_path, row, column, bad_row):
        # data row ``row`` of a 4x4 grid is deleted (column None) or one of
        # its coordinates is moved by 0.1
        ax = Axis.centered(4, 4.0)
        path = tmp_path / "f.csv"
        save_signal(random_signal(ax, ax, seed=44), path)
        lines = path.read_text().split("\n")  # header, 16 rows, ""
        if column is None:
            del lines[1 + row]
        else:
            fields = lines[1 + row].split(",")
            fields[column] = repr(float(fields[column]) + 0.1)
            lines[1 + row] = ",".join(fields)
        text = "\n".join(lines)
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            load_signal(path)
        expect = len(text) if bad_row is None else len("\n".join(lines[:1 + bad_row])) + 1
        assert err.value.offset == expect


class TestQtf4:
    @pytest.fixture
    def field(self):
        ax = Axis.centered(8, 4.0)
        window = gaussian_signal(ax, ax, 2.0)
        plan = StqolctPlan.create(OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2),
                                  OlctParams(0, -1, 1, 0, 0.1, 0.2),
                                  ax, ax, window, stride=2)
        return stqolct_forward(gaussian_signal(ax, ax, 1.0), plan)

    def test_roundtrip_bit_identical(self, field, tmp_path):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        back = load_field(path)
        assert np.array_equal(back.data, field.data)
        assert back.w1 == field.w1 and back.w2 == field.w2
        assert back.u1 == field.u1 and back.u2 == field.u2
        assert back.params1 == field.params1
        assert back.params2 == field.params2
        assert back.plan is None

    def test_header_layout(self, field, tmp_path):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        raw = path.read_bytes()
        assert raw[:4] == b"QTF4"
        version, nw1, nw2, nu1, nu2 = struct.unpack_from("<5I", raw, 4)
        assert (version, nw1, nw2, nu1, nu2) == (1, 8, 8, 4, 4)
        assert len(raw) == 184 + 8 * 8 * 4 * 4 * 4 * 8

    def test_wrong_magic(self, field, tmp_path):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"QS2D"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_field(path)
        assert err.value.offset == 0

    def test_truncated(self, field, tmp_path):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_field(path)

    def test_over_budget_payload_raises_before_it_is_read(self, field, tmp_path, monkeypatch):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        nbytes = field.data.nbytes
        monkeypatch.setattr(grid, "_memory_budget", lambda: nbytes - 1)
        with pytest.raises(ParameterError, match=f"needs {nbytes} bytes, over the memory "
                                                 f"budget of {nbytes - 1} bytes"):
            load_field(path)
        monkeypatch.setattr(grid, "_memory_budget", lambda: nbytes)
        assert np.array_equal(load_field(path).data, field.data)

    def test_a_truncated_payload_is_reported_before_the_budget(self, field, tmp_path,
                                                              monkeypatch):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        monkeypatch.setattr(grid, "_memory_budget", lambda: 0)
        with pytest.raises(FormatError) as err:
            load_field(path)
        assert err.value.offset == len(raw) - 8

    def test_non_finite_axis_min_reports_offset(self, field, tmp_path):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 24 + 16 * 2, float("inf"))  # u1 min
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_field(path)
        assert err.value.offset == 56

    def test_payload_errors_report_offset(self, field, tmp_path):
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        raw = bytearray(path.read_bytes())
        path.write_bytes(bytes(raw[:-8]))
        with pytest.raises(FormatError) as err:
            load_field(path)
        assert err.value.offset == len(raw) - 8
        struct.pack_into("<d", raw, 184 + 8 * 11, float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_field(path)
        assert err.value.offset == 184 + 8 * 11

    @pytest.mark.parametrize("offset, value, sextet", [
        (96, 0.0, 88),                # params1.b = 0
        (88, 2.0, 88),                # params1.a: det != 1
        (136 + 8 * 5, float("nan"), 136),  # params2.q non-finite
        (136 + 8, 0.0, 136),          # params2.b = 0
    ])
    def test_invalid_sextet_reports_offset(self, field, tmp_path, offset, value, sextet):
        # a sextet the transform rejects is a format error at that sextet
        path = tmp_path / "s.qtf4"
        save_field(field, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_field(path)
        assert err.value.offset == sextet
