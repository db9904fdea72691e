import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qtfa import cli, fileio, grid, load_field, load_signal, stqolct, verify
from qtfa.cli import main
from qtfa.errors import FormatError
from qtfa.verify import load_report


def run(*args):
    return main([str(a) for a in args])


def _readme():
    return (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_check_count():
    """The check count of the default verdict that README.md quotes."""
    found = re.findall(r"`(\d+) checks, 0 gated failures -> report PATH`", _readme())
    assert len(found) == 1, found
    return found[0]


def _must_not_run(*args, **kwargs):
    pytest.fail("work ran before the output path was checked")


def _assert_one_error_line(capsys, start):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start), err


@pytest.fixture
def gauss_file(tmp_path):
    path = tmp_path / "f.qs2d"
    assert run("gen", "--kind", "gaussian", "--alpha", 1, "--n", 16,
               "--extent", 8, "-o", path) == 0
    return path


class TestGen:
    def test_gaussian(self, gauss_file):
        f = load_signal(gauss_file)
        assert f.ax1.n == 16
        assert f.data[8, 8, 0] > 0

    def test_csv_output(self, tmp_path):
        path = tmp_path / "f.csv"
        assert run("gen", "--kind", "chirp", "--rate1", 0.5, "--n", 8,
                   "--extent", 4, "-o", path) == 0
        assert path.read_text().startswith("x1,x2,q0,q1,q2,q3\n")

    def test_impulse(self, tmp_path):
        path = tmp_path / "imp.qs2d"
        assert run("gen", "--kind", "impulse", "--at", "3,5", "--n", 8,
                   "--extent", 4, "-o", path) == 0
        f = load_signal(path)
        assert np.count_nonzero(f.data) == 1
        assert f.data[3, 5, 0] != 0

    def test_product(self, tmp_path, gauss_file):
        other = tmp_path / "g.qs2d"
        run("gen", "--kind", "chirp", "--rate1", 0.3, "--n", 16, "--extent", 8,
            "-o", other)
        out = tmp_path / "prod.qs2d"
        assert run("gen", "--kind", "product", "--a", gauss_file, "--b", other,
                   "-o", out) == 0
        f, g, p = load_signal(gauss_file), load_signal(other), load_signal(out)
        from qtfa import qmul
        assert np.allclose(p.data, qmul(f.data, g.data), atol=1e-14)

    def test_bad_kind_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "sawtooth", "-o", tmp_path / "x.qs2d")
        assert exc.value.code == 2

    def test_bad_alpha_exits_2(self, tmp_path):
        assert run("gen", "--kind", "gaussian", "--alpha", -1, "--n", 8,
                   "--extent", 4, "-o", tmp_path / "x.qs2d") == 2

    def test_impulse_without_at_exits_2(self, tmp_path):
        assert run("gen", "--kind", "impulse", "--n", 8, "--extent", 4,
                   "-o", tmp_path / "x.qs2d") == 2

    def test_amplitude(self, tmp_path):
        path = tmp_path / "f.qs2d"
        assert run("gen", "--kind", "gaussian", "--amplitude", "0.8,0.3,0,0.1", "--n", 8,
                   "--extent", 4, "-o", path) == 0
        f = load_signal(path)
        assert np.allclose(f.data / f.data[..., :1], [1.0, 0.375, 0.0, 0.125])

    @pytest.mark.parametrize("text, message", [("1,2,3", "expected 'q0,q1,q2,q3'"),
                                               ("1,2,x,4", "unparsable quaternion")])
    def test_bad_amplitude_exits_2(self, tmp_path, capsys, text, message):
        out = tmp_path / "x.qs2d"
        assert run("gen", "--kind", "gaussian", "--amplitude", text, "-o", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [(), ("--a", "f.qs2d"), ("--b", "f.qs2d")])
    def test_product_without_both_factors_exits_2(self, tmp_path, capsys, flags):
        assert run("gen", "--kind", "product", *flags, "-o", tmp_path / "x.qs2d") == 2
        assert "needs --a and --b" in capsys.readouterr().err

    @pytest.mark.parametrize("at", ["3", "3,x", "1,2,3"])
    def test_unparsable_impulse_cell_exits_2(self, tmp_path, capsys, at):
        assert run("gen", "--kind", "impulse", "--at", at, "-o", tmp_path / "x.qs2d") == 2
        assert "unparsable impulse cell" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (("--alpha", "inf"), "alpha must be positive and finite, got inf"),  # exit 0
        (("--alpha", "nan"), "alpha must be positive and finite, got nan"),
        (("--amplitude", "nan,0,0,0"), "amplitude must be finite, got [nan, 0.0, 0.0, 0.0]"),
    ])
    def test_a_non_finite_gaussian_exits_2_naming_the_value(self, tmp_path, capsys, flags,
                                                            named):
        # an infinite alpha wrote an all-zero signal; a nan named neither flag
        out = tmp_path / "x.qs2d"
        assert run("gen", "--kind", "gaussian", *flags, "--n", 8, "-o", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (("--extent", "1e300"), "alpha 1 on extents (1e+300, 1e+300) is 0 at every sample"),
        (("--alpha", "1e300"), "alpha 1e+300 on extents (8, 8) is 0 at every sample"),
    ])
    def test_an_all_zero_gaussian_exits_2_naming_alpha_and_the_extent(self, tmp_path, capsys,
                                                                      flags, named):
        # both wrote an all-zero signal with exit 0, the first after a
        # RuntimeWarning from the squared coordinates
        out = tmp_path / "x.qs2d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("gen", "--kind", "gaussian", *flags, "--n", 8, "-o", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    def test_a_gaussian_with_underflowed_tails_is_written(self, tmp_path):
        # exp(-1000 |x|^2) is 0 off the four central samples of a 16-point grid
        out = tmp_path / "x.qs2d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("gen", "--kind", "gaussian", "--alpha", 1000, "--n", 16, "--extent", 8,
                       "-o", out) == 0
        envelope = load_signal(out).data[..., 0]
        assert np.count_nonzero(envelope) == 4 and envelope[8, 8] > 0

    @pytest.mark.parametrize("flags, named", [
        (("--n", 0), "got 0"),                  # divided by before any check: exit 1
        (("--n2", 0), "got 0"),                 # taken as --n, exit 0
        (("--n2", 1), "got 1"),
        (("--extent2", 0), "got 0.0"),          # taken as --extent, exit 0
        (("--extent", "inf"), "extent must be positive and finite, got inf"),
        (("--extent", "nan"), "extent must be positive and finite, got nan"),
        (("--extent", "1e308"), "extent 1e+308 is too large"),  # named the axis min
    ])
    def test_a_bad_grid_exits_2_naming_the_value(self, tmp_path, capsys, flags, named):
        out = tmp_path / "x.qs2d"
        assert run("gen", "--kind", "gaussian", *flags, "-o", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        # exit 1 means a gated check failed; nothing is allocated here
        def unallocatable(*args):
            raise MemoryError("Unable to allocate 1.19 TiB for an array")

        # with no MemAvailable to check against, the request reaches the allocator
        monkeypatch.setattr(grid, "_memory_budget", lambda: None)
        monkeypatch.setattr(cli, "gaussian_signal", unallocatable)
        out = tmp_path / "x.qs2d"
        assert run("gen", "--kind", "gaussian", "--n", 200000, "-o", out) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 1.19 TiB for an array\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags", [("gaussian", ()), ("chirp", ("--rate1", 0.5)),
                                             ("impulse", ("--at", "3,5"))])
    def test_over_budget_exits_2_before_it_allocates(self, tmp_path, monkeypatch, capsys,
                                                     kind, flags):
        # a 16 x 12 signal is 6144 bytes; the budget is one byte less
        def unreachable(*args):
            raise AssertionError("the signal was built")

        monkeypatch.setattr(grid, "_memory_budget", lambda: 6143)
        monkeypatch.setattr(cli, f"{kind}_signal", unreachable)
        out = tmp_path / "x.qs2d"
        assert run("gen", "--kind", kind, *flags, "--n", 16, "--n2", 12, "-o", out) == 2
        err = capsys.readouterr().err
        assert err == (f"error: a {kind} signal of shape (16, 12, 4) needs 6144 bytes, over "
                       "the memory budget of 6143 bytes (MemAvailable)\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags", [("gaussian", []),
                                             ("product", ["--a", "a.qs2d", "--b", "b.qs2d"])])
    @pytest.mark.parametrize("out, error", [
        ("f.qtf4", "error: unknown signal extension '.qtf4' (use .qs2d or .csv)"),
        ("f", "error: unknown signal extension ''"),
        ("missing/f.qs2d", "error: cannot write missing/f.qs2d: no directory missing"),
    ])
    def test_a_bad_output_path_exits_2_before_any_input(self, monkeypatch, tmp_path, capsys,
                                                         kind, flags, out, error):
        monkeypatch.setattr(cli, "load_signal", _must_not_run)
        monkeypatch.setattr(cli, "gaussian_signal", _must_not_run)
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--kind", kind, *flags, "-o", out) == 2
        _assert_one_error_line(capsys, error)
        assert list(tmp_path.iterdir()) == []

    def test_a_signal_of_exactly_the_budget_is_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(grid, "_memory_budget", lambda: 6144)
        out = tmp_path / "x.qs2d"
        assert run("gen", "--kind", "gaussian", "--n", 16, "--n2", 12, "-o", out) == 0
        assert load_signal(out).data.shape == (16, 12, 4)


class TestTransform:
    def test_qft(self, tmp_path, gauss_file):
        out = tmp_path / "F.qs2d"
        assert run("transform", "qft", "-i", gauss_file, "-o", out) == 0
        F = load_signal(out)
        assert F.ax1.step == pytest.approx(2 * np.pi / (16 * 1.0))

    def test_qolct_fourier_params(self, tmp_path, gauss_file):
        out = tmp_path / "F.qs2d"
        assert run("transform", "qolct", "--A1", "0,1,-1,0,0,0",
                   "--A2", "0,1,-1,0,0,0", "-i", gauss_file, "-o", out) == 0
        # constant-prefactor Fourier equivalence
        qft_out = tmp_path / "G.qs2d"
        run("transform", "qft", "-i", gauss_file, "-o", qft_out)
        from qtfa import qmul, unit_exp
        F, G = load_signal(out), load_signal(qft_out)
        c = 1 / np.sqrt(2 * np.pi)
        expect = qmul(c * unit_exp("i", -np.pi / 4),
                      qmul(G.data, c * unit_exp("j", -np.pi / 4)))
        assert np.max(np.abs(F.data - expect)) < 1e-9

    def test_qolct_modes_agree(self, tmp_path, gauss_file):
        o1, o2 = tmp_path / "a.qs2d", tmp_path / "b.qs2d"
        params = "0.6,0.5,-0.8,1.0,0.3,-0.2"
        assert run("transform", "qolct", "--A1", params, "--A2", params,
                   "--mode", "fast", "-i", gauss_file, "-o", o1) == 0
        assert run("transform", "qolct", "--A1", params, "--A2", params,
                   "--mode", "direct", "-i", gauss_file, "-o", o2) == 0
        assert np.max(np.abs(load_signal(o1).data - load_signal(o2).data)) < 1e-9

    def test_stqolct_writes_field(self, tmp_path, gauss_file):
        window = tmp_path / "w.qs2d"
        run("gen", "--kind", "gaussian", "--alpha", 2, "--n", 16, "--extent", 8,
            "-o", window)
        out = tmp_path / "S.qtf4"
        assert run("transform", "stqolct", "--A1", "1,1,0,1,0,0",
                   "--A2", "1,1,0,1,0,0", "--window", window, "--u-stride", 4,
                   "-i", gauss_file, "-o", out) == 0
        field = load_field(out)
        assert field.data.shape == (16, 16, 4, 4, 4)

    def test_stqolct_stride_leaving_one_translation_exits_2(self, tmp_path, gauss_file,
                                                            capsys):
        window = tmp_path / "w.qs2d"
        run("gen", "--kind", "gaussian", "--alpha", 2, "--n", 16, "--extent", 8,
            "-o", window)
        out = tmp_path / "S.qtf4"
        assert run("transform", "stqolct", "--A1", "1,1,0,1,0,0",
                   "--A2", "1,1,0,1,0,0", "--window", window, "--u-stride", 16,
                   "-i", gauss_file, "-o", out) == 2
        assert "stride 16" in capsys.readouterr().err
        assert not out.exists()

    def test_stqolct_energy_identity_via_files(self, tmp_path, gauss_file):
        from qtfa import l2_norm, stqolct_energy
        window = tmp_path / "w.qs2d"
        run("gen", "--kind", "gaussian", "--alpha", 2, "--n", 16, "--extent", 8,
            "-o", window)
        out = tmp_path / "S.qtf4"
        assert run("transform", "stqolct", "--A1", "1,1,0,1,0.2,-0.4",
                   "--A2", "0.6,0.5,-0.8,1.0,0.3,-0.2", "--window", window,
                   "--u-stride", 1, "-i", gauss_file, "-o", out) == 0
        field = load_field(out)
        f, w = load_signal(gauss_file), load_signal(window)
        expect = l2_norm(w) ** 2 * l2_norm(f) ** 2
        assert stqolct_energy(field) == pytest.approx(expect, rel=1e-3)

    def test_stqolct_without_window_exits_2(self, tmp_path, gauss_file):
        assert run("transform", "stqolct", "--A1", "1,1,0,1,0,0",
                   "--A2", "1,1,0,1,0,0", "-i", gauss_file,
                   "-o", tmp_path / "S.qtf4") == 2

    def test_qolct_without_params_exits_2(self, tmp_path, gauss_file):
        assert run("transform", "qolct", "-i", gauss_file,
                   "-o", tmp_path / "F.qs2d") == 2

    def test_bad_magic_exits_2(self, tmp_path):
        bad = tmp_path / "bad.qs2d"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run("transform", "qft", "-i", bad, "-o", tmp_path / "o.qs2d") == 2

    def test_det_violation_exits_2(self, tmp_path, gauss_file):
        assert run("transform", "qolct", "--A1", "1,1,0,1.000001,0,0",
                   "--A2", "1,1,0,1,0,0", "-i", gauss_file,
                   "-o", tmp_path / "F.qs2d") == 2

    def test_stqolct_rejects_mode(self, tmp_path, gauss_file):
        window = tmp_path / "w.qs2d"
        run("gen", "--kind", "gaussian", "--alpha", 2, "--n", 16, "--extent", 8,
            "-o", window)
        out = tmp_path / "S.qtf4"
        assert run("transform", "stqolct", "--A1", "1,1,0,1,0,0", "--A2", "1,1,0,1,0,0",
                   "--window", window, "--u-stride", 4, "--mode", "direct",
                   "-i", gauss_file, "-o", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("transform, params", [
        ("qft", ["--route", "direct"]),
        ("qolct", ["--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0", "--route", "direct"]),
        # every other flag the transform does not read is rejected as well
        ("qft", ["--window", "nonexistent.qs2d", "--A1", "bogus", "--u-stride", "3"]),
        ("qft", ["--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0"]),
        ("qolct", ["--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0",
                   "--window", "nonexistent.qs2d"]),
        ("qolct", ["--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0", "--u-stride", "1"]),
    ])
    def test_qft_and_qolct_reject_route(self, tmp_path, gauss_file, transform, params):
        out = tmp_path / "F.qs2d"
        assert run("transform", transform, *params, "-i", gauss_file, "-o", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("transform, flags, out, error", [
        # the n = 64 field, 537 MB, used to be built before its extension was read
        ("stqolct", ["--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0", "--window", "w.qs2d"],
         "S.qs2d", "error: unknown field extension '.qs2d' (use .qtf4)"),
        ("stqolct", ["--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0", "--window", "w.qs2d"],
         "missing/S.qtf4", "error: cannot write missing/S.qtf4: no directory missing"),
        ("qft", [], "F.qtf4", "error: unknown signal extension '.qtf4'"),
        ("qolct", ["--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0"], "F.txt",
         "error: unknown signal extension '.txt'"),
    ])
    def test_a_bad_output_path_exits_2_before_the_input_is_loaded(
            self, monkeypatch, tmp_path, capsys, transform, flags, out, error):
        monkeypatch.setattr(cli, "load_signal", _must_not_run)
        monkeypatch.setattr(cli, "stqolct_forward", _must_not_run)
        monkeypatch.chdir(tmp_path)
        assert run("transform", transform, *flags, "-i", "f.qs2d", "-o", out) == 2
        _assert_one_error_line(capsys, error)
        assert list(tmp_path.iterdir()) == []

    def test_a_csv_signal_meets_a_qs2d_window_on_its_grid(self, tmp_path):
        # at n = 30 and extent 7.3 the mean of the CSV's coordinate steps is
        # an ulp off the step, and these used to exit 3
        grid_flags = ("--n", 30, "--extent", 7.3)
        f, w = tmp_path / "f.csv", tmp_path / "w.qs2d"
        assert run("gen", "--kind", "chirp", "--rate1", 0.2, *grid_flags, "-o", f) == 0
        assert run("gen", "--kind", "gaussian", "--alpha", 2, *grid_flags, "-o", w) == 0
        assert load_signal(f).ax1 == load_signal(w).ax1
        assert run("transform", "stqolct", "--A1", "0,1,-1,0,0,0", "--A2", "0,1,-1,0,0,0",
                   "-i", f, "--window", w, "--u-stride", 5, "-o", tmp_path / "S.qtf4") == 0
        assert run("gen", "--kind", "product", "--a", f, "--b", w,
                   "-o", tmp_path / "p.qs2d") == 0

    def test_a_csv_over_the_budget_exits_2_naming_the_file(self, tmp_path, monkeypatch,
                                                           capsys):
        f = tmp_path / "f.csv"
        assert run("gen", "--kind", "gaussian", "--n", 16, "-o", f) == 0
        need = fileio._CSV_LOAD_FACTOR * f.stat().st_size
        monkeypatch.setattr(grid, "_memory_budget", lambda: need - 1)
        out = tmp_path / "F.qs2d"
        assert run("transform", "qft", "-i", f, "-o", out) == 2
        assert capsys.readouterr().err == (
            f"error: {f}: loading the CSV file needs {need} bytes, over the memory budget "
            f"of {need - 1} bytes (MemAvailable)\n")
        assert not out.exists()
        monkeypatch.setattr(grid, "_memory_budget", lambda: need)
        assert run("transform", "qft", "-i", f, "-o", out) == 0

    @pytest.mark.parametrize("transform, flags", [
        ("qft", ()), ("qolct", ("--A1", "0,1,-1,0,0,0", "--A2", "1,1,0,1,0.2,-0.4"))])
    def test_a_fast_transform_over_the_budget_exits_2_before_it_runs(
            self, tmp_path, gauss_file, monkeypatch, capsys, transform, flags):
        # the load needs the input's bytes, the transform twice them
        need = 2 * load_signal(gauss_file).data.nbytes
        monkeypatch.setattr(grid, "_memory_budget", lambda: need - 1)
        out = tmp_path / "F.qs2d"
        assert run("transform", transform, *flags, "-i", gauss_file, "-o", out) == 2
        assert capsys.readouterr().err == (
            f"error: transform {transform} of {gauss_file} needs {need} bytes, over the "
            f"memory budget of {need - 1} bytes (MemAvailable)\n")
        assert not out.exists()
        monkeypatch.setattr(grid, "_memory_budget", lambda: need)
        assert run("transform", transform, *flags, "-i", gauss_file, "-o", out) == 0

    def test_shape_mismatch_exits_3(self, tmp_path, gauss_file):
        window = tmp_path / "w.qs2d"
        run("gen", "--kind", "gaussian", "--alpha", 2, "--n", 8, "--extent", 8,
            "-o", window)
        assert run("transform", "stqolct", "--A1", "1,1,0,1,0,0",
                   "--A2", "1,1,0,1,0,0", "--window", window,
                   "-i", gauss_file, "-o", tmp_path / "S.qtf4") == 3


class TestVerify:
    def test_small_run_exit_0(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "n": 16,
            "param_sets": [{"name": "shear", "A1": [1, 1, 0, 1, 0.2, -0.4],
                            "A2": [1, 1, 0, 1, 0.2, -0.4]}],
        }))
        assert run("verify", "--config", config, "--out", report) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) >= 20
        out = capsys.readouterr().out
        assert "gated failures" in out

    def test_verdict_line_counts_checks_and_gated_records(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        assert run("verify", "--n", "16", "--out", report) == 0
        verdict = capsys.readouterr().out.splitlines()[-1]
        # the default corpus's check count does not depend on n, so the
        # README's verdict is this run's
        count = _readme_check_count()
        assert verdict == f"{count} checks, 0 gated failures -> report {report}"
        names = [json.loads(line)["name"] for line in report.read_text().splitlines()]
        assert len(names) == int(count)
        # the form the benchmark's verify-corpus workload parses
        parsed = re.search(r"(\d+) checks, (\d+) gated failures", verdict)
        assert parsed.groups() == (count, "0")

    @pytest.mark.parametrize("quoted, value", [
        (r"at (\d+) times its size", fileio._CSV_LOAD_FACTOR),
        (r"from (\d+) MiB up", stqolct._SPARE_BYTES / 2**20),
        (r"min\(n, (\d+)\)", verify._MOYAL_N),
    ])
    def test_readme_quotes_the_constants(self, quoted, value):
        # README wraps its lines, so a quote may span one
        found = re.findall(quoted.replace(" ", r"\s+"), _readme())
        assert found and {float(v) for v in found} == {value}

    def test_only_filter(self, tmp_path):
        report = tmp_path / "report.jsonl"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "n": 16,
            "param_sets": [{"name": "shear", "A1": [1, 1, 0, 1, 0, 0],
                            "A2": [1, 1, 0, 1, 0, 0]}],
        }))
        assert run("verify", "--config", config, "--only", "donoho-stark",
                   "--out", report) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert records
        assert {r["name"] for r in records} == {"donoho-stark"}

    def test_det_violating_config_exits_2_before_compute(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "param_sets": [{"name": "bad", "A1": [1, 1, 0, 1.000001, 0, 0],
                            "A2": [1, 1, 0, 1, 0, 0]}],
        }))
        assert run("verify", "--config", config,
                   "--out", tmp_path / "r.jsonl") == 2

    def test_unknown_only_name_exits_2(self, tmp_path):
        report = tmp_path / "r.jsonl"
        assert run("verify", "--n", 16, "--only", "no-such-check",
                   "--out", report) == 2
        assert not report.exists()

    def test_a_retired_record_name_exits_2(self, monkeypatch, tmp_path, capsys):
        # hardy-field could not fail; its name is no longer a check
        monkeypatch.setattr("qtfa.verify.ThreadPoolExecutor",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        report = tmp_path / "r.jsonl"
        assert run("verify", "--n", 16, "--only", "hardy-field", "--out", report) == 2
        assert "unknown check names: ['hardy-field']" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("out", ["missing/r.jsonl", "."])
    def test_an_unwritable_report_path_exits_2_before_any_task(self, monkeypatch, tmp_path,
                                                               capsys, out):
        # the whole corpus used to run before the report failed to open
        monkeypatch.setattr("qtfa.cli.run_verification",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        monkeypatch.chdir(tmp_path)
        assert run("verify", "--out", out) == 2
        _assert_one_error_line(capsys, f"error: cannot write {out}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("only", ["", " , "])
    def test_empty_only_exits_2_before_any_task(self, monkeypatch, tmp_path, capsys, only):
        # an empty selection used to run every record and exit 0
        monkeypatch.setattr("qtfa.verify.ThreadPoolExecutor",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        report = tmp_path / "r.jsonl"
        assert run("verify", "--n", 16, "--only", only, "--out", report) == 2
        assert "names no checks" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("entry", [
        {"n": 32.9},                                    # an integer key, not integral
        {"n": "abc"},
        {"param_sets": [{"A1": [0, 1, -1, 0, 0], "A2": [0, 1, -1, 0, 0, 0]}]},
        {"seed": 1.5},
        {"n": 15},                                      # n must be even and at least 4
        {"n": 2},
        {"param_sets": {"A1": [0, 1, -1, 0, 0, 0], "A2": [0, 1, -1, 0, 0, 0]}},
        {"param_sets": []},
        {"param_sets": [{"A1": [0, 1, -1, 0, 0, 0]}]},  # a set needs both sextets
        {"param_sets": [{"A1": [0, 1, -1, 0, 0, "x"], "A2": [0, 1, -1, 0, 0, 0]}]},
        {"param_sets": [{"A1": [0, 1, -1, 0, 0, float("inf")],
                         "A2": [0, 1, -1, 0, 0, 0]}]},
        {"seed": True},                                 # a JSON true is not an integer
        {"param_sets": [{"name": "x", "A1": [0, 1, -1, 0, 0, 0], "A2": [0, 1, -1, 0, 0, 0]},
                        {"name": "x", "A1": [0, -1, 1, 0, 0, 0],
                         "A2": [0, -1, 1, 0, 0, 0]}]},  # set names must differ
        {"seed": -1},                                   # default_rng takes no negative seed
    ])
    def test_mistyped_config_exits_2_before_any_task(self, monkeypatch, tmp_path, entry):
        monkeypatch.setattr("qtfa.cli.run_verification",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(entry))
        report = tmp_path / "r.jsonl"
        assert run("verify", "--config", config, "--out", report) == 2
        assert not report.exists()

    @pytest.mark.parametrize("key", ["extent", "window_alpha", "gaussian_alphas", "chirp",
                                     "eps", "pitt_alphas", "hardy_alphas", "hardy_radius",
                                     "hardy_n", "oracle_n", "oracle_trials"])
    def test_removed_config_key_exits_2_before_any_task(self, monkeypatch, tmp_path,
                                                         capsys, key):
        # the corpus constants of verify used to be config keys
        monkeypatch.setattr("qtfa.cli.run_verification",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 16, key: 1}))
        report = tmp_path / "r.jsonl"
        assert run("verify", "--config", config, "--out", report) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not report.exists()

    def test_extent_flag_exits_2_before_any_task(self, monkeypatch, tmp_path):
        monkeypatch.setattr("qtfa.cli.run_verification",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        report = tmp_path / "r.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            run("verify", "--n", 16, "--extent", 4, "--out", report)
        assert exit_info.value.code == 2
        assert not report.exists()

    def test_over_budget_dense_fields_exit_2_before_any_task(self, monkeypatch, tmp_path,
                                                             capsys):
        # n = 128 used to work for 31 s before a field's own check fired
        monkeypatch.setattr("qtfa.verify.ThreadPoolExecutor",
                            lambda *args, **kwargs: pytest.fail("a task ran"))
        monkeypatch.setattr(grid, "_memory_budget", lambda: 8 << 30)
        monkeypatch.setenv("QTF_THREADS", "2")
        report = tmp_path / "r.jsonl"
        assert run("verify", "--n", 128, "--out", report) == 2
        assert capsys.readouterr().err == (
            "error: holding the dense fields of 2 concurrent verify tasks at n = 128 needs "
            f"{2 * 32 * 128**4} bytes, over the memory budget of {8 << 30} bytes (MemAvailable)\n")
        assert not report.exists()

    @pytest.mark.parametrize("content", [None, "[1, 2]"])
    def test_an_unreadable_or_non_object_config_exits_2(self, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        if content is not None:
            config.write_text(content)
        assert run("verify", "--config", config, "--out", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert ("cannot read config" if content is None else "must be a JSON object") in err

    def test_malformed_json_exits_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert run("verify", "--config", config,
                   "--out", tmp_path / "r.jsonl") == 2


class TestReport:
    def test_pretty_print(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "n": 16,
            "param_sets": [{"name": "shear", "A1": [1, 1, 0, 1, 0, 0],
                            "A2": [1, 1, 0, 1, 0, 0]}],
        }))
        run("verify", "--config", config, "--only", "quat-table,pitt-constant-zero",
            "--out", report)
        capsys.readouterr()
        assert run("report", report) == 0
        out = capsys.readouterr().out
        assert "quat-table" in out and "name" in out

    def test_malformed_line_exits_2_at_its_offset(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        good = json.dumps({"name": "quat-table", "lhs": 0.0, "rhs": 0.0, "margin": 0.0,
                           "tolerance": 0.0, "pass": True}) + "\n"
        for bad in ("{not json\n", "[1, 2]\n",
                    # a numeric field present but not a JSON number
                    '{"name": "x", "lhs": "abc"}\n', '{"name": "x", "rhs": null}\n',
                    '{"name": "x", "margin": true}\n', '{"name": "x", "tolerance": {}}\n',
                    # a name that is not a string, a pass that is not a boolean
                    '{"name": 5, "lhs": 0.0}\n', '{"name": null}\n',
                    '{"name": "x", "pass": "false"}\n', '{"name": "x", "pass": 0}\n'):
            report.write_text(good + "\n" + bad + good)
            assert run("report", report) == 2
            assert "byte offset" in capsys.readouterr().err
            with pytest.raises(FormatError) as exc:
                load_report(report)
            assert exc.value.offset == len(good) + 1
