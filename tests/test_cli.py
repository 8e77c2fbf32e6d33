import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oscsync import cli
from oscsync import sweep as sweep_mod
from oscsync.errors import DomainError
from oscsync.sweep import default_grid


def _run(argv):
    return cli.main([str(a) for a in argv])


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


_EDGES = [0.0, 5e-324, 1e-308, 1e300, 1.7e308, math.inf, math.nan]
_AXIS_VALUES = st.sampled_from(_EDGES + [-v for v in _EDGES]) | st.floats(-10.0, 10.0)


@st.composite
def _axis_text(draw):
    # a start:stop:step range of edge values, with at most about 64 points
    start, step = draw(_AXIS_VALUES), draw(_AXIS_VALUES)
    stop = draw(_AXIS_VALUES | st.integers(0, 3).map(lambda k: start + k * step))
    assume(not (step and (stop - start) / step > 64))
    return f"{start!r}:{stop!r}:{step!r}"


def _read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return comment, header, rows


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert _run(["simulate", "--t-max", 30, "--out", out]) == 0
    return out


class TestSimulate:
    def test_files_written(self, outdir):
        names = sorted(os.listdir(outdir))
        assert names == [
            "info.csv",
            "manifest.json",
            "sync.csv",
            "trajectory.csv",
        ]

    def test_trajectory_layout(self, outdir):
        comment, header, rows = _read_csv(outdir / "trajectory.csv")
        assert comment.startswith("#")
        assert header[0] == "t"
        assert header[-2:] == ["x1sq_sn", "x2sq_sn"]
        assert len(rows) == 301
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        assert float(first["x1sq_sn"]) == pytest.approx(math.exp(-4), rel=1e-12)
        assert float(first["x2sq_sn"]) == pytest.approx(math.exp(-8), rel=1e-12)

    @pytest.mark.parametrize("initial", ["tms:1.5", "sq:2:4"])
    def test_mean_columns_are_written_zeros(self, initial, tmp_path):
        # every supported state has zero means, which are not propagated
        argv = ["simulate", "--t-max", 30, "--initial", initial, "--out", tmp_path]
        assert _run(argv) == 0
        _, header, rows = _read_csv(tmp_path / "trajectory.csv")
        assert header == [
            "t",
            "xx_mm", "xx_pp", "xx_mp",
            "pp_mm", "pp_pp", "pp_mp",
            "xp_mm", "xp_pp", "xp_mp", "xp_pm",
            "mean_xm", "mean_pm", "mean_xp", "mean_pp",
            "x1sq_sn", "x2sq_sn",
        ]
        assert len(rows) == 301
        assert all(row[11:15] == ["0"] * 4 for row in rows)

    def test_info_and_sync_layout(self, outdir):
        _, header, rows = _read_csv(outdir / "info.csv")
        assert header == ["t", "mutualInfo", "discord", "logNegativity", "nuMin"]
        assert len(rows) == 301
        assert all(float(r[-1]) >= 1.0 - 1e-6 for r in rows)

        _, header, rows = _read_csv(outdir / "sync.csv")
        assert header == ["t", "C", "Csmooth"]
        # C[k] summarizes the window starting at t_k, so the series is
        # shorter than the trajectory by one window
        assert len(rows) == 301 - 150
        assert float(rows[0][0]) == 0.0
        assert rows[0][1] != ""

    def test_manifest_complete(self, outdir):
        doc = json.loads((outdir / "manifest.json").read_text())
        assert doc["parameters"]["omega2"] == 1.4
        assert doc["parameters"]["lambda"] == 0.7
        assert doc["parameters"]["initial"]["kind"] == "sq"
        nm = doc["normalModes"]
        assert nm["omegaMinus"] < nm["omegaPlus"]
        assert nm["kappaMinus"] ** 2 + nm["kappaPlus"] ** 2 == pytest.approx(
            2.0, rel=1e-12
        )
        assert len(doc["eigenvalues"]) == 10
        assert set(doc["eigenvalues"][0]) == {"re", "im"}
        assert doc["files"] == ["trajectory.csv", "info.csv", "sync.csv"]
        assert "simulate" in doc["command"]
        # the span the indicator used: sync.csv is that many steps shorter
        _, _, sync_rows = _read_csv(outdir / "sync.csv")
        assert doc["windowEffective"] == pytest.approx(
            (301 - len(sync_rows)) * 0.1, rel=1e-12
        )

    def test_rerun_is_byte_identical(self, outdir, tmp_path):
        second = tmp_path / "again"
        assert _run(["simulate", "--t-max", 30, "--out", second]) == 0
        for name in ("trajectory.csv", "info.csv", "sync.csv"):
            assert (outdir / name).read_bytes() == (second / name).read_bytes()

    def test_initial_flag_roundtrip(self, tmp_path):
        assert (
            _run(
                [
                    "simulate",
                    "--t-max",
                    30,
                    "--initial",
                    "tms:1.0",
                    "--out",
                    tmp_path,
                ]
            )
            == 0
        )
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["parameters"]["initial"] == {
            "kind": "tms",
            "r": 1.0,
            "r1": 0.0,
            "r2": 0.0,
        }


class TestPhysicalityBound:
    def test_transient_violation_writes_everything_then_exits_3(
        self, tmp_path, capsys
    ):
        # at dt_out = 0.01 the Redfield transient of the default run dips
        # below the uncertainty bound for t <= 0.08
        code = _run(["simulate", "--t-max", 20, "--dt-out", 0.01, "--out", tmp_path])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: symplectic eigenvalue")
        assert sorted(os.listdir(tmp_path)) == [
            "info.csv",
            "manifest.json",
            "sync.csv",
            "trajectory.csv",
        ]
        _, header, rows = _read_csv(tmp_path / "info.csv")
        assert len(rows) == 2001
        empty = [r for r in rows if r[1:4] == ["", "", ""]]
        assert all(r[4] != "" for r in rows)
        assert all("" not in r for r in rows if r not in empty)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        phys = doc["physicality"]
        assert phys["violatingSamples"] == len(empty) > 0
        assert phys["firstViolationTime"] == float(empty[0][0])
        assert phys["lastViolationTime"] == float(empty[-1][0])
        assert phys["lastViolationTime"] <= 0.2
        assert phys["minNu"] == min(float(r[4]) for r in rows) < 1.0 - 1e-6
        assert all(float(r[4]) >= 1.0 - 1e-6 for r in rows if r not in empty)

    def test_coarse_sampling_is_unchanged(self, tmp_path):
        # the same run at dt_out = 0.1 steps over the dip and succeeds
        code = _run(["simulate", "--t-max", 20, "--dt-out", 0.1, "--out", tmp_path])
        assert code == 0
        _, header, rows = _read_csv(tmp_path / "info.csv")
        assert len(rows) == 201 and all("" not in r for r in rows)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["physicality"]["violatingSamples"] == 0
        assert doc["physicality"]["firstViolationTime"] is None
        assert doc["physicality"]["minNu"] >= 1.0 - 1e-6


class TestValidation:
    def test_unstable_coupling_exits_2(self, capsys):
        code = _run(["simulate", "--lambda", 2.0, "--out", "/tmp/unused"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "lam" in err or "coupling" in err

    def test_large_detuning_is_not_attractive(self, capsys):
        # Omega-^2 = (w1^2 + w2^2 - root) / 2 rounds to 0 at omega2 = 1e150
        assert _run(["eigen", "--omega2", "1e150", "--out", "/tmp/unused"]) == 2
        assert capsys.readouterr().err == (
            "error: potential not attractive: Omega-^2 = 0.0 <= 0\n"
        )

    def test_bad_initial_exits_2(self, capsys):
        assert _run(["simulate", "--initial", "sq:1", "--out", "/tmp/x"]) == 2
        assert "initial" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega2 = 1.2\nbogus_key = 3\n")
        assert _run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega2 = 1.2  # overridden below\nt_max = 40\n")
        out = tmp_path / "out"
        assert (
            _run(
                ["simulate", "--config", cfg, "--omega2", 1.3, "--out", out]
            )
            == 0
        )
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["parameters"]["omega2"] == 1.3
        assert doc["parameters"]["t_max"] == 40.0

    @pytest.mark.parametrize(
        "line",
        [
            "sweep_lambda = nan:1:0.1",
            "sweep_omega2 = 1:inf:0.1",
            "sweep_lambda = 0.1:0.2:1e-300",
        ],
    )
    def test_unrangeable_sweep_axis_exits_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{line.split()[0]}'")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, name",
        [
            (["simulate", "--window", "nan"], "", "window"),
            (["simulate", "--t-max", "nan"], "", "t_max"),
            (["simulate", "--dt-out", "nan"], "", "dt_out"),
            (["sweep", "--window", "nan"], "", "window"),
            (["sweep"], "t_eval = nan\n", "t_eval"),
            (["compare-rwa", "--window", "inf"], "", "window"),
            (["eigen", "--gamma", "inf"], "", "gamma"),
            (["eigen", "--omega2", "inf"], "", "oscillator frequencies"),
            (["eigen", "--temperature", "inf"], "", "temperature"),
            # squares, their sum, or Omega+^2 beyond float64
            (["simulate", "--omega2", "1e200"], "", "oscillator frequencies"),
            (["eigen", "--omega2", "1e200"], "", "oscillator frequencies"),
            (["compare-rwa", "--omega2", "1e200"], "", "oscillator frequencies"),
            (["eigen"], "omega1 = 1e200\n", "oscillator frequencies"),
            (["eigen"], "omega1 = 1.3e154\nomega2 = 1.3e154\n", "oscillator frequencies"),
            (["sweep"], "omega1 = 9e153\nomega2 = 9e153\nlambda = 8e307\n",
             "oscillator frequencies"),
        ],
    )
    def test_non_finite_setting_exits_2(self, argv, config, name, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run([*argv, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be positive and finite, got ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("width", ["1e6", "1e300"])
    def test_filter_width_beyond_t_max_exits_2(self, width, tmp_path, capsys):
        # a kernel this wide would take minutes (1e6) or fail to allocate
        # (1e300), so the width is rejected before the run
        out = tmp_path / "out"
        start = time.monotonic()
        assert _run(["simulate", "--config", _config(tmp_path, f"filter_width = {width}\n"),
                     "--out", out]) == 2
        assert time.monotonic() - start < 10.0
        assert capsys.readouterr().err == (
            f"error: filter_width = {float(width):g} must not exceed t_max = 400\n"
        )
        assert not out.exists()

    def test_filter_width_equal_to_t_max_runs(self, tmp_path):
        cfg = _config(tmp_path, "filter_width = 20.0\n")
        assert _run(["simulate", "--config", cfg, "--t-max", 20, "--out", tmp_path]) == 0
        _, _, rows = _read_csv(tmp_path / "sync.csv")
        assert all(row[2] != "" for row in rows)

    def test_bad_bath_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath = foo\n")
        assert _run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "error: config key 'bath' needs 'common' or 'separate', got 'foo'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_overflowing_propagation_prints_one_line(self, tmp_path, capsys):
        # a floating-point warning would also fail the test: the pytest
        # configuration turns RuntimeWarning into an error
        argv = ["simulate", "--temperature", 1e305, "--t-max", 20]
        assert _run([*argv, "--out", tmp_path / "sim"]) == 2
        assert capsys.readouterr().err == "error: observable values must be finite\n"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_omega2 = 1.1:1.4:0.3\nsweep_lambda = 0.3:0.7:0.4\n")
        argv = ["sweep", "--config", cfg, "--temperature", 1e305]
        assert _run([*argv, "--out", tmp_path / "sweep"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["eigen", "simulate", "compare-rwa"])
    def test_huge_cutoff_runs(self, command, tmp_path, capsys):
        # cutoff**2 overflowed with an OverflowError traceback (exit 1); a
        # huge cutoff is the flat-spectrum limit and runs
        argv = [command, "--cutoff", 1e200, "--out", tmp_path]
        if command != "eigen":
            argv += ["--t-max", 20]
        assert _run(argv) == 0
        assert capsys.readouterr().err == ""
        if command == "eigen":
            doc = json.loads((tmp_path / "spectrum.json").read_text())
            assert doc["analyticRates"]["mixed"] == pytest.approx(0.01, rel=1e-15)

    def test_overdamping_bath_prints_no_warning(self, tmp_path, capsys):
        # gamma * cutoff**2 overflowed: eigen leaked a RuntimeWarning from
        # the moment matrix and exited 3, and every sweep cell failed in its
        # spectrum.  A RuntimeWarning would fail this test (see the pytest
        # configuration).
        with pytest.warns(UserWarning, match="weak-coupling"):
            assert _run(["eigen", "--gamma", 1e305, "--out", tmp_path / "e"]) == 0
        doc = json.loads((tmp_path / "e" / "spectrum.json").read_text())
        assert doc["analyticRates"]["mixed"] == pytest.approx(1e305, rel=1e-3)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep_omega2 = 1.1:1.4:0.3\nsweep_lambda = 0.3:0.7:0.4\n"
            "metrics = eigRatio\n"
        )
        argv = ["sweep", "--config", cfg, "--gamma", 1e305, "--out", tmp_path / "s"]
        with pytest.warns(UserWarning, match="weak-coupling"):
            assert _run(argv) == 0
        _, _, rows = _read_csv(tmp_path / "s" / "sweep.csv")
        assert [row[-1] for row in rows] == ["ok"] * 4
        assert capsys.readouterr().err == ""

    def test_damping_near_the_float_maximum_is_a_numerical_failure(
        self, tmp_path, capsys
    ):
        # kappa^2 gamma and the diffusion kernel overflowed with
        # RuntimeWarnings, which the pytest configuration raises.  The
        # drift is not finite: eigen fails in its spectrum, simulate in its
        # observables as any overflowing propagation does, and the sweep
        # records each cell's failure.
        argv = ["--gamma", 1.5e308, "--out"]
        with pytest.warns(UserWarning, match="weak-coupling"):
            assert _run(["eigen", *argv, tmp_path / "e"]) == 3
        assert capsys.readouterr().err == (
            "error: eigensolver failed: Array must not contain infs or NaNs\n"
        )
        with pytest.warns(UserWarning, match="weak-coupling"):
            assert _run(["simulate", "--t-max", 20, *argv, tmp_path / "s"]) == 2
        assert capsys.readouterr().err == "error: observable values must be finite\n"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_omega2 = 1.1:1.4:0.3\nsweep_lambda = 0.01:0.7:0.69\n")
        with pytest.warns(UserWarning, match="weak-coupling"):
            assert _run(["sweep", "--config", cfg, *argv, tmp_path / "w"]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "w" / "sweep_manifest.json").read_text())
        assert [c["message"] for c in doc["flagged_cells"]] == [
            "observable values must be finite",
            "eigensolver failed: Array must not contain infs or NaNs",
        ] * 2

    def test_tiny_temperature_prints_no_warning(self, tmp_path, capsys):
        # Omega / 2T overflowed with a RuntimeWarning, which the pytest
        # configuration raises
        assert _run(["eigen", "--temperature", 1e-320, "--out", tmp_path]) == 0
        assert capsys.readouterr().err == ""

    def test_huge_temperature_prints_no_warning(self, tmp_path):
        # a subprocess shows stderr as a user sees it: the branch test and
        # discriminant of the discord used to overflow here with six
        # RuntimeWarnings before the message
        out = tmp_path / "sim"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "oscsync.cli", "simulate", "--temperature", "1e40",
             "--t-max", "20", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 3
        assert done.stderr == (
            "error: covariance matrix is not positive definite, which violates"
            " the uncertainty bound at t = 0.1; 1 of 201 samples up to t = 0.1"
            f" have empty information measures in {out / 'info.csv'}\n"
        )

    @pytest.mark.parametrize("temperature", [1e35, 1e40])
    def test_huge_temperature_sweep_and_compare_rwa(self, temperature, tmp_path, capsys):
        # a RuntimeWarning would fail the test (see the pytest configuration)
        argv = ["sweep", "--temperature", temperature, "--out", tmp_path / "sweep"]
        assert _run(argv) == 0
        assert capsys.readouterr().err == ""
        out = tmp_path / "rwa"
        argv = ["compare-rwa", "--temperature", temperature, "--t-max", 20, "--out", out]
        assert _run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: covariance matrix is not positive definite")
        assert err.endswith(f"in {out / 'info_full.csv'}\n") and err.count("\n") == 1

    # Each setting's first large array is larger than the 128 TiB of a
    # 47-bit user address space, so it fails at allocation on any host
    # and nothing is touched.
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--t-max", 1e12],
            ["sweep", "--window", 1e11],
            ["sweep", "--dt-out", 1e-11],
        ],
    )
    def test_out_of_memory_settings_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not out.exists() or not os.listdir(out)

    # Each step count is too large for numpy to shape an array at all, which
    # it reports with a ValueError rather than a MemoryError.
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--t-max", 1e300],
            ["compare-rwa", "--t-max", 1e300],
            ["sweep", "--window", 1e300],
            ["sweep", "--dt-out", 1e-300],
        ],
    )
    def test_unshapeable_step_counts_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than one array can hold" in err
        assert not out.exists() or not os.listdir(out)


class TestEigen:
    def test_uncoupled_rates(self, tmp_path):
        assert (
            _run(["eigen", "--lambda", 0.0, "--out", tmp_path]) == 0
        )
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        res = [ev["re"] for ev in doc["eigenvalues"]]
        assert len(res) == 10
        assert all(abs(re + 0.01) <= 1e-3 for re in res)
        assert doc["zeroReCount"] == 0
        assert max(doc["rateDeviations"].values()) < 0.05

    def test_identical_oscillators_common_bath(self, tmp_path):
        assert (
            _run(["eigen", "--omega2", 1.0, "--lambda", 0.5, "--out", tmp_path])
            == 0
        )
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["zeroReCount"] == 3  # decoherence-free subspace
        # plus-sector moments decay at the full collective rate, mixed
        # minus/plus moments at half of it
        assert doc["ratio"] == pytest.approx(0.5, rel=1e-9)

    def test_detuned_ratio(self, tmp_path):
        assert _run(["eigen", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert 0.0 < doc["ratio"] < 0.2
        assert doc["dominantFrequency"] == pytest.approx(
            2 * 0.7945037437269664, rel=1e-3
        )


class TestSweepCommand:
    def test_default_axes_are_the_default_grid(self):
        # the CLI's range strings and default_grid's arange calls are two
        # spellings of one map
        cfg = cli.resolve_config(cli.build_parser().parse_args(["sweep"]))
        grid = default_grid()
        assert cfg.sweep_omega2 == grid.omega2_values
        assert cfg.sweep_lambda == grid.lambda_values
        assert len(grid.omega2_values) == 21 and len(grid.lambda_values) == 35

    def test_tiny_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep_omega2 = 1.0:1.1:0.05\n"
            "sweep_lambda = 0.2:0.4:0.2\n"
            "metrics = eigRatio\n"
        )
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 0
        _, header, rows = _read_csv(out / "sweep.csv")
        assert header[:2] == ["omega2", "lambda"]
        assert len(rows) == 3 * 2
        assert all(r[-1] == "ok" for r in rows)
        assert all(r[2] == "" for r in rows)  # syncAbs not requested
        doc = json.loads((out / "sweep_manifest.json").read_text())
        assert doc["metrics"] == ["eigRatio"]
        assert doc["omega2_values"] == [1.0, 1.05, 1.1]

    def test_backend_is_honoured_and_recorded(self, tmp_path):
        cfg = _config(tmp_path, "sweep_omega2 = 1.0:1.05:0.025\nsweep_lambda = 0.05:0.1:0.025\n")
        out = {}
        for backend in ("full", "rwa"):
            out[backend] = tmp_path / backend
            assert _run(["sweep", "--config", cfg, "--backend", backend,
                         "--out", out[backend]]) == 0
            doc = json.loads((out[backend] / "sweep_manifest.json").read_text())
            assert doc["backend"] == backend
        csv = {b: (path / "sweep.csv").read_bytes() for b, path in out.items()}
        assert csv["full"] != csv["rwa"]

    def test_t_eval_rounding_up_keeps_a_full_window(self, tmp_path):
        # t_eval = 0.26 rounds to the sample at 0.3, whose window
        # [0.3, 1.8] ends past t_eval + window = 1.76
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep_omega2 = 1.4:1.4:0.1\n"
            "sweep_lambda = 0.7:0.7:0.1\n"
            "t_eval = 0.26\n"
            "window = 1.5\n"
        )
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 0
        _, header, rows = _read_csv(out / "sweep.csv")
        cell = dict(zip(header, rows[0]))
        assert cell["status"] == "ok"
        assert math.isfinite(float(cell["syncAbs"]))
        doc = json.loads((out / "sweep_manifest.json").read_text())
        assert doc["t_eval_effective"] == pytest.approx(0.3, rel=1e-12)
        assert doc["flagged_cells"] == []

    @pytest.mark.parametrize(
        "flags, spacing", [(["--window", 0.5], "0.1"), (["--dt-out", 2], "2")]
    )
    def test_short_window_is_a_settings_error(self, flags, spacing, tmp_path, capsys):
        # the message names the window that was set, not the rounded one
        window = flags[1] if flags[0] == "--window" else 15.0
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_omega2 = 1.4:1.4:0.1\nsweep_lambda = 0.3:0.7:0.4\n")
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, *flags, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: window {window} must span at least 10 sample spacings"
            f" of {spacing}\n"
        )
        assert not out.exists()

    def test_short_window_without_sync_is_accepted(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep_omega2 = 1.4:1.4:0.1\nsweep_lambda = 0.3:0.7:0.4\n"
            "metrics = discord,eigRatio\n"
        )
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--dt-out", 2, "--out", out]) == 0
        doc = json.loads((out / "sweep_manifest.json").read_text())
        assert doc["window_effective"] == 16.0
        assert doc["flagged_cells"] == []


    @pytest.mark.parametrize("t_eval", ["1e300", "1e17", "6e5"])
    def test_unresolvable_t_eval_exits_2(self, t_eval, tmp_path, capsys):
        # floats near t_eval are coarser than dt_out (at 6e5, uneven to more
        # than 1e-9 of it), so the indicator's window has no uniform time
        # grid; an eigRatio-only sweep reads no window
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep_omega2 = 1.4:1.4:0.1\nsweep_lambda = 0.3:0.7:0.4\n"
            f"t_eval = {t_eval}\n"
        )
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: t_eval = {float(t_eval):g} is too large")
        assert err.count("\n") == 1 and "dt_out = 0.1" in err
        assert not out.exists()
        cfg.write_text(cfg.read_text() + "metrics = eigRatio\n")
        assert _run(["sweep", "--config", cfg, "--out", out]) == 0
        _, _, rows = _read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows] == ["ok", "ok"]

    def test_resolvable_large_t_eval_is_accepted(self, tmp_path):
        # floats near 9e15 still space steps of 1.0 uniformly
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep_omega2 = 1.4:1.4:0.1\nsweep_lambda = 0.3:0.7:0.4\n"
            "t_eval = 9e15\ndt_out = 1.0\n"
        )
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 0
        _, _, rows = _read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows] == ["ok", "ok"]

    @pytest.mark.parametrize(
        "line, listed",
        [("metrics =", "()"), ("metrics = eigRatio,eigRatio", "('eigRatio', 'eigRatio')")],
    )
    def test_empty_or_repeated_metrics_exit_2(self, line, listed, tmp_path, capsys):
        # a sweep that computes nothing, or one metric twice, writes nothing
        cfg = _config(tmp_path, line + "\n")
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: need one or more distinct sweep metrics, got {listed}\n"
        )
        assert not out.exists()

    def test_overflowing_axis_exits_2(self, tmp_path, capsys):
        # as simulate --omega2 1e200 does, with one line and no file
        cfg = _config(tmp_path, "sweep_omega2 = 1.2:1e200:1e200\nmetrics = eigRatio\n")
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: oscillator frequencies must be positive and finite, got"
            " omega1=1.0, omega2=1e+200: Omega+^2 overflows float64\n"
        )
        assert not out.exists()
        assert _run(["simulate", "--omega2", "1e200", "--out", tmp_path / "sim"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("omega2=1e+200: Omega+^2 overflows float64\n")

    def test_omega2_axis_near_the_float_maximum_exits_2(self, tmp_path, capsys):
        # decoding the axis raises no floating-point warning; the grid then
        # rejects the overflowing mode frequency as it does at 1e200
        cfg = _config(tmp_path, "sweep_omega2 = 1.2:1e308:1e308\nmetrics = eigRatio\n")
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: oscillator frequencies must be positive and finite, got"
            " omega1=1.0, omega2=1e+308: Omega+^2 overflows float64\n"
        )
        assert not out.exists()

    def test_lambda_axis_near_the_float_maximum_is_a_skipped_cell(self, tmp_path):
        cfg = _config(
            tmp_path,
            "sweep_omega2 = 1.2:1.2:0.1\nsweep_lambda = 0.3:1e308:1e308\nmetrics = eigRatio\n",
        )
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 0
        _, _, rows = _read_csv(out / "sweep.csv")
        assert [(r[1], r[-1]) for r in rows] == [
            ("0.29999999999999999", "ok"),
            ("1e+308", "skipped"),
        ]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(text=_axis_text())
    def test_axis_decodes_to_finite_values_or_one_line_error(self, text):
        # a RuntimeWarning fails the test too (filterwarnings in pyproject.toml)
        try:
            values = cli._parse_axis("sweep_lambda", text)
        except DomainError as exc:
            assert "\n" not in str(exc)
        else:
            assert isinstance(values, tuple)
            assert all(isinstance(v, float) and math.isfinite(v) for v in values)

    @pytest.mark.parametrize(
        "settings, setting",
        [
            ("metrics = eigRatio\nt_eval = 1e308\n", "t_eval = 1e+308"),
            ("metrics = discord\nwindow = 1e308\ndt_out = 0.01\n", "window = 1e+308"),
        ],
    )
    def test_step_count_overflow_exits_2(self, settings, setting, tmp_path, capsys):
        # the setting spans more steps of dt_out than a float can count
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_omega2 = 1.4:1.4:0.1\nsweep_lambda = 0.3:0.7:0.4\n" + settings)
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {setting} is too large")
        assert err.count("\n") == 1 and "dt_out" in err
        assert not out.exists()


class TestCompareRwa:
    def test_smoke(self, tmp_path):
        assert _run(["compare-rwa", "--t-max", 20, "--out", tmp_path]) == 0
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "compare_rwa.json",
            "info_full.csv",
            "info_rwa.csv",
            "sync_full.csv",
            "sync_rwa.csv",
        ]
        doc = json.loads((tmp_path / "compare_rwa.json").read_text())
        assert doc["maxAbsSyncDeviation"] < 0.05
        assert doc["maxRelSecondMomentDeviation"] < 0.05
        assert doc["maxRelDiscordDeviation"] >= 0.0
        _, _, sync_rows = _read_csv(tmp_path / "sync_full.csv")
        assert doc["windowEffective"] == pytest.approx(
            (201 - len(sync_rows)) * 0.1, rel=1e-12
        )
        for name in ("full", "rwa"):
            assert doc["physicality"][name]["violatingSamples"] == 0

    def test_transient_violation_writes_everything_then_exits_3(
        self, tmp_path, capsys
    ):
        # the full backend's Redfield transient dips below the uncertainty
        # bound for t <= 0.08 at dt_out = 0.01; the rwa backend does not
        code = _run(
            ["compare-rwa", "--t-max", 20, "--dt-out", 0.01, "--out", tmp_path]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: symplectic eigenvalue")
        assert "info_full.csv" in err
        assert sorted(os.listdir(tmp_path)) == [
            "compare_rwa.json",
            "info_full.csv",
            "info_rwa.csv",
            "sync_full.csv",
            "sync_rwa.csv",
        ]
        _, _, rows = _read_csv(tmp_path / "info_full.csv")
        assert len(rows) == 2001
        empty = [r[0] for r in rows if r[1:4] == ["", "", ""]]
        assert [float(t) for t in empty] == pytest.approx(
            [0.01 * k for k in range(1, 9)], rel=1e-12
        )
        assert all(r[4] != "" for r in rows)
        assert all("" not in r for r in rows if r[0] not in empty)
        _, _, rows = _read_csv(tmp_path / "info_rwa.csv")
        assert len(rows) == 2001 and all("" not in r for r in rows)
        doc = json.loads((tmp_path / "compare_rwa.json").read_text())
        phys = doc["physicality"]
        assert phys["full"]["violatingSamples"] == 8
        assert phys["full"]["minNu"] < 1.0 - 1e-6
        assert phys["rwa"]["violatingSamples"] == 0
        assert math.isfinite(doc["maxRelDiscordDeviation"])


class TestPlumbing:
    def test_nan_serializes_to_blank(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(
            str(path),
            "units",
            ["a", "b", "c"],
            [np.array([1.0, np.nan]), np.array([np.nan, -np.inf]), ["ok", "x"]],
        )
        assert path.read_text() == "# units\na,b,c\n1,,ok\n,-inf,x\n"
        # a str column is one field in every row, written as it is
        cli._write_csv(str(path), "units", ["a", "b"], [np.array([1.0, 2.0]), "5%"])
        assert path.read_text() == "# units\na,b\n1,5%\n2,5%\n"

    def test_csv_rows_match_per_value_format(self, tmp_path, monkeypatch):
        # the per-block template prints each value as format(v, ".17g")
        # does, across block boundaries
        monkeypatch.setattr(sweep_mod, "_CSV_BLOCK_ROWS", 7)
        rng = np.random.default_rng(5)
        columns = [
            rng.standard_normal(30) * 10.0 ** rng.integers(-300, 300, 30)
            for _ in range(3)
        ]
        columns[1][[0, 7, 29]] = np.nan
        columns[2][[3, 4]] = [0.0, -0.0]
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), "units", ["a", "b", "c"], columns)
        expected = "".join(
            ",".join("" if v != v else format(v, ".17g") for v in row) + "\n"
            for row in zip(*(c.tolist() for c in columns))
        )
        assert path.read_text() == "# units\na,b,c\n" + expected

    @pytest.mark.parametrize("with_nan", [False, True])
    def test_constant_and_formatted_columns_match_the_arrays(
        self, with_nan, tmp_path, monkeypatch
    ):
        # "0" for a zero column and _formatted(t) for t print the same bytes,
        # whether or not another column's NaN makes the blanking pass run
        monkeypatch.setattr(sweep_mod, "_CSV_BLOCK_ROWS", 7)
        rng = np.random.default_rng(7)
        t = 0.1 * np.arange(30)
        other = rng.standard_normal(30) * 10.0 ** rng.integers(-300, 300, 30)
        if with_nan:
            other[[2, 7, 29]] = np.nan
        written = {}
        for name, columns in [
            ("arrays", [t, np.zeros(30), other]),
            ("shared", [sweep_mod._formatted(t), "0", other]),
        ]:
            path = tmp_path / f"{name}.csv"
            cli._write_csv(str(path), "units", ["t", "mean", "x"], columns)
            written[name] = path.read_bytes()
        assert written["shared"] == written["arrays"]
        assert written["arrays"].count(b",\n") == (3 if with_nan else 0)

    def test_simulate_fields_are_their_values_at_17_digits(self, outdir):
        # each field prints its own value with 17 significant digits, and the
        # three files share one time column
        times = {}
        for name in ("trajectory.csv", "info.csv", "sync.csv"):
            _, _, rows = _read_csv(outdir / name)
            for row in rows:
                assert all(f == "" or f == format(float(f), ".17g") for f in row)
            times[name] = [row[0] for row in rows]
        assert times["info.csv"] == times["trajectory.csv"]
        n = len(times["sync.csv"])
        assert 0 < n < len(times["trajectory.csv"])
        assert times["sync.csv"] == times["trajectory.csv"][:n]

    def test_import_leaves_out_scipy_special_and_ndimage(self):
        # scipy.linalg (expm) is the only part of scipy the package loads
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys, oscsync.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.special', 'scipy.ndimage'))))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert done.stdout == "[]\n"
        assert done.stderr == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_benchmark_layers_are_exported_functions(self):
        # every `<layer>.<name>.calls` or `.self_s` metric the benchmark
        # declares names a function that oscsync.<layer> defines and lists
        # in __all__
        path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
        with open(path) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        traced = {
            tuple(n.split(".")[:2]) for n in names if n.endswith((".calls", ".self_s"))
        }
        assert traced
        for layer, name in sorted(traced):
            mod = importlib.import_module(f"oscsync.{layer}")
            fn = getattr(mod, name, None)
            assert name in mod.__all__, f"{layer}.{name}"
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name

    @pytest.mark.parametrize("layer", ["errors", "model", "dynamics", "info", "sync", "sweep"])
    def test_package_reexports_each_module_all(self, layer):
        # a module's __all__ is the one list of its public names
        import oscsync

        mod = importlib.import_module(f"oscsync.{layer}")
        assert len(oscsync.__all__) == len(set(oscsync.__all__))
        assert set(mod.__all__) <= set(oscsync.__all__)
        for name in mod.__all__:
            assert getattr(oscsync, name) is getattr(mod, name), name

    def test_out_dir_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        assert _run(["eigen", "--out", nested]) == 0
        assert (nested / "spectrum.json").exists()
