import importlib
import inspect
import json
import math
import os

import numpy as np
import pytest

from oscsync import cli


def _run(argv):
    return cli.main([str(a) for a in argv])


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
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_omega2 = 1.4:1.4:0.1\nsweep_lambda = 0.3:0.7:0.4\n")
        out = tmp_path / "out"
        assert _run(["sweep", "--config", cfg, *flags, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window ")
        assert err.endswith(f"must span at least 10 sample spacings of {spacing}\n")
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
        assert cli._fmt_column([float("nan"), 1.0]) == ["", "1"]
        path = tmp_path / "t.csv"
        cli._write_csv(
            str(path),
            "units",
            ["a", "b"],
            [np.array([1.0, np.nan]), np.array([np.nan, 2.0])],
        )
        _, header, rows = _read_csv(path)
        assert rows == [["1", ""], ["", "2"]]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_benchmark_layers_are_exported_functions(self):
        # every `<layer>.<name>.calls` metric the benchmark declares names a
        # function that oscsync.<layer> defines and lists in __all__
        path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
        with open(path) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        calls = [n.split(".")[:2] for n in names if n.endswith(".calls")]
        assert calls
        for layer, name in calls:
            mod = importlib.import_module(f"oscsync.{layer}")
            fn = getattr(mod, name, None)
            assert name in mod.__all__, f"{layer}.{name}"
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name

    def test_out_dir_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        assert _run(["eigen", "--out", nested]) == 0
        assert (nested / "spectrum.json").exists()
