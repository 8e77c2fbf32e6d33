import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from oscsync import (
    BathParams,
    ConfigError,
    DissipationCoefficients,
    DomainError,
    InitialStateSpec,
    MomentState,
    ObservableSeries,
    OscSyncError,
    SweepGrid,
    SystemParams,
    build_generator,
    default_grid,
    diagonalize,
    dissipation_coefficients,
    dynamical_eigenvalues,
    gaussian_discord,
    information_series,
    lab_frame,
    lab_variance_series,
    make_initial,
    mutual_information,
    run_sweep,
    sample_trajectory,
    to_lab_covariance,
    windowed_correlation,
    write_sweep_csv,
    write_sweep_sidecar,
)
from oscsync import sweep as sweep_mod

SQ = InitialStateSpec.separable_squeezed(2.0, 4.0)


def _tiny_grid(omega2=(1.4,), lam=(0.7,), metrics=sweep_mod.METRICS, **bath_kw):
    return SweepGrid(
        omega2_values=omega2,
        lambda_values=lam,
        system=SystemParams(),
        bath=BathParams(**bath_kw),
        metrics=metrics,
    )


def _close(got, want, tol=1e-9):
    # relative, absolute below 1
    return abs(got - want) <= tol * max(1.0, abs(want))


class TestGrid:
    def test_default_axes(self):
        grid = default_grid()
        assert grid.omega2_values[0] == 1.0
        assert grid.omega2_values[-1] == 1.5
        assert len(grid.omega2_values) == 21
        assert grid.lambda_values[0] == 0.05
        assert grid.lambda_values[-1] == 0.9
        assert len(grid.lambda_values) == 35
        assert grid.t_eval == 300.0

    def test_metric_validation(self):
        with pytest.raises(DomainError):
            _tiny_grid(metrics=("syncAbs", "bogus"))
        with pytest.raises(DomainError):
            SweepGrid(
                omega2_values=(1.4,),
                lambda_values=(0.7,),
                system=SystemParams(),
                bath=BathParams(),
                t_eval=0.0,
            )

    @pytest.mark.parametrize(
        "omega2, lam", [((math.nan,), (0.7,)), ((1.4,), (0.3, math.inf))]
    )
    def test_non_finite_axis_rejected(self, omega2, lam):
        with pytest.raises(DomainError, match="finite"):
            _tiny_grid(omega2=omega2, lam=lam)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestStackedSetUp:
    # (omega2, lambda): resonance, no coupling, the default point, strong
    POINTS = ((1.0, 0.3), (1.2, 0.0), (1.4, 0.7), (1.45, 1.2))

    @pytest.mark.parametrize("topology", ["common", "separate"])
    @pytest.mark.parametrize("backend", ["full", "rwa"])
    @pytest.mark.parametrize("initial", ["vacuum", "tms:1.5", "sq:2:4"])
    def test_stack_equals_each_point_alone(self, topology, backend, initial):
        bath = BathParams(topology=topology)
        spec = InitialStateSpec.parse(initial)
        stack = SystemParams(1.0, *(np.array(v) for v in zip(*self.POINTS)))
        basis = diagonalize(stack)
        coeffs = dissipation_coefficients(stack, bath, basis)
        gen = build_generator(basis, coeffs, backend)
        state = make_initial(spec, stack, basis)
        rotation, scale = lab_frame(basis, stack)
        for j, (omega2, lam) in enumerate(self.POINTS):
            sys_p = SystemParams(1.0, omega2, lam)
            alone = diagonalize(sys_p)
            for name in (f.name for f in fields(alone)):
                assert _same_bits(getattr(basis, name)[j], getattr(alone, name))
            c = dissipation_coefficients(sys_p, bath, alone)
            assert _same_bits(coeffs.gamma_tilde[j], c.gamma_tilde)
            assert _same_bits(coeffs.d_tilde[j], c.d_tilde)
            g = build_generator(alone, c, backend)
            for name in ("M", "N", "A1"):
                assert _same_bits(getattr(gen, name)[j], getattr(g, name))
            s0 = make_initial(spec, sys_p, alone)
            assert _same_bits(state.second_moments[j], s0.second_moments)
            assert _same_bits(state.first_moments[j], s0.first_moments)
            frame = lab_frame(alone, sys_p)
            assert _same_bits(rotation[j], frame[0]) and _same_bits(scale[j], frame[1])

    def test_stacked_rwa_error_names_first_offending_point(self):
        # point 1 fails on its plus mode and point 2 on its minus mode
        stack = SystemParams(1.0, np.array([1.1, 1.2, 1.3]), np.array([0.3, 0.4, 0.5]))
        basis = diagonalize(stack)
        drive = np.array([[2.0, 2.0], [2.0, 0.5], [0.5, 2.0]]) * 0.01 * basis.frequencies
        coeffs = DissipationCoefficients(
            gamma_tilde=np.broadcast_to(0.01 * np.eye(2), (3, 2, 2)),
            d_tilde=drive[..., None] * np.eye(2),
        )
        with pytest.raises(ConfigError) as stacked:
            build_generator(basis, coeffs, "rwa")
        alone = diagonalize(SystemParams(1.0, 1.2, 0.4))
        with pytest.raises(ConfigError) as single:
            build_generator(
                alone, DissipationCoefficients(coeffs.gamma_tilde[1], coeffs.d_tilde[1]), "rwa"
            )
        assert "mode +" in str(single.value)
        assert str(stacked.value) == str(single.value)

    def test_stack_with_one_invalid_point_raises(self):
        with pytest.raises(DomainError, match="coupling"):
            SystemParams(1.0, np.array([1.2, 1.3]), np.array([0.5, 1.4]))
        with pytest.raises(DomainError, match="positive"):
            SystemParams(1.0, np.array([1.2, -1.3]), 0.0)
        # |lambda| < omega1*omega2 holds, but Omega-^2 rounds to zero
        stack = SystemParams(1.0, 1.1, np.array([0.5, np.nextafter(1.1, 0)]))
        with pytest.raises(DomainError) as exc:
            diagonalize(stack)
        assert str(exc.value) == "potential not attractive: Omega-^2 = 0.0 <= 0"


class TestRunSweep:
    def test_single_cell_matches_direct_computation(self):
        grid = _tiny_grid()
        res = run_sweep(grid, SQ)
        assert len(res.cells) == 1
        cell = res.cells[0]
        assert cell.status == "ok"

        sys_p = SystemParams(1.0, 1.4, 0.7)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(sys_p, BathParams(), basis)
        gen = build_generator(basis, coeffs)
        state = make_initial(SQ, sys_p, basis)
        traj = sample_trajectory(gen, state, 315.0, 0.1)
        x1, x2 = lab_variance_series(traj, basis, sys_p)
        sync = windowed_correlation(
            ObservableSeries(traj.times, x1),
            ObservableSeries(traj.times, x2),
            15.0,
        )
        k = int(round(300.0 / 0.1))
        info = information_series(traj, basis, sys_p)
        mu = dynamical_eigenvalues(gen)

        # the cell jumps to t_eval by a matrix power of the per-step
        # exponential instead of stepping there, so round-off differs
        assert _close(cell.sync_abs, abs(sync.C[k]))
        assert _close(cell.discord, info["discord"][k])
        assert _close(cell.mutual_info, info["mutualInfo"][k])
        assert cell.eig_ratio == mu.ratio

    @pytest.mark.parametrize("topology", ["common", "separate"])
    def test_window_path_matches_full_trajectory(self, topology):
        omega2s, lams = (1.0, 1.3), (0.3, 0.6, 0.825)
        grid = _tiny_grid(omega2=omega2s, lam=lams, topology=topology)
        res = run_sweep(grid, SQ)
        k = int(round(grid.t_eval / 0.1))
        for cell in res.cells:
            assert cell.status == "ok"
            sys_p = SystemParams(1.0, cell.omega2, cell.lam)
            basis = diagonalize(sys_p)
            coeffs = dissipation_coefficients(sys_p, grid.bath, basis)
            gen = build_generator(basis, coeffs)
            state = make_initial(SQ, sys_p, basis)
            traj = sample_trajectory(gen, state, grid.t_eval + 15.0, 0.1)
            x1, x2 = lab_variance_series(traj, basis, sys_p)
            sync = windowed_correlation(
                ObservableSeries(traj.times, x1),
                ObservableSeries(traj.times, x2),
                15.0,
            )
            cov = to_lab_covariance(
                MomentState(traj.first_moments[k], traj.second_moments[k]),
                basis,
                sys_p,
            )
            # The exact-resonance cell keeps an undamped mode under the
            # common bath, and its discord and mutual information are
            # ill-conditioned there (measured 1.3e-8 and 2.5e-8 nats).
            resonant = cell.omega2 == 1.0 and topology == "common"
            tol = 1e-7 if resonant else 1e-9
            pairs = [
                (cell.sync_abs, abs(sync.C[k])),
                (cell.discord, gaussian_discord(cov)),
                (cell.mutual_info, mutual_information(cov)),
            ]
            assert all(_close(got, want, tol) for got, want in pairs)
            assert cell.eig_ratio == dynamical_eigenvalues(gen).ratio

    def test_failed_cell_leaves_its_row_alone(self, monkeypatch):
        # the middle cell's first window sample is made unphysical; it alone
        # is an error, and its neighbours keep the bits of a row without it
        full = run_sweep(_tiny_grid(lam=(0.3, 0.7)), SQ)
        real = sweep_mod.sample_moments

        def shrink_middle(gen, initial, *args, **kwargs):
            first, second = real(gen, initial, *args, **kwargs)
            second[1, 0] *= 0.01
            return first, second

        monkeypatch.setattr(sweep_mod, "sample_moments", shrink_middle)
        res = run_sweep(_tiny_grid(lam=(0.3, 0.5, 0.7)), SQ)
        assert [c.status for c in res.cells] == ["ok", "error", "ok"]
        assert res.cells[0] == full.cells[0] and res.cells[2] == full.cells[1]

        sys_p = SystemParams(1.0, 1.4, 0.5)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(sys_p, BathParams(), basis)
        gen = build_generator(basis, coeffs)
        first, second = real(gen, make_initial(SQ, sys_p, basis), 0.1, 1, k_start=3000)
        cov = to_lab_covariance(MomentState(first[0], 0.01 * second[0]), basis, sys_p)
        with pytest.raises(OscSyncError) as exc:
            gaussian_discord(cov)
        assert res.cells[1].message == str(exc.value)
        assert "uncertainty bound" in res.cells[1].message

    def test_non_finite_window_leaves_its_row_alone(self, monkeypatch):
        # the middle cell's window holds an infinite moment after its first
        # sample; it alone is an error, with the message its series would
        # raise on its own, and its neighbours keep the bits of a row
        # without it
        full = run_sweep(_tiny_grid(lam=(0.3, 0.7)), SQ)
        real = sweep_mod.sample_moments

        def blow_up_middle(gen, initial, *args, **kwargs):
            first, second = real(gen, initial, *args, **kwargs)
            second[1, 5, 0] = np.inf
            return first, second

        monkeypatch.setattr(sweep_mod, "sample_moments", blow_up_middle)
        res = run_sweep(_tiny_grid(lam=(0.3, 0.5, 0.7)), SQ)
        assert [c.status for c in res.cells] == ["ok", "error", "ok"]
        assert res.cells[0] == full.cells[0] and res.cells[2] == full.cells[1]
        with pytest.raises(DomainError) as exc:
            ObservableSeries(np.arange(3.0), [0.0, np.inf, 1.0])
        assert res.cells[1].message == str(exc.value)
        assert math.isnan(res.cells[1].eig_ratio)

    def test_overflowing_bath_fails_every_cell(self):
        with pytest.warns(UserWarning, match="weak-coupling"):
            grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.7), gamma=1e200)
        res = run_sweep(grid, SQ)
        assert [c.status for c in res.cells] == ["error"] * 4
        assert {c.message for c in res.cells} == {"observable values must be finite"}

    def test_set_up_error_keeps_its_message(self):
        grid = _tiny_grid(omega2=(1.1,), lam=(0.5, np.nextafter(1.1, 0)))
        res = run_sweep(grid, SQ)
        assert [c.status for c in res.cells] == ["ok", "error"]
        assert res.cells[1].message == "potential not attractive: Omega-^2 = 0.0 <= 0"
        alone = run_sweep(_tiny_grid(omega2=(1.1,), lam=(0.5,)), SQ)
        assert res.cells[0] == alone.cells[0]

    def test_one_kernel_call_per_row(self, monkeypatch):
        calls = {}

        def counted(name):
            real = getattr(sweep_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            return wrapper

        names = (
            "dissipation_coefficients",
            "build_generator",
            "make_initial",
            "sample_moments",
            "windowed_correlation",
            "gaussian_measures",
            "dynamical_eigenvalues",
        )
        for name in names:
            monkeypatch.setattr(sweep_mod, name, counted(name))
        # 2 rows of 3 cells; lambda = 1.2 is skipped at omega2 = 1.1
        res = run_sweep(_tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.7, 1.2)), SQ)
        assert [c.status for c in res.cells].count("ok") == 5
        assert calls == dict(zip(names, (2, 2, 2, 2, 2, 2, 5)))

    def test_row_major_cell_order(self):
        grid = _tiny_grid(omega2=(1.1, 1.3), lam=(0.2, 0.5), metrics=("eigRatio",))
        res = run_sweep(grid, SQ)
        keys = [(c.omega2, c.lam) for c in res.cells]
        assert keys == [(1.1, 0.2), (1.1, 0.5), (1.3, 0.2), (1.3, 0.5)]
        ratio = res.metric_map("eigRatio")
        assert ratio.shape == (2, 2)
        assert ratio[1, 0] == res.cells[2].eig_ratio

    def test_infeasible_cell_skipped(self):
        grid = _tiny_grid(omega2=(1.1,), lam=(0.5, 1.2))
        res = run_sweep(grid, SQ)
        by_lam = {c.lam: c for c in res.cells}
        assert by_lam[0.5].status == "ok"
        bad = by_lam[1.2]
        assert bad.status == "skipped"
        assert math.isnan(bad.sync_abs) and math.isnan(bad.eig_ratio)
        assert "lam" in bad.message or "coupling" in bad.message

    def test_eig_ratio_only_skips_trajectory(self):
        grid = _tiny_grid(metrics=("eigRatio",))
        res = run_sweep(grid, SQ)
        cell = res.cells[0]
        assert math.isfinite(cell.eig_ratio)
        assert math.isnan(cell.sync_abs)
        assert math.isnan(cell.discord)

    def test_topology_override_changes_result(self):
        grid = _tiny_grid(metrics=("eigRatio",))
        common = run_sweep(grid, SQ)
        separate = run_sweep(grid, SQ, topology="separate")
        assert separate.cells[0].eig_ratio > common.cells[0].eig_ratio
        assert separate.provenance["bath"] == "separate"
        assert common.provenance["bath"] == "common"

    def test_step_and_window_validation(self):
        grid = _tiny_grid()
        with pytest.raises(DomainError):
            run_sweep(grid, SQ, dt_out=0.0)
        with pytest.raises(DomainError):
            run_sweep(grid, SQ, window=-1.0)

    def test_cell_error_is_captured(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OscSyncError("injected failure")

        monkeypatch.setattr(sweep_mod, "dissipation_coefficients", boom)
        grid = _tiny_grid(metrics=("eigRatio",))
        res = run_sweep(grid, SQ)
        cell = res.cells[0]
        assert cell.status == "error"
        assert "injected failure" in cell.message
        assert math.isnan(cell.eig_ratio)


class TestSweepIO:
    @pytest.fixture()
    def small_result(self):
        grid = _tiny_grid(omega2=(1.1,), lam=(0.3, 1.5), metrics=("eigRatio",))
        return run_sweep(grid, SQ)

    def test_csv_layout_and_nan_blanks(self, small_result, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header == [
            "omega2",
            "lambda",
            "syncAbs",
            "discord",
            "mutualInfo",
            "eigRatio",
            "status",
        ]
        ok_row = lines[2].split(",")
        # 17 significant digits, enough to round-trip any double exactly
        assert ok_row[0] == "1.1000000000000001"
        assert ok_row[1] == "0.29999999999999999"
        assert ok_row[2] == "" and ok_row[5] != ""
        assert float(ok_row[5]) == small_result.cells[0].eig_ratio
        skip_row = lines[3].split(",")
        assert skip_row[-1] == "skipped"
        assert skip_row[2] == skip_row[3] == skip_row[4] == skip_row[5] == ""

    def test_csv_deterministic(self, small_result, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(small_result, p1)
        write_sweep_csv(small_result, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_contents(self, small_result, tmp_path):
        path = tmp_path / "sweep_manifest.json"
        write_sweep_sidecar(small_result, path)
        doc = json.loads(path.read_text())
        assert doc["omega2_values"] == [1.1]
        assert doc["lambda_values"] == [0.3, 1.5]
        assert doc["t_eval"] == 300.0
        assert doc["metrics"] == ["eigRatio"]
        assert doc["initial"]["kind"] == "sq"
        assert "version" in doc
        assert doc["t_eval_effective"] == 300.0
        assert doc["window_effective"] == 15.0
        assert doc["flagged_cells"] == [
            {
                "omega2": 1.1,
                "lambda": 1.5,
                "status": "skipped",
                "message": small_result.cells[1].message,
            }
        ]

    def test_sidecar_reports_rounding_and_errors(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise OscSyncError("injected failure")

        monkeypatch.setattr(sweep_mod, "dissipation_coefficients", boom)
        grid = SweepGrid(
            omega2_values=(1.2,),
            lambda_values=(0.4,),
            system=SystemParams(),
            bath=BathParams(),
            t_eval=12.34,
        )
        res = run_sweep(grid, SQ, window=1.26)
        path = tmp_path / "sweep_manifest.json"
        write_sweep_sidecar(res, path)
        doc = json.loads(path.read_text())
        assert doc["t_eval_effective"] == 123 * 0.1
        assert doc["window_effective"] == 13 * 0.1
        assert doc["flagged_cells"] == [
            {
                "omega2": 1.2,
                "lambda": 0.4,
                "status": "error",
                "message": "injected failure",
            }
        ]
