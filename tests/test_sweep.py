import json
import math
import os
from dataclasses import fields, replace

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
    lab_covariances,
    lab_variance_series,
    make_initial,
    mutual_information,
    run_point,
    run_sweep,
    sample_trajectory,
    to_lab_covariance,
    windowed_correlation,
    write_sweep_csv,
    write_sweep_sidecar,
)
from oscsync import dynamics
from oscsync import sweep as sweep_mod

from conftest import STACK_POINTS

SQ = InitialStateSpec("sq", r1=2.0, r2=4.0)


def _tiny_grid(
    omega2=(1.4,), lam=(0.7,), metrics=sweep_mod.METRICS, backend="full", **bath_kw
):
    return SweepGrid(
        omega2_values=omega2,
        lambda_values=lam,
        system=SystemParams(),
        bath=BathParams(**bath_kw),
        metrics=metrics,
        backend=backend,
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
        for t_eval in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="t_eval must be positive"):
                SweepGrid(
                    omega2_values=(1.4,),
                    lambda_values=(0.7,),
                    system=SystemParams(),
                    bath=BathParams(),
                    t_eval=t_eval,
                )

    @pytest.mark.parametrize("metrics", [(), ("eigRatio", "eigRatio")])
    def test_empty_or_repeated_metrics_rejected(self, metrics):
        # a sweep that computes nothing, or one metric twice, is a settings error
        with pytest.raises(DomainError, match="one or more distinct sweep metrics"):
            _tiny_grid(metrics=metrics)
        with pytest.raises(DomainError, match="one or more distinct sweep metrics"):
            default_grid(metrics=metrics)

    @pytest.mark.parametrize(
        "omega2, lam", [((math.nan,), (0.7,)), ((1.4,), (0.3, math.inf))]
    )
    def test_non_finite_axis_rejected(self, omega2, lam):
        with pytest.raises(DomainError, match="finite"):
            _tiny_grid(omega2=omega2, lam=lam)

    def test_overflowing_axis_rejected_with_the_point_message(self):
        # Omega+^2 of omega2 = 1e200 overflows: the grid is rejected as the
        # point itself is, not measured as a cell with Omega-^2 = nan
        with pytest.raises(DomainError) as alone:
            SystemParams(1.0, 1e200, 0.3)
        with pytest.raises(DomainError) as grid:
            _tiny_grid(omega2=(1.2, 1e200), lam=(0.3,))
        assert str(grid.value) == str(alone.value)
        assert str(grid.value).endswith("Omega+^2 overflows float64")

    def test_overflowing_coupling_of_a_skipped_cell_is_accepted(self):
        # |lambda| >= omega1 omega2 skips the cell, so its overflowing mode
        # frequencies are never read, and raise no floating-point warning
        grid = _tiny_grid(omega2=(1.2,), lam=(0.3, 1e308), metrics=("eigRatio",))
        res = run_sweep(grid, SQ)
        assert res.status.tolist() == ["ok", "skipped"]


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _assert_same_cells(got, want, cells=slice(None)):
    # two sweeps' columns agree over `cells`, the metrics bit for bit (NaN too)
    for name in sweep_mod.METRICS:
        assert _same_bits(got.values[name][cells], want.values[name][cells]), name
    for name in ("omega2", "lam", "status", "message"):
        np.testing.assert_array_equal(getattr(got, name)[cells], getattr(want, name)[cells])


def _generator(system):
    # the generator of one point at the default bath
    basis = diagonalize(system)
    return build_generator(basis, dissipation_coefficients(system, BathParams(), basis))


def _assert_same_sweep(got, want):
    _assert_same_cells(got, want)
    assert got.provenance == want.provenance


class TestStackedSetUp:
    POINTS = STACK_POINTS

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
        sigma = lab_covariances(state.second_moments, basis, stack)
        for j, (omega2, lam) in enumerate(self.POINTS):
            sys_p = SystemParams(1.0, omega2, lam)
            alone = diagonalize(sys_p)
            for name in (f.name for f in fields(alone)):
                assert _same_bits(getattr(basis, name)[j], getattr(alone, name))
            c = dissipation_coefficients(sys_p, bath, alone)
            assert _same_bits(coeffs.gamma_tilde[j], c.gamma_tilde)
            assert _same_bits(coeffs.d_tilde[j], c.d_tilde)
            g = build_generator(alone, c, backend)
            for got, want in zip(dynamics._lift(gen), dynamics._lift(g)):
                assert _same_bits(got[j], want)
            s0 = make_initial(spec, sys_p, alone)
            assert _same_bits(state.second_moments[j], s0.second_moments)
            cov = to_lab_covariance(s0, alone, sys_p)
            assert _same_bits(sigma[j], cov.sigma)

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
        assert res.status.tolist() == ["ok"]
        cell = {name: v[0] for name, v in res.values.items()}

        sys_p = SystemParams(1.0, 1.4, 0.7)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(sys_p, BathParams(), basis)
        gen = build_generator(basis, coeffs)
        state = make_initial(SQ, sys_p, basis)
        traj = sample_trajectory(gen, state, 0.1, 3151)
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
        assert _close(cell["syncAbs"], abs(sync.C[k]))
        assert _close(cell["discord"], info["discord"][k])
        assert _close(cell["mutualInfo"], info["mutualInfo"][k])
        assert cell["eigRatio"] == mu.ratio

    @pytest.mark.parametrize(
        "topology, backend",
        [("common", "full"), ("separate", "full"), ("common", "rwa"), ("separate", "rwa")],
        ids=["common", "separate", "common-rwa", "separate-rwa"],
    )
    def test_window_path_matches_full_trajectory(self, topology, backend):
        omega2s, lams = (1.0, 1.3), (0.3, 0.6, 0.825)
        grid = _tiny_grid(omega2=omega2s, lam=lams, topology=topology, backend=backend)
        res = run_sweep(grid, SQ)
        k = int(round(grid.t_eval / 0.1))
        assert res.status.tolist() == ["ok"] * 6
        for j, (omega2, lam) in enumerate(zip(res.omega2, res.lam)):
            cell = {name: v[j] for name, v in res.values.items()}
            sys_p = SystemParams(1.0, omega2, lam)
            basis = diagonalize(sys_p)
            coeffs = dissipation_coefficients(sys_p, grid.bath, basis)
            gen = build_generator(basis, coeffs, backend=backend)
            state = make_initial(SQ, sys_p, basis)
            traj = sample_trajectory(gen, state, 0.1, k + 151)
            x1, x2 = lab_variance_series(traj, basis, sys_p)
            sync = windowed_correlation(
                ObservableSeries(traj.times, x1),
                ObservableSeries(traj.times, x2),
                15.0,
            )
            cov = to_lab_covariance(
                MomentState(traj.second_moments[k]),
                basis,
                sys_p,
            )
            # The exact-resonance cell keeps an undamped mode under the
            # common bath, and its discord and mutual information are
            # ill-conditioned there (measured 1.3e-8 and 2.5e-8 nats).
            resonant = omega2 == 1.0 and topology == "common"
            tol = 1e-7 if resonant else 1e-9
            pairs = [
                (cell["syncAbs"], abs(sync.C[k])),
                (cell["discord"], gaussian_discord(cov)),
                (cell["mutualInfo"], mutual_information(cov)),
            ]
            assert all(_close(got, want, tol) for got, want in pairs)
            assert cell["eigRatio"] == dynamical_eigenvalues(gen).ratio

    # 2 rows of 3 cells, one block at the default budget; (1.4, 0.5) is the
    # fifth cell of the stack
    TWO_ROWS = dict(omega2=(1.1, 1.4), lam=(0.3, 0.5, 0.7))

    def test_failed_cell_leaves_its_row_alone(self, monkeypatch):
        # the cell's first window sample is made unphysical; it alone is an
        # error, and every other cell of the block, in its row or the
        # other, keeps its bits
        full = run_sweep(_tiny_grid(**self.TWO_ROWS), SQ)
        real = sweep_mod.sample_trajectory

        def shrink_middle(gen, initial, *args, **kwargs):
            traj = real(gen, initial, *args, **kwargs)
            traj.second_moments[4, 0] *= 0.01
            return traj

        monkeypatch.setattr(sweep_mod, "sample_trajectory", shrink_middle)
        res = run_sweep(_tiny_grid(**self.TWO_ROWS), SQ)
        assert res.status.tolist() == ["ok"] * 4 + ["error", "ok"]
        _assert_same_cells(res, full, [0, 1, 2, 3, 5])

        sys_p = SystemParams(1.0, 1.4, 0.5)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(sys_p, BathParams(), basis)
        gen = build_generator(basis, coeffs)
        at = real(gen, make_initial(SQ, sys_p, basis), 0.1, 1, k_start=3000)
        cov = to_lab_covariance(
            MomentState(0.01 * at.second_moments[0]), basis, sys_p
        )
        with pytest.raises(OscSyncError) as exc:
            gaussian_discord(cov)
        assert res.message[4] == str(exc.value)
        assert "uncertainty bound" in res.message[4]

    def test_non_finite_window_leaves_its_row_alone(self, monkeypatch):
        # the cell's window holds an infinite moment after its first
        # sample; it alone is an error, with the message its series would
        # raise on its own, and every other cell of the block keeps its bits
        full = run_sweep(_tiny_grid(**self.TWO_ROWS), SQ)
        real = sweep_mod.sample_trajectory

        def blow_up_middle(gen, initial, *args, **kwargs):
            traj = real(gen, initial, *args, **kwargs)
            traj.second_moments[4, 5, 0] = np.inf
            return traj

        monkeypatch.setattr(sweep_mod, "sample_trajectory", blow_up_middle)
        res = run_sweep(_tiny_grid(**self.TWO_ROWS), SQ)
        assert res.status.tolist() == ["ok"] * 4 + ["error", "ok"]
        _assert_same_cells(res, full, [0, 1, 2, 3, 5])
        with pytest.raises(DomainError) as exc:
            ObservableSeries(np.arange(3.0), [0.0, np.inf, 1.0])
        assert res.message[4] == str(exc.value)
        assert math.isnan(res.values["eigRatio"][4])

    def test_non_finite_drift_fails_its_cell_alone(self, monkeypatch):
        # the block's spectrum is one call; the cell whose drift is not
        # finite is masked out of it and fails with the message its
        # spectrum raises on its own, and every other cell keeps its bits
        full = run_sweep(_tiny_grid(**self.TWO_ROWS), SQ)
        real = sweep_mod.build_generator
        drifts = []

        def poison_middle(*args, **kwargs):
            gen = real(*args, **kwargs)
            gen.A[4, 1, 1] = np.nan
            drifts.append(gen)
            return gen

        monkeypatch.setattr(sweep_mod, "build_generator", poison_middle)
        res = run_sweep(_tiny_grid(**self.TWO_ROWS), SQ)
        assert res.status.tolist() == ["ok"] * 4 + ["error", "ok"]
        _assert_same_cells(res, full, [0, 1, 2, 3, 5])
        gen = drifts[0]
        with pytest.raises(OscSyncError) as exc:
            dynamical_eigenvalues(replace(gen, A=gen.A[4]))
        assert res.message[4] == str(exc.value)
        assert math.isnan(res.values["discord"][4])

    def test_overflowing_bath_fails_every_cell(self):
        with pytest.warns(UserWarning, match="weak-coupling"):
            grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.7), gamma=1e200)
        res = run_sweep(grid, SQ)
        assert res.status.tolist() == ["error"] * 4
        assert set(res.message) == {"observable values must be finite"}

    def test_set_up_error_keeps_its_message(self):
        grid = _tiny_grid(omega2=(1.1,), lam=(0.5, np.nextafter(1.1, 0)))
        res = run_sweep(grid, SQ)
        assert res.status.tolist() == ["ok", "error"]
        assert res.message[1] == "potential not attractive: Omega-^2 = 0.0 <= 0"
        alone = run_sweep(_tiny_grid(omega2=(1.1,), lam=(0.5,)), SQ)
        _assert_same_cells(res, alone, [0])

    def test_cells_not_ok_are_blank_in_every_metric(self, monkeypatch):
        # row 1.1: ok, ok, not attractive, skipped; row 1.4: ok, unphysical
        # (made so below), ok, ok.  The unphysical cell's block computes
        # its indicator and spectrum, yet the cell is NaN in every column.
        grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.5, np.nextafter(1.1, 0), 1.2))
        real_sample, real_pipeline = sweep_mod.sample_trajectory, sweep_mod._pipeline
        real_spectrum = sweep_mod.dynamical_eigenvalues
        runs, spectra = [], []

        def shrink_fourth(gen, initial, *args, **kwargs):
            traj = real_sample(gen, initial, *args, **kwargs)
            traj.second_moments[3, 0] *= 0.01
            return traj

        def recorded(*args):
            runs.append(real_pipeline(*args))
            return runs[-1]

        def recorded_spectrum(gen):
            spectra.append(real_spectrum(gen))
            return spectra[-1]

        monkeypatch.setattr(sweep_mod, "sample_trajectory", shrink_fourth)
        monkeypatch.setattr(sweep_mod, "_pipeline", recorded)
        monkeypatch.setattr(sweep_mod, "dynamical_eigenvalues", recorded_spectrum)
        res = run_sweep(grid, SQ)
        statuses = ["ok", "ok", "error", "skipped", "ok", "error", "ok", "ok"]
        assert res.status.tolist() == statuses
        assert res.message[2] == "potential not attractive: Omega-^2 = 0.0 <= 0"
        assert "uncertainty bound" in res.message[5]
        # one block; of its six cells only the fourth failed
        [(run, _)], [spectrum] = runs, spectra
        assert run.measures.failed_samples() == [3]
        assert np.isfinite(run.sync.C[3, 0]) and np.isfinite(spectrum.ratio[3])
        for name in sweep_mod.METRICS:
            assert (np.isnan(res.values[name]) == (res.status != "ok")).all(), name

    def test_one_kernel_call_per_block(self, monkeypatch):
        # a stack's set-up, spectrum and measures are one call each; its
        # sampling, lab variances and indicator one call per chunk
        calls = {}

        def counted(name):
            real = getattr(sweep_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            return wrapper

        per_stack = (
            "diagonalize",
            "dissipation_coefficients",
            "build_generator",
            "make_initial",
            "dynamical_eigenvalues",
            "lab_covariances",
            "gaussian_measures",
        )
        per_chunk = ("sample_trajectory", "lab_variance_series", "windowed_correlation")
        for name in per_stack + per_chunk:
            monkeypatch.setattr(sweep_mod, name, counted(name))
        # 2 rows of 3 cells; lambda = 1.2 is skipped at omega2 = 1.1
        grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.7, 1.2))
        res = run_sweep(grid, SQ)
        assert res.status.tolist().count("ok") == 5
        assert calls == dict.fromkeys(per_stack + per_chunk, 1)
        # a budget of one cell's window: one chunk per live cell, in one
        # stack of 151 * 88 // 1024 = 12 cells
        calls.clear()
        monkeypatch.setattr(sweep_mod, "_BLOCK_SAMPLES", 151)
        _assert_same_sweep(run_sweep(grid, SQ), res)
        assert calls == {**dict.fromkeys(per_stack, 1), **dict.fromkeys(per_chunk, 5)}

    def test_cells_do_not_depend_on_blocking(self, monkeypatch):
        # row 1.1: ok, ok, not attractive, skipped; row 1.4: ok, unphysical
        # (made so below), ok, ok.  Six live cells of 151 window samples.
        grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.5, np.nextafter(1.1, 0), 1.2))
        real_sample = sweep_mod.sample_trajectory
        target = _generator(SystemParams(1.0, 1.4, 0.5)).A

        def shrink_target(gen, initial, *args, **kwargs):
            traj = real_sample(gen, initial, *args, **kwargs)
            traj.second_moments[(gen.A == target).all(axis=(1, 2)), 0] *= 0.01
            return traj

        monkeypatch.setattr(sweep_mod, "sample_trajectory", shrink_target)
        # chunks of one cell, two (row 1.1), three (splits row 1.4), four
        # (row 1.4), the whole grid, each budget's stack holding every cell
        runs = []
        for cells in (1, 2, 3, 4, 6):
            monkeypatch.setattr(sweep_mod, "_BLOCK_SAMPLES", cells * 151)
            runs.append(run_sweep(grid, SQ))
        statuses = ["ok", "ok", "error", "skipped", "ok", "error", "ok", "ok"]
        assert runs[0].status.tolist() == statuses
        assert "uncertainty bound" in runs[0].message[5]
        for run in runs[1:]:
            _assert_same_sweep(run, runs[0])

    @pytest.mark.parametrize(
        "stack, chunk, stacks, chunks",
        [
            (6, 6, [6], [6]),
            (6, 4, [6], [4, 2]),  # a chunk boundary inside the stack
            (4, 3, [4, 2], [3, 1, 2]),  # the unphysical cell: a stack's 2nd chunk
            (3, 2, [3, 3], [2, 1, 2, 1]),
            (2, 6, [2, 2, 2], [2, 2, 2]),  # a chunk is never more than a stack
            (1, 1, [1] * 6, [1] * 6),
        ],
    )
    def test_stacks_and_chunks_are_independent(
        self, stack, chunk, stacks, chunks, monkeypatch
    ):
        # the live cells of test_cells_do_not_depend_on_blocking, with the
        # fourth, (1.4, 0.5), unphysical and the sixth, (1.4, 1.2), not
        # finite inside its window; the sample budget sets the chunk and the
        # generator bytes the stack, each apart from the other
        grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.5, np.nextafter(1.1, 0), 1.2))
        real_sample, real_build = sweep_mod.sample_trajectory, sweep_mod.build_generator
        shrink = _generator(SystemParams(1.0, 1.4, 0.5)).A
        blow_up = _generator(SystemParams(1.0, 1.4, 1.2)).A
        stacks_seen, chunks_seen = [], []

        def sample(gen, initial, *args, **kwargs):
            traj = real_sample(gen, initial, *args, **kwargs)
            chunks_seen.append(len(gen.A))
            traj.second_moments[(gen.A == shrink).all(axis=(1, 2)), 0] *= 0.01
            traj.second_moments[(gen.A == blow_up).all(axis=(1, 2)), 5, 0] = np.inf
            return traj

        def build(*args, **kwargs):
            gen = real_build(*args, **kwargs)
            stacks_seen.append(len(gen.A))
            return gen

        monkeypatch.setattr(sweep_mod, "sample_trajectory", sample)
        monkeypatch.setattr(sweep_mod, "build_generator", build)
        whole = run_sweep(grid, SQ)
        statuses = ["ok", "ok", "error", "skipped", "ok", "error", "ok", "error"]
        assert whole.status.tolist() == statuses
        assert "uncertainty bound" in whole.message[5]
        assert whole.message[7] == "observable values must be finite"

        budget = chunk * 151
        monkeypatch.setattr(sweep_mod, "_BLOCK_SAMPLES", budget)
        monkeypatch.setattr(
            sweep_mod, "_GENERATOR_BYTES", budget * sweep_mod._SAMPLE_BYTES // stack
        )
        stacks_seen.clear()
        chunks_seen.clear()
        _assert_same_sweep(run_sweep(grid, SQ), whole)
        assert (stacks_seen, chunks_seen) == (stacks, chunks)

    @pytest.mark.parametrize("window, budget", [(15.0, 301), (15.0, 453), (60.0, 500)])
    def test_block_budget_bounds_each_stack(self, window, budget, monkeypatch):
        # 301 is one sample short of two windows of 151, and 453 is three;
        # a window longer than the budget (601 > 500) gets one cell per stack
        real = sweep_mod.sample_trajectory
        sizes = []

        def sized(*args, **kwargs):
            traj = real(*args, **kwargs)
            sizes.append(math.prod(traj.second_moments.shape[:-1]))
            return traj

        grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.5, 0.7))
        alone = run_sweep(grid, SQ, window=window)
        monkeypatch.setattr(sweep_mod, "sample_trajectory", sized)
        monkeypatch.setattr(sweep_mod, "_BLOCK_SAMPLES", budget)
        res = run_sweep(grid, SQ, window=window)
        w = round(window / 0.1)
        assert sum(sizes) == 6 * (w + 1)
        assert max(sizes) <= max(budget, w + 1)
        _assert_same_sweep(res, alone)

    def test_eig_ratio_blocks_hold_generators(self, monkeypatch):
        # an eigRatio-only sweep samples nothing: a block holds as many
        # cells (1024 bytes each at its peak) as the window samples of a
        # sampled block take bytes (88 each), so the default map's 735
        # cells are one block, not the seven of 108 cells a sampled map uses
        real = sweep_mod.build_generator
        sizes = []

        def sized(*args, **kwargs):
            gen = real(*args, **kwargs)
            sizes.append(len(gen.A))
            return gen

        monkeypatch.setattr(sweep_mod, "build_generator", sized)
        run_sweep(default_grid(metrics=("eigRatio",)), SQ)
        assert sizes == [735]
        grid = _tiny_grid(omega2=(1.1, 1.4), lam=(0.3, 0.5, 0.7), metrics=("eigRatio",))
        sizes.clear()
        alone = run_sweep(grid, SQ)
        assert sizes == [6]
        # 26 samples take 2288 bytes: two cells
        sizes.clear()
        monkeypatch.setattr(sweep_mod, "_BLOCK_SAMPLES", 26)
        _assert_same_sweep(run_sweep(grid, SQ), alone)
        assert sizes == [2, 2, 2]

    def test_measures_only_sample_one_step(self, monkeypatch):
        # without syncAbs only the first window sample is read, so it alone
        # is propagated, and the measures keep their bits
        real = sweep_mod.sample_trajectory
        steps = []

        def recorded(gen, initial, dt_out, n, **kwargs):
            steps.append(n)
            return real(gen, initial, dt_out, n, **kwargs)

        monkeypatch.setattr(sweep_mod, "sample_trajectory", recorded)
        axes = dict(omega2=(1.1, 1.4), lam=(0.3, 0.5, 0.7))
        measures = run_sweep(_tiny_grid(**axes, metrics=("discord", "mutualInfo")), SQ)
        assert steps == [1]
        steps.clear()
        every = run_sweep(_tiny_grid(**axes), SQ)
        assert steps == [round(15.0 / 0.1) + 1]
        for name in ("discord", "mutualInfo"):
            assert measures.metric_map(name).tobytes() == every.metric_map(name).tobytes()

    def test_row_major_cell_order(self):
        grid = _tiny_grid(omega2=(1.1, 1.3), lam=(0.2, 0.5), metrics=("eigRatio",))
        res = run_sweep(grid, SQ)
        keys = list(zip(res.omega2.tolist(), res.lam.tolist()))
        assert keys == [(1.1, 0.2), (1.1, 0.5), (1.3, 0.2), (1.3, 0.5)]
        ratio = res.metric_map("eigRatio")
        assert ratio.shape == (2, 2)
        assert ratio[1, 0] == res.values["eigRatio"][2]

    def test_infeasible_cell_skipped(self):
        grid = _tiny_grid(omega2=(1.1,), lam=(0.5, 1.2))
        res = run_sweep(grid, SQ)
        assert res.lam.tolist() == [0.5, 1.2]
        assert res.status.tolist() == ["ok", "skipped"]
        assert math.isnan(res.values["syncAbs"][1]) and math.isnan(res.values["eigRatio"][1])
        assert "lam" in res.message[1] or "coupling" in res.message[1]

    def test_eig_ratio_only_skips_trajectory(self):
        grid = _tiny_grid(metrics=("eigRatio",))
        res = run_sweep(grid, SQ)
        assert math.isfinite(res.values["eigRatio"][0])
        assert math.isnan(res.values["syncAbs"][0])
        assert math.isnan(res.values["discord"][0])

    def test_topology_override_changes_result(self):
        grid = _tiny_grid(metrics=("eigRatio",))
        common = run_sweep(grid, SQ)
        separate = run_sweep(_tiny_grid(metrics=("eigRatio",), topology="separate"), SQ)
        assert separate.values["eigRatio"][0] > common.values["eigRatio"][0]
        assert separate.provenance["bath"] == "separate"
        assert common.provenance["bath"] == "common"

    def test_step_and_window_validation(self):
        grid = _tiny_grid()
        with pytest.raises(DomainError):
            run_sweep(grid, SQ, dt_out=0.0)
        with pytest.raises(DomainError):
            run_sweep(grid, SQ, window=-1.0)
        with pytest.raises(DomainError):
            run_sweep(grid, SQ, window=math.nan)
        with pytest.raises(DomainError):
            run_sweep(grid, SQ, dt_out=math.inf)

    @pytest.mark.parametrize(
        "t_max, dt_out",
        [(math.nan, 0.1), (-1.0, 0.1), (10.0, 0.0), (10.0, math.nan),
         (math.inf, 0.1), (1e308, 1e-300)],
    )
    def test_run_point_step_validation(self, t_max, dt_out):
        with pytest.raises(DomainError, match="need t_max >= 0 and dt_out > 0"):
            run_point(SystemParams(1.0, 1.4, 0.7), BathParams(), SQ, "full",
                      t_max, dt_out, 15.0)

    @pytest.mark.parametrize("window", [math.nan, math.inf])
    def test_run_point_non_finite_window(self, window):
        with pytest.raises(DomainError, match="must span a finite number of steps of dt_out"):
            run_point(SystemParams(1.0, 1.4, 0.7), BathParams(), SQ, "full",
                      20.0, 0.1, window)

    @pytest.mark.parametrize(
        "window, t_max, dt_out, match",
        [(1e308, 400.0, 0.001, "must span a finite number of steps of dt_out"),
         (30.0, 20.0, 0.1, "window longer than the series")],
    )
    def test_run_point_checks_the_window_before_sampling(
        self, window, t_max, dt_out, match, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the window was checked")

        monkeypatch.setattr(sweep_mod, "sample_trajectory", no_sampling)
        with pytest.raises(DomainError, match=match):
            run_point(SystemParams(1.0, 1.4, 0.7), BathParams(), SQ, "full",
                      t_max, dt_out, window)

    def test_cell_error_is_captured(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OscSyncError("injected failure")

        monkeypatch.setattr(sweep_mod, "dissipation_coefficients", boom)
        grid = _tiny_grid(metrics=("eigRatio",))
        res = run_sweep(grid, SQ)
        assert res.status.tolist() == ["error"]
        assert "injected failure" in res.message[0]
        assert math.isnan(res.values["eigRatio"][0])


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
        assert float(ok_row[5]) == small_result.values["eigRatio"][0]
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
        assert doc["backend"] == "full"
        assert "version" in doc
        assert doc["t_eval_effective"] == 300.0
        assert doc["window_effective"] == 15.0
        assert doc["flagged_cells"] == [
            {
                "omega2": 1.1,
                "lambda": 1.5,
                "status": "skipped",
                "message": small_result.message[1],
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
