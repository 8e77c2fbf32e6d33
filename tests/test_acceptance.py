"""End-to-end acceptance gate.

Each test prints one ``CRITERION n: PASS/FAIL`` line with the measured
numbers before asserting, so a full-suite log doubles as a scorecard.

Separate-bath clauses are the complements of the common-bath ones: an
indicator locks when ``|C| >= LOCK`` (criteria 4 and 11), and a discord
plateau holds when ``d300/d150 >= PLATEAU`` (criterion 5).  With identical
separate baths every moment deviation decays at the same rate, so the
indicator keeps the undamped pair's beat level (~0.63 at criterion 4's
point) whatever the damping; "no synchronization" means "never locks".
Criteria 6 and 11 also assert that their clause rejects a broken
counterpart.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

import oscsync.sweep as sweep_mod
from oscsync import (
    BathParams,
    InitialStateSpec,
    ObservableSeries,
    SystemParams,
    build_generator,
    check_appendix_equivalence,
    default_grid,
    diagonalize,
    dissipation_coefficients,
    dynamical_eigenvalues,
    gaussian_discord,
    gaussian_smooth,
    log_negativity,
    make_initial,
    mutual_information,
    propagate_stepwise,
    run_point,
    run_sweep,
    rwa_rates,
    sample_moments,
    steady_state,
    symplectic_spectrum,
    to_lab_covariance,
)
from oscsync.info import CovarianceMatrix

SQ = InitialStateSpec.separable_squeezed(2.0, 4.0)
WINDOW = 15.0
DT_OUT = 0.1
LOCK = 0.90  # |C| at or above this counts as synchronized
PLATEAU = 0.5  # smoothed d300/d150 at or above this counts as a plateau


def _report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def _single_run(omega2, lam, topology, backend, t_max):
    # the run behind `oscsync simulate`, from the squeezed start
    sys_p = SystemParams(1.0, omega2, lam)
    run = run_point(
        sys_p, BathParams(topology=topology), SQ, backend, t_max, DT_OUT, WINDOW
    )
    # a sample below the uncertainty bound fails the run
    assert run.measures.failed_samples() == []
    return {
        "sys": sys_p,
        "basis": run.basis,
        "gen": run.gen,
        "traj": run.traj,
        "sync": run.sync,
        "info": run.measures.series,
    }


def _swapped_rates(*args):
    # negative control: each mode damps at the other mode's rate
    coeffs = dissipation_coefficients(*args)
    g = coeffs.gamma_tilde.copy()
    g[0, 0], g[1, 1] = g[1, 1], g[0, 0]
    return replace(coeffs, gamma_tilde=g)


@pytest.fixture(scope="module")
def onset_runs():
    """Criteria 4/5/8 share these: near-resonant pair, both topologies."""
    t0 = time.perf_counter()
    runs = {
        topo: _single_run(1.05, 0.3, topo, "full", 400.0)
        for topo in ("common", "separate")
    }
    runs["elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def backend_runs():
    """Criteria 6/8 share these: strong detuning, full vs secular backend."""
    t0 = time.perf_counter()
    runs = {
        backend: _single_run(1.4, 0.7, "common", backend, 315.0)
        for backend in ("full", "rwa")
    }
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_01_uncoupled_spectrum():
    t0 = time.perf_counter()
    res = []
    for topo in ("common", "separate"):
        sys_p = SystemParams(1.0, 1.4, 0.0)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(
            sys_p, BathParams(topology=topo), basis
        )
        mu = dynamical_eigenvalues(build_generator(basis, coeffs)).mu
        res.extend(mu.real.tolist())
    lo, hi = min(res), max(res)
    elapsed = time.perf_counter() - t0
    ok = -0.012 <= lo and hi <= -0.008 and elapsed < 1.0
    _report(
        1, ok, f"Re(mu) in [{lo:.6f}, {hi:.6f}] (gamma=0.01), {elapsed:.2f}s"
    )
    assert -0.012 <= lo
    assert hi <= -0.008
    assert elapsed < 1.0


def test_criterion_02_rate_separation():
    t0 = time.perf_counter()
    sys_p = SystemParams(1.0, 1.31, 0.9)
    basis = diagonalize(sys_p)
    bath = BathParams()
    coeffs = dissipation_coefficients(sys_p, bath, basis)
    mu = dynamical_eigenvalues(build_generator(basis, coeffs)).mu
    rates = rwa_rates(sys_p, bath, basis)
    targets = np.array([rates.minus, rates.mixed, rates.plus])
    res = -mu.real
    worst_cluster = max(
        min(abs(r - t) / t for t in targets) for r in res
    )
    covered = all(
        any(abs(r - t) / t <= 0.15 for r in res) for t in targets
    )
    ratio = res.min() / res.max()
    elapsed = time.perf_counter() - t0
    ok = worst_cluster <= 0.15 and covered and ratio <= 0.06 and elapsed < 1.0
    _report(
        2,
        ok,
        f"cluster dev {worst_cluster:.4f} (<=0.15), all 3 rates hit: "
        f"{covered}, min/max {ratio:.4f} (<=0.06), {elapsed:.2f}s",
    )
    assert worst_cluster <= 0.15
    assert covered
    assert ratio <= 0.06
    assert elapsed < 1.0


def test_criterion_03_separate_bath_no_separation():
    t0 = time.perf_counter()
    grid = default_grid(metrics=("eigRatio",))
    res = run_sweep(grid, SQ, topology="separate")
    ratios = res.metric_map("eigRatio")
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(ratios >= 0.8)) and elapsed < 30.0
    _report(
        3,
        ok,
        f"SB eigRatio in [{ratios.min():.5f}, {ratios.max():.5f}] "
        f"(>=0.8 everywhere), {len(res.cells)} cells, {elapsed:.2f}s",
    )
    assert np.all(ratios >= 0.8)
    assert elapsed < 30.0


def test_criterion_04_sync_onset(onset_runs):
    cb = onset_runs["common"]["sync"]
    sb = onset_runs["separate"]["sync"]
    c270 = cb.C[int(round(270.0 / DT_OUT))]
    tail = np.abs(sb.C[(sb.times >= 200.0) & (sb.times <= 400.0)])
    sb_max = np.nanmax(tail)
    elapsed = onset_runs["elapsed"]
    ok = c270 >= LOCK and sb_max < LOCK and elapsed < 10.0
    _report(
        4,
        ok,
        f"CB C(270)={c270:.4f} (>=0.90); SB max|C| on [200,400]="
        f"{sb_max:.4f} (<0.90, never locks), {elapsed:.2f}s",
    )
    assert c270 >= LOCK
    assert sb_max < LOCK
    assert elapsed < 10.0


def test_criterion_05_discord_plateau(onset_runs):
    t0 = time.perf_counter()
    vals = {}
    for topo in ("common", "separate"):
        run = onset_runs[topo]
        smooth = gaussian_smooth(
            ObservableSeries(run["traj"].times, run["info"]["discord"]), 5.0
        )
        d150 = smooth.values[int(round(150.0 / DT_OUT))]
        d300 = smooth.values[int(round(300.0 / DT_OUT))]
        vals[topo] = (d150, d300, d300 / d150)
    cb_run = onset_runs["common"]
    ss = steady_state(cb_run["gen"])
    ss_discord = gaussian_discord(
        to_lab_covariance(ss, cb_run["basis"], cb_run["sys"])
    )
    elapsed = time.perf_counter() - t0 + onset_runs["elapsed"]
    cb_ratio = vals["common"][2]
    sb_ratio = vals["separate"][2]
    ok = (
        cb_ratio >= PLATEAU
        and sb_ratio < PLATEAU
        and ss_discord < 1e-3
        and elapsed < 20.0
    )
    _report(
        5,
        ok,
        f"CB d300/d150={cb_ratio:.4f} (>=0.5); SB d300/d150={sb_ratio:.4f} "
        f"(<0.5, no plateau); CB steady discord={ss_discord:.2e} (<1e-3), "
        f"{elapsed:.2f}s",
    )
    assert cb_ratio >= PLATEAU
    assert sb_ratio < PLATEAU
    assert ss_discord < 1e-3
    assert elapsed < 20.0


def _secular_deviations(full, rwa):
    """Max |C_full - C_rwa| on [0, 300] and the relative discord deviation.

    The discord is compared on [T_b, 300], T_b = 2 pi / (Omega+ - Omega-)
    being the beat period over which the secular approximation is
    coarse-grained; inside the first beat the two backends differ by where
    they put the diffusion (momenta only vs. ``D/(2 Omega^2)`` on the
    positions), which a strongly squeezed start resolves.
    """
    n = int(round(300.0 / DT_OUT)) + 1
    cf, cr = full["sync"].C[:n], rwa["sync"].C[:n]
    both = np.isfinite(cf) & np.isfinite(cr)
    sync_dev = np.max(np.abs(cf[both] - cr[both]))
    basis = full["basis"]
    t_beat = 2.0 * math.pi / (basis.omega_plus - basis.omega_minus)
    k_beat = int(math.ceil(t_beat / DT_OUT))
    df = full["info"]["discord"][k_beat:n]
    dr = rwa["info"]["discord"][k_beat:n]
    # deviation relative to the scale of the plotted quantity
    discord_dev = np.max(np.abs(df - dr)) / np.max(np.abs(df))
    return sync_dev, discord_dev, t_beat


def test_criterion_06_secular_agreement(backend_runs, monkeypatch):
    full = backend_runs["full"]
    sync_dev, discord_dev, t_beat = _secular_deviations(
        full, backend_runs["rwa"]
    )
    elapsed = backend_runs["elapsed"]
    monkeypatch.setattr(sweep_mod, "dissipation_coefficients", _swapped_rates)
    swapped = _single_run(1.4, 0.7, "common", "rwa", 315.0)
    _, ctrl_discord, _ = _secular_deviations(full, swapped)
    ok = (
        sync_dev <= 0.05
        and discord_dev <= 0.05
        and ctrl_discord > 0.05
        and elapsed < 20.0
    )
    _report(
        6,
        ok,
        f"max|C_full-C_rwa|={sync_dev:.5f} (<=0.05); max rel discord dev on "
        f"[T_b={t_beat:.2f},300]={discord_dev:.5f} (<=0.05); swapped-rate "
        f"rwa control {ctrl_discord:.5f} (>0.05), {elapsed:.2f}s",
    )
    assert sync_dev <= 0.05
    assert discord_dev <= 0.05
    assert ctrl_discord > 0.05
    assert elapsed < 20.0


def test_criterion_07_propagator_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for i in range(5):
        omega2 = rng.uniform(1.0, 1.5)
        lam = rng.uniform(0.05, 0.9 * omega2)
        topo = "common" if i % 2 == 0 else "separate"
        initial = SQ if i % 2 == 0 else InitialStateSpec.two_mode_squeezed(1.5)
        sys_p = SystemParams(1.0, omega2, lam)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(
            sys_p, BathParams(topology=topo), basis
        )
        gen = build_generator(basis, coeffs)
        state = make_initial(initial, sys_p, basis)
        # the shipped sampler's 500th step of 0.1 against 50,000 RK4 steps
        _, second = sample_moments(gen, state, 0.1, 1, k_start=500)
        exact = second[0]
        stepped = propagate_stepwise(gen, state, 1e-3, 50000)
        rel = np.max(
            np.abs(exact - stepped.second_moments)
            / np.maximum(np.abs(exact), 1e-12)
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(
        7,
        ok,
        f"worst relative moment deviation {worst:.2e} (<=1e-6) over 5 "
        f"parameter sets, {elapsed:.2f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_08_physicality(onset_runs, backend_runs):
    runs = [
        onset_runs["common"],
        onset_runs["separate"],
        backend_runs["full"],
        backend_runs["rwa"],
    ]
    min_nu = min(np.min(r["info"]["nuMin"]) for r in runs)
    min_gap = min(
        np.min(r["info"]["mutualInfo"] - r["info"]["discord"]) for r in runs
    )
    min_discord = min(np.min(r["info"]["discord"]) for r in runs)
    ok = min_nu >= 1.0 - 1e-6 and min_gap >= -1e-9 and min_discord >= 0.0
    _report(
        8,
        ok,
        f"min nu={min_nu:.8f} (>=1-1e-6); min(I-delta)={min_gap:.2e} "
        f"(>=0); min delta={min_discord:.2e} (>=0) over 4 trajectories",
    )
    assert min_nu >= 1.0 - 1e-6
    assert min_gap >= -1e-9
    assert min_discord >= 0.0


def test_criterion_09_analytic_identities():
    t0 = time.perf_counter()
    sys_p = SystemParams(1.0, 1.4, 0.7)
    basis = diagonalize(sys_p)
    coeffs = dissipation_coefficients(sys_p, BathParams(), basis)
    mu = dynamical_eigenvalues(build_generator(basis, coeffs)).mu
    g = coeffs.gamma_tilde
    trace_dev = abs(np.sum(mu).real + 5.0 * (g[0, 0] + g[1, 1]))
    freq_dev = abs(
        basis.omega_minus**2 * basis.omega_plus**2
        - (sys_p.omega1**2 * sys_p.omega2**2 - sys_p.lam**2)
    )

    r = 2.0
    ch, sh = math.cosh(r), math.sinh(r)
    sigma = np.block(
        [
            [ch * np.eye(2), sh * np.diag([1.0, -1.0])],
            [sh * np.diag([1.0, -1.0]), ch * np.eye(2)],
        ]
    )
    cov = CovarianceMatrix(sigma=sigma, means=np.zeros(4))
    spec = symplectic_spectrum(cov)
    f_ch = mutual_information(cov) / 2.0
    tms_ok = (
        abs(spec.nu[0] - 1.0) < 1e-9
        and abs(spec.nu[1] - 1.0) < 1e-9
        and abs(gaussian_discord(cov) - f_ch) < 1e-9
        and abs(log_negativity(cov) - r) < 1e-9
    )

    report = check_appendix_equivalence(basis)
    elapsed = time.perf_counter() - t0
    ok = (
        trace_dev < 1e-10
        and freq_dev < 1e-10
        and tms_ok
        and report.ok
        and report.max_deviation < 1e-10
        and elapsed < 5.0
    )
    _report(
        9,
        ok,
        f"trace dev {trace_dev:.1e}; freq-product dev {freq_dev:.1e}; TMS "
        f"identities {tms_ok}; flat-limit dev {report.max_deviation:.1e} "
        f"(<1e-10 each), {elapsed:.2f}s",
    )
    assert trace_dev < 1e-10
    assert freq_dev < 1e-10
    assert tms_ok
    assert report.ok and report.max_deviation < 1e-10
    assert elapsed < 5.0


def test_criterion_10_dominant_frequency():
    sys_p = SystemParams(1.0, 1.31, 0.9)
    basis = diagonalize(sys_p)
    coeffs = dissipation_coefficients(sys_p, BathParams(), basis)
    spec = dynamical_eigenvalues(build_generator(basis, coeffs))
    target = 2.0 * basis.omega_minus
    rel = abs(spec.dominant_frequency - target) / target
    ok = rel <= 0.01
    _report(
        10,
        ok,
        f"dominant |Im mu|={spec.dominant_frequency:.6f} vs 2*Omega_-="
        f"{target:.6f}, rel dev {rel:.2e} (<=0.01)",
    )
    assert rel <= 0.01


def _lock_runs_end_at_max_lambda(sync_map):
    """True when each omega2 row's locked cells are one run up to the largest lambda.

    The map samples |C| at the single time t_eval, so an unlocked cell is a
    phase sample of a beat and its value need not grow with lambda; whether
    a cell has locked by then does.
    """
    locked = sync_map >= LOCK
    upward_closed = np.all(np.diff(locked.astype(int), axis=1) >= 0)
    return bool(upward_closed and locked[:, -1].all())


def test_criterion_11_sweep_structure():
    t0 = time.perf_counter()
    maps = {}
    for topo in ("common", "separate"):
        res = run_sweep(default_grid(), SQ, topology=topo)
        assert all(c.status == "ok" for c in res.cells)
        maps[topo] = res
    cb_sync = maps["common"].metric_map("syncAbs")
    sb_sync = maps["separate"].metric_map("syncAbs")
    cb_disc = maps["common"].metric_map("discord")
    lock_region = _lock_runs_end_at_max_lambda(cb_sync)
    reversed_control = _lock_runs_end_at_max_lambda(cb_sync[:, ::-1])
    sb_max = sb_sync.max()
    rho = spearmanr(cb_sync.ravel(), cb_disc.ravel()).correlation
    elapsed = time.perf_counter() - t0
    ok = (
        lock_region
        and not reversed_control
        and sb_max < LOCK
        and rho > 0.7
        and elapsed < 240.0
    )
    _report(
        11,
        ok,
        f"CB locked cells (|C|>=0.90) one run per omega2 row up to the "
        f"largest lambda: {lock_region} ({int((cb_sync >= LOCK).sum())} "
        f"cells; reversed-lambda control: {reversed_control}); SB max|C|="
        f"{sb_max:.4f} (<0.90, no cell locks); Spearman(|C|, discord)="
        f"{rho:.4f} (>0.7), {elapsed:.1f}s",
    )
    assert lock_region
    assert not reversed_control
    assert sb_max < LOCK
    assert rho > 0.7
    assert elapsed < 240.0
