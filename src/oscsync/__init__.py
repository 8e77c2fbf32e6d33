"""Mutual synchronization of dissipatively coupled quantum oscillators.

Gaussian-state simulator and analysis toolkit for a pair of detuned harmonic
oscillators coupled through a thermal environment, either shared (common
bath) or independent (separate baths).  Second moments evolve under the
weak-coupling master equation in the normal-mode basis; submodules provide
the coefficient model (:mod:`.model`), moment propagation (:mod:`.dynamics`),
Gaussian information measures (:mod:`.info`), a windowed synchronization
indicator (:mod:`.sync`), the run of one parameter point and parameter-grid
sweeps (:mod:`.sweep`), and a CLI (:mod:`.cli`).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateState,
    DomainError,
    GridMismatch,
    NoUniqueSteadyState,
    NumericalError,
    OscSyncError,
    UnphysicalState,
)
from .model import (
    BathParams,
    DecayRates,
    DissipationCoefficients,
    NormalModeBasis,
    SystemParams,
    Topology,
    check_appendix_equivalence,
    coth,
    diagonalize,
    dissipation_coefficients,
    rwa_rates,
    spectral_density,
)
from .dynamics import (
    Backend,
    MomentGenerator,
    MomentState,
    Spectrum,
    Trajectory,
    build_generator,
    dynamical_eigenvalues,
    propagate_exact,
    propagate_stepwise,
    sample_trajectory,
    steady_state,
)
from .info import (
    CovarianceMatrix,
    GaussianMeasures,
    InitialStateSpec,
    SymplecticSpectrum,
    entropy,
    gaussian_discord,
    gaussian_measures,
    information_measures,
    information_series,
    lab_covariances,
    lab_variance_series,
    log_negativity,
    make_initial,
    min_symplectic_eigenvalue,
    mutual_information,
    symplectic_spectrum,
    to_lab_covariance,
)
from .sync import (
    ObservableSeries,
    SyncResult,
    gaussian_smooth,
    sync_onset,
    windowed_correlation,
)
from .sweep import (
    CellResult,
    PointRun,
    SweepGrid,
    SweepResult,
    default_grid,
    run_point,
    run_sweep,
    write_sweep_csv,
    write_sweep_sidecar,
)

__all__ = [
    "__version__",
    # errors
    "OscSyncError",
    "DomainError",
    "ConfigError",
    "GridMismatch",
    "NumericalError",
    "NoUniqueSteadyState",
    "UnphysicalState",
    "DegenerateState",
    # model
    "Topology",
    "SystemParams",
    "BathParams",
    "NormalModeBasis",
    "DissipationCoefficients",
    "DecayRates",
    "coth",
    "diagonalize",
    "spectral_density",
    "dissipation_coefficients",
    "rwa_rates",
    "check_appendix_equivalence",
    # dynamics
    "Backend",
    "MomentState",
    "MomentGenerator",
    "Spectrum",
    "Trajectory",
    "build_generator",
    "dynamical_eigenvalues",
    "propagate_exact",
    "propagate_stepwise",
    "steady_state",
    "sample_trajectory",
    # info
    "CovarianceMatrix",
    "GaussianMeasures",
    "InitialStateSpec",
    "SymplecticSpectrum",
    "make_initial",
    "lab_covariances",
    "to_lab_covariance",
    "gaussian_measures",
    "symplectic_spectrum",
    "entropy",
    "mutual_information",
    "gaussian_discord",
    "log_negativity",
    "min_symplectic_eigenvalue",
    "lab_variance_series",
    "information_measures",
    "information_series",
    # sync
    "ObservableSeries",
    "SyncResult",
    "windowed_correlation",
    "gaussian_smooth",
    "sync_onset",
    # sweep
    "SweepGrid",
    "CellResult",
    "SweepResult",
    "PointRun",
    "default_grid",
    "run_point",
    "run_sweep",
    "write_sweep_csv",
    "write_sweep_sidecar",
]
