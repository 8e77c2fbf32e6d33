"""Mutual synchronization of dissipatively coupled quantum oscillators.

Gaussian-state simulator and analysis toolkit for a pair of detuned harmonic
oscillators coupled through a thermal environment, either shared (common
bath) or independent (separate baths).  Second moments evolve under the
weak-coupling master equation in the normal-mode basis; submodules provide
the coefficient model (:mod:`.model`), moment propagation (:mod:`.dynamics`),
Gaussian information measures (:mod:`.info`), a windowed synchronization
indicator (:mod:`.sync`), the run of one parameter point and parameter-grid
sweeps (:mod:`.sweep`), and a CLI (:mod:`.cli`).  The package re-exports
each submodule's ``__all__`` except the CLI's.
"""

__version__ = "0.1.0"  # above the imports: sweep reads it from the package

from . import dynamics, errors, info, model, sweep, sync
from .errors import *
from .model import *
from .dynamics import *
from .info import *
from .sync import *
from .sweep import *

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += model.__all__
__all__ += dynamics.__all__
__all__ += info.__all__
__all__ += sync.__all__
__all__ += sweep.__all__
