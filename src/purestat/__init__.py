"""purestat: a numerical laboratory for pure-state quantum statistical mechanics.

Dense exact-diagonalization tooling for finite-dimensional quantum systems
(Hilbert-space dimension in the hundreds; the README lists the limits)
together with a catalog of typicality, equilibration, decoherence and
initial-state-independence bounds, and a seeded Monte Carlo harness that
verifies each bound empirically.
"""

# each module's __all__ is its one export list; the package re-exports them all
from . import bounds, dynamics, ensembles, hamiltonians, linalg, states
from .linalg import *  # noqa: F403
from .hamiltonians import *  # noqa: F403
from .states import *  # noqa: F403
from .ensembles import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .bounds import *  # noqa: F403

__all__ = [*linalg.__all__, *hamiltonians.__all__, *states.__all__, *ensembles.__all__,
           *dynamics.__all__, *bounds.__all__]

__version__ = "0.1.0"
