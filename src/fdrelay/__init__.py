"""Power control and relay selection for full-duplex underlay relaying.

The package splits into:

* :mod:`fdrelay.model` -- network configuration, channel sampling, the exact
  end-to-end rate and its interference-limited surrogates.
* :mod:`fdrelay.phase` -- coherent interference decomposition, the aligned
  phase rotation, and the convexified (sqrt-power quadratic) constraint.
* :mod:`fdrelay.analysis` -- closed-form curvature reports, sign conditions
  and threshold powers, plus finite-difference checkers.
* :mod:`fdrelay.solver` -- the per-relay envelope solve, the brute-force
  lattice oracle, and relay selection.
* :mod:`fdrelay.harness` -- reproducible Monte-Carlo experiments and CSV
  emission.
* :mod:`fdrelay.cli` -- the ``fdrelay`` command-line entry point.
"""

from . import analysis, model, phase, solver
from .analysis import *
from .model import *
from .phase import *
from .solver import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *phase.__all__, *analysis.__all__, *solver.__all__,
           "__version__"]
