"""Angular gap statistics of inverse-pair modular curves.

The package builds the point sets (inv(n), inv(n+h)) mod q in exact
arithmetic, measures the angular gaps they present to an observer on the
negative x-axis, evaluates the closed-form limiting gap distribution for
prime moduli, and cross-verifies empirical, closed-form, and Monte Carlo
region-volume routes against each other.
"""

__version__ = "0.1.0"

# Star imports: each module's __all__ is the one declaration of its public
# names, and the package re-exports exactly those.
from . import angles, errors, experiments, expsum, limitdist, modcurve, omega
from .angles import *
from .errors import *
from .experiments import *
from .expsum import *
from .limitdist import *
from .modcurve import *
from .omega import *

__all__ = ["__version__"] + [name for module in (angles, errors, experiments, expsum,
                                                 limitdist, modcurve, omega)
                             for name in module.__all__]
