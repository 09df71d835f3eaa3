"""Exact verification toolkit for negative dependence on {0,1}^n.

Measures are exact rational mass functions.  The package checks a
hierarchy of negative-dependence notions with certificates, builds
monotone couplings via max-flow with min-cut certificates on failure,
constructs adaptive bounded-difference martingale trees, and compares
concentration bounds against exactly enumerated tails.

The package exports each module's ``__all__``, and nothing else.
"""

__version__ = "0.1.0"

from . import bitops, concentration, coupling, dependence, errors, martingale, measure, upsets
from .bitops import *
from .concentration import *
from .coupling import *
from .dependence import *
from .errors import *
from .martingale import *
from .measure import *
from .upsets import *

__all__ = ["__version__"]
__all__ += bitops.__all__
__all__ += concentration.__all__
__all__ += coupling.__all__
__all__ += dependence.__all__
__all__ += errors.__all__
__all__ += martingale.__all__
__all__ += measure.__all__
__all__ += upsets.__all__
