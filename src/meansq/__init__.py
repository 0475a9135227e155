"""Exact mean-square closed forms for Dirichlet L-values.

Symbolic route: reciprocal sine power sums and parity-restricted mean
squares of L(r, chi) as exact rational combinations of Jordan totients.
Numeric route: independent character enumeration plus finite Hurwitz-zeta
combinations.  The CLI (``meansq``) exposes both and their comparison.

The public names are those in the ``__all__`` of the six modules below.
"""

from .exact import *
from .mean_square import *
from .multiplicative import *
from .oracle import *
from .sine_sums import *
from .symbolic import *

__version__ = "0.1.0"
