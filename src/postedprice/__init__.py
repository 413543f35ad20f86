"""Revenue-optimal pricing for repeated posted-price auctions.

A seller repeatedly posts prices to one strategic buyer with a fixed
private valuation; both sides discount per-round utility by their own
weight sequences.  The package computes optimal pricing trees (constant,
pay-up-front, and numerically optimized via the reduction to a bilinear
form over an ordered cone) and checks everything against an exhaustive
buyer-behavior oracle.

The package's public names are its modules' `__all__` lists, re-exported.
"""

from . import core, distributions, errors, optimizer, oracle, reduction, schemes
from .core import *
from .distributions import *
from .errors import *
from .optimizer import *
from .oracle import *
from .reduction import *
from .schemes import *

__version__ = "0.1.0"

__all__ = (core.__all__ + distributions.__all__ + errors.__all__ + optimizer.__all__
           + oracle.__all__ + reduction.__all__ + schemes.__all__)
