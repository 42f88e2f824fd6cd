"""Joint subspace angles and the dynamics of alternating projections."""

from .angles import *
from .corpus import *
from .diagnostics import *
from .dynamics import *
from .numerics import *
from .subspace import *

__version__ = "0.1.0"
