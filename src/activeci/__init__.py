"""Pseudospectral construction and verification of stationary weak solutions
to active scalar equations driven by non-odd Fourier multipliers.

The package re-exports every module's ``__all__``, the one list of its
public names.  The modules load in the order below, fields first: the order
sets the peak memory of a run.
"""

from . import fields, kernels, multipliers, directions, slabs, iteration, harness
from .fields import *
from .kernels import *
from .multipliers import *
from .directions import *
from .slabs import *
from .iteration import *
from .harness import *

__all__ = [name for m in (fields, kernels, multipliers, directions, slabs, iteration, harness) for name in m.__all__]

__version__ = "0.1.0"
