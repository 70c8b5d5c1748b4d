"""Pseudospectral construction and verification of stationary weak solutions
to active scalar equations driven by non-odd Fourier multipliers.

The package re-exports every module's ``__all__``, the one list of its
public names.  The modules load in the order below, fields first and grids
right after it: the order sets the peak memory of a run.
"""

from . import fields, grids, kernels, multipliers, directions, slabs, iteration, harness
from .fields import *
from .grids import *
from .kernels import *
from .multipliers import *
from .directions import *
from .slabs import *
from .iteration import *
from .harness import *

# perfbench/tracer.py times these grid functions under their names in fields
fields.sample, fields.analyze, fields.lp_norm_detailed, fields.besov_norm = sample, analyze, lp_norm_detailed, besov_norm

__all__ = [name for m in (fields, grids, kernels, multipliers, directions, slabs, iteration, harness) for name in m.__all__]

__version__ = "0.1.0"
