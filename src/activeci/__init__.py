"""Pseudospectral construction and verification of stationary weak solutions
to active scalar equations driven by non-odd Fourier multipliers."""

from .fields import (
    SpectralField,
    analyze,
    besov_norm,
    divergence,
    fractional_laplacian,
    gradient,
    low_pass,
    lp_norms,
    mean_part,
    multiply,
    sample,
    shell_project,
    sobolev_norm,
)
from .kernels import ShellKernel
from .multipliers import Multiplier, apply_T, check_claims, even_part, ipm2d, ipm3d, load_multiplier, mg, sqg
from .directions import DirectionBasis, build_basis, gamma_coefficients
from .slabs import Profile, SlabSpec, build_profile, certify_scaling, slab_fourier, slab_physical
from .iteration import (
    IterationParams,
    IterationState,
    base_state,
    build_increment,
    make_params,
    oscillation_diagnostics,
    step,
)
from .harness import RunConfig, run

__all__ = [
    "SpectralField",
    "analyze",
    "besov_norm",
    "divergence",
    "fractional_laplacian",
    "gradient",
    "low_pass",
    "lp_norms",
    "mean_part",
    "multiply",
    "sample",
    "shell_project",
    "sobolev_norm",
    "ShellKernel",
    "Multiplier",
    "apply_T",
    "check_claims",
    "even_part",
    "ipm2d",
    "ipm3d",
    "load_multiplier",
    "mg",
    "sqg",
    "DirectionBasis",
    "build_basis",
    "gamma_coefficients",
    "Profile",
    "SlabSpec",
    "build_profile",
    "certify_scaling",
    "slab_fourier",
    "slab_physical",
    "IterationParams",
    "IterationState",
    "base_state",
    "build_increment",
    "make_params",
    "oscillation_diagnostics",
    "step",
    "RunConfig",
    "run",
]

__version__ = "0.1.0"
