"""Pseudospectral solver for L2-normalized solitary waves of a nonlinear
Dirac equation on a periodic box."""

from .invariants import check_growth
from .nonlinearity import (
    NonlinearModel,
    WeightSpec,
    F_value,
    f_prime,
    f_value,
    null_model,
    psi,
    psi_gradient,
    pure_power,
    two_power,
)
from .reduction import (
    DomainError,
    InnerConvergenceError,
    ReducedState,
    SmallnessError,
    energy,
    evaluate_reduced,
    h_map,
    inner_gradient,
    inner_maximize,
    kappa,
    pde_residual,
)
from .solver import (
    MultiResult,
    SolutionRecord,
    SolverOptions,
    SweepResult,
    bifurcation_sweep,
    calibrate_a_max,
    default_initial_guess,
    extract_solution,
    minimize_on_sphere,
    multi_start,
    solve_normalized,
)
from .spectral_core import (
    ALPHA,
    BETA,
    SIGMA,
    DiracSpace,
    FieldError,
    Grid,
    SpectralSplit,
    SpinorField,
    apply_h0,
    band_energy,
    dirac_symbol_at,
    e_inner,
    e_norm,
    h_half_norm,
    l2_inner,
    l2_norm,
    regrid,
    spectral_projectors,
    split,
)
from .subspaces import (
    LevelBoundResult,
    SubspaceReport,
    hermite_function,
    level_bounds,
    mean_value,
    periodic_solution_phi,
    scaled_envelope_field,
    subspace_ratio,
)

__version__ = "0.1.0"
