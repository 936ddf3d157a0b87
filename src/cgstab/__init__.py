"""1D stabilized continuous-Galerkin toolkit.

Spectral (Fourier / von Neumann) analysis of CG discretizations with SUPG,
CIP and LPS stabilization under explicit RK, SSPRK and deferred-correction
time stepping, plus the verification solvers used to check the optimized
(CFL, delta) parameters on linear advection, Burgers and shallow water.
"""

from .elements import (
    BASIC,
    BERNSTEIN,
    CUBATURE,
    FAMILIES,
    ReferenceElement,
    build_reference_element,
    local_matrices,
)
from .fluxes import Burgers, LinearAdvection, ShallowWater
from .stabilization import (
    CIP,
    LPS,
    NONE,
    SUPG,
    DiscreteSystem,
    Mesh1D,
    StabilizationSpec,
    assemble_system,
    tau_cell,
)
from .timeint import (
    DeCConfig,
    TimeScheme,
    dec_step,
    expand_ssprk_coefficients,
    make_scheme,
    rk_step,
)
from .fourier import (
    ModeAnalysis,
    amplification_matrix,
    eigvals_batched,
    semidiscrete_modes,
    symbol_builder,
)
from .scan import (
    Combination,
    ScanGrid,
    ScanResult,
    eta_u,
    eta_w,
    geometric_grid,
    monotone_safety_check,
    optimize,
    scan_combination,
)
from .problems import (
    PROBLEMS,
    burgers_problem,
    exact_burgers,
    exact_shallow_water,
    linear_advection_problem,
    shallow_water_problem,
    shallow_water_source,
)
from .solver import BlowUp, ConvergenceReport, RunResult, convergence_study, l2_error, run_simulation

__version__ = "0.1.0"
