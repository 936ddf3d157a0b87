"""1D stabilized continuous-Galerkin toolkit.

Spectral (Fourier / von Neumann) analysis of CG discretizations with SUPG,
CIP and LPS stabilization under explicit RK, SSPRK and deferred-correction
time stepping, plus the verification solvers used to check the optimized
(CFL, delta) parameters on linear advection, Burgers and shallow water.
"""

from .elements import build_reference_element
from .fourier import amplification_matrix, eigvals_batched, semidiscrete_modes
from .scan import Combination, scan_combination
from .problems import (burgers_problem, exact_burgers, linear_advection_problem,
                       shallow_water_problem)
from .solver import convergence_study

__version__ = "0.1.0"
