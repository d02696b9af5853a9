"""Sparse quantile regression by multi-stage convex relaxation, with a
proximal dual semismooth Newton solver and a semi-proximal ADMM baseline."""

from .admm import admm_solve
from .datagen import SyntheticSpec, generate, selection_metrics
from .mscra import MscraConfig, lambda_grid, mscra_fit, rho_schedule
from .pdsn import SubproblemSpec, kkt_residual, ppa_solve
from .problem import (
    QuantileProblem,
    check_loss,
    load_csv,
    matrix_norms,
    nonzero_count,
    standardize,
    support_mask,
)
from .prox import prox_check_loss, prox_weighted_l1
from .report import SolverError, SolverReport
from .surrogate import SurrogateFamily

__version__ = "0.1.0"
