"""GMRES solver variants over a shared orthogonalization core.

Classical, flexible, augmented, weighted, communication-avoiding, pipelined,
low-sync and mixed-precision GMRES, with convergence-bound diagnostics and a
benchmark CLI.
"""

from .linalg import (
    CsrMatrix,
    GivensRotation,
    HessenbergLsState,
    MatrixMarketError,
    SingularMatrixError,
    back_substitute,
    dense_eig_general,
    dense_eig_symmetric,
    make_givens,
    mm_read,
    mm_write,
)
from .ortho import (
    ArnoldiDecomposition,
    ArnoldiProcess,
    OrthogonalizationBreakdown,
    OrthoScheme,
    ReductionCounter,
    arnoldi,
    householder_arnoldi,
)
from .solvers import (
    BreakdownError,
    DiagonalPreconditioner,
    FgmresBreakdownError,
    FunctionPreconditioner,
    GmresOptions,
    SolveReport,
    backward_error,
    fgmres,
    gcr,
    gmres,
    gmres_restarted,
    hh_gmres,
    lgmres,
    orthodir,
    simpler_gmres,
    weighted_gmres,
)
from .deflation import (
    HarmonicRitzSet,
    ResidualPolynomial,
    build_poly_preconditioner,
    gmres_e,
    harmonic_ritz,
    leja_order,
    polynomial_preconditioner,
)
from .commavoid import (
    BasisCollapseError,
    ChebyshevBasis,
    MonomialBasis,
    NewtonBasis,
    SstepBlockError,
    TsqrTree,
    bgs_project,
    build_basis,
    lowsync_gmres,
    pipelined_gmres,
    sstep_gmres,
    tsqr,
)
from .mixedprec import (
    LowLU,
    gmres_ir,
    gmres_two_precision,
    lu_low,
)
from .bounds import (
    BoundReport,
    bound_report,
    eigen_bound,
    elman_bound,
    fov_bound,
    fov_distance,
    residual_poly_check,
)
from .harness import (
    ExperimentConfig,
    PerturbationSchedule,
    compare,
    gen_convdiff,
    gen_spectrum,
    inexact_operator,
    run,
)

__version__ = "0.1.0"
