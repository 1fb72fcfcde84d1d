"""Transonic shocks for steady rotating Euler flow in almost flat nozzles.

The package builds the rotation-dependent background shock profiles, locates
the shock position selected by the boundary data, and iterates a linearize-
locate-correct scheme to the nonlinear two-phase solution, verifying jump
conditions and PDE residuals at every stage.
"""

from .background import (
    BackgroundSolution,
    UpstreamSpec,
    build_background,
    downstream_state,
    rh_residual,
    solve_mach_profile,
    upstream_state,
)
from .elliptic import EllipticProblem, EllipticSolution, compatibility_defect
from .elliptic import solve as solve_elliptic
from .errors import (
    CflError,
    ConfigError,
    DegenerateBackgroundError,
    DegenerateSelectionError,
    IncompatibleDataError,
    InvalidStateError,
    NoAdmissibleShockError,
    NonConvergenceError,
    RotshockError,
    TrustRegionError,
    VacuumError,
)
from .iteration import (
    IterationState,
    ResidualReport,
    RunResult,
    TransonicOptions,
    solve_transonic,
)
from .lagrangian import Field, Geometry, LagrangianGrid, hatted_background
from .profiles import Profile
from .shockfit import (
    InitialApproximation,
    ShockCoefficients,
    ShockFront,
    coefficients,
    find_shock_position,
    initial_approximation,
    shock_slope,
    solve_linear_subsonic,
)
from .supersonic import (
    PerturbationConfig,
    SupersonicSolution,
    solve_linear,
    solve_nonlinear,
)
from .thermo import GasModel, GasState

__version__ = "0.1.0"
