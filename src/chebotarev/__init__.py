"""Minimal logarithmic-capacity continua via inverse polynomial images.

The package constructs polynomials whose inverse image of [-1, 1] is the
connected set of least logarithmic capacity through prescribed points,
verifies candidate polynomials with independent numerical oracles, and
extracts the continuum as explicit analytic arcs with its tree structure.
"""

from .analysis import (
    ConditionEntry,
    ConditionReport,
    capacity,
    check_chebotarev_conditions,
    condition_points,
    green_function,
    green_via_integral,
    hyperelliptic_integral,
    min_deviation,
    verify_cosh_representation,
)
from .arcs import (
    Arc,
    ContinuumGraph,
    arcs_to_csv,
    arcs_to_svg,
    build_graph,
    find_crossings,
    junction_angles,
    trace,
)
from .connect import (
    ConnectivityVerdict,
    GridReport,
    Witness,
    complement_connected,
    dist_to_interval,
    grid_oracle,
    is_connected,
)
from .errors import (
    BranchJump,
    ChebotarevError,
    DegenerateSolution,
    InconsistentFactorization,
    MatchingAmbiguity,
    NoConvergence,
    NotATree,
    PathTooClose,
    PowerSumViolation,
)
from .factor import Factorization, factorize
from .poly import (
    ComplexPoly,
    LevelForm,
    RootCluster,
    cluster_roots,
    find_roots,
    level_polynomial,
    structured_roots,
)
from .powersum import (
    PointVar,
    ProblemSpec,
    SignConfig,
    Solution,
    SolverOptions,
    default_initial,
    enumerate_sign_configs,
    residual,
    solution_to_dict,
    solve,
    spec_from_dict,
)
from .quadrature import path_integral

__version__ = "0.1.0"
