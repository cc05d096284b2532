"""Exact volumes of hyperbolic and spherical two-bridge knot cone-manifolds.

Supported singular loci: the twist knots C(2n, 2), the family C(2n, 3), and
C(2n, -2n), for nonzero integer twist parameter n.  Volumes come from exact
contour-integral formulas built on second-kind Chebyshev recurrences, with an
independent SL(2, C) holonomy oracle and a Schlaefli-formula cross-check.
"""

from .chebyshev import (
    eval_S,
    eval_S_prime,
    eval_f,
    eval_f_prime,
    eval_g,
    eval_g_prime,
)
from .errors import (
    BranchError,
    ConevolError,
    DegenerateLongitudeError,
    NonConvergenceError,
    NotBracketedError,
    PathBlockedError,
    PoleError,
    QuadratureError,
    SelectionAmbiguityError,
)
from .families import ConeManifoldSpec, KnotFamily, is_torus_member, parse_family
from .geometry import (
    Regime,
    RegimeResult,
    classify,
    collision_root,
    critical_angle,
    select_hyperbolic_root,
    select_spherical_roots,
    spherical_length,
)
from .representation import (
    HolonomyData,
    build_matrices,
    complex_length,
    f_identity_gap,
    holonomy_data,
    longitude_eigenvalue,
    longitude_matrix,
    relation_residual,
    word_omega_even,
    word_omega_odd,
)
from .riley import (
    ConeEquation,
    LemmaCdReport,
    RileyPoly,
    RootRecord,
    build_cone_equation,
    build_phi,
    check_lemma_cd,
    solve_cone_equation,
    trace_u,
)
from .volume import (
    VolumeResult,
    compute_volume,
    compute_volumes,
    real_singular_points,
    volume_hyperbolic,
    volume_schlafli,
    volume_spherical,
)

__version__ = "0.1.0"
