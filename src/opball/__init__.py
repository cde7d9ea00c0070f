"""Hyperbolic geometry of the operator ball and complex symmetric operators.

Dense, desk-scale numerics for the unit ball of operators between two finite
dimensional complex Hilbert spaces: Moebius transformations, the invariant
ball distance in closed form, the bounded transform and the induced metric on
operators, conjugation pairs with symmetric extensions, and the truncation
pipeline that approximates arbitrary operators by complex symmetric ones.
"""

from .ball import (
    BallPoint,
    ball_dist,
    ball_dists,
    mobius,
    mobius_inv,
    mobius_to_origin,
    poincare_dist,
    zero_point,
)
from .density import (
    ApproxProfile,
    EnsembleReport,
    ProfileRow,
    approximation_profile,
    ensemble_experiment,
    profile_csv,
    report_json,
    symmetric_approximant,
    truncate,
)
from .errors import (
    BadDepth,
    BadDims,
    EigenvalueBelowFloor,
    NearBoundaryWarning,
    NoConvergence,
    NotHermitian,
    NotSymmetric,
    OpballError,
    OutOfBall,
    OutOfDisc,
    ShapeMismatch,
    Singular,
)
from .matkernel import (
    GramFactor,
    HermSpectrum,
    adj,
    as_cmat,
    fro_norm,
    gram_factor,
    herm_eig,
    herm_inv_sqrt,
    herm_sqrt,
    inverse,
    op_norm,
)
from .symmetry import (
    ConjugationPair,
    Side,
    canonical_pair,
    conj_apply,
    double_pair,
    extension_blocks,
    identity_pair,
    induced_operator,
    induced_pair,
    pair_residual,
    random_pair,
    swap_roles,
    symmetric_extension,
    symmetric_part,
    symmetry_residual,
    symmetry_residuals,
)
from .tolerances import DEFAULT, Tolerances
from .transform import (
    OperatorHK,
    bounded_transform,
    inverse_bounded_transform,
    left_defect,
    operator_dist,
    operator_dists,
    operators,
    right_defect,
    right_defect_inv,
    zero_operator,
)

__version__ = "0.1.0"
