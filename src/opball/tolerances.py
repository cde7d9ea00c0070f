"""Central tolerance record.

All numerical guards used across the library live in one frozen dataclass so
the test suite and the CLI share a single source of truth.  The defaults are
calibrated for double precision at desk scale (matrix sides up to 64).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative asymmetry admitted before a Hermitian input is rejected
    herm_asym: float = 1e-10
    # pivot threshold factor for Gaussian elimination
    pivot_floor: float = 1e-13
    # smallest defect eigenvalue tolerated by ball operations
    defect_floor: float = 1e-13
    # bound on the conjugation-pair isometry gap at construction
    pair_residual: float = 1e-10
    # looser validation tolerance for pairs produced by the induced-pair map
    induced_pair_residual: float = 1e-8
    # symmetry residual admitted for inputs of the induced-pair construction
    symmetry_pre: float = 1e-8
    # ball margin below which BallPoint.defect warns for an inverse square root
    near_boundary: float = 1e-8
    # approximation profile invariants (final distance, symmetry residuals)
    profile: float = 1e-8


DEFAULT = Tolerances()
