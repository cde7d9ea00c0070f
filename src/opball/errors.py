"""Exception hierarchy shared by all opball modules.

Every failure raised by the library derives from :class:`OpballError`, so
callers can distinguish library failures from programming errors.  The
classes are deliberately fine grained: numerical code wants to react
differently to a shape bug than to a near-boundary breakdown.
"""


class OpballError(Exception):
    """Base class for all errors raised by opball."""


class ShapeMismatch(OpballError):
    """Operands have incompatible dimensions."""


class NotHermitian(OpballError):
    """A matrix required to be Hermitian is too far from its adjoint.

    Asymmetry beyond the guard threshold is a hard error rather than a
    silent repair, so formula bugs upstream do not get masked.
    """


class NoConvergence(OpballError):
    """An iterative kernel exhausted its sweep budget."""


class EigenvalueBelowFloor(OpballError):
    """A spectral function was requested at an eigenvalue below its floor.

    Usually signals a ball-membership or positivity violation upstream.
    Carries the offending eigenvalue and the floor that was enforced.
    """

    def __init__(self, eigenvalue: float, floor: float):
        self.eigenvalue = float(eigenvalue)
        self.floor = float(floor)
        super().__init__(
            f"eigenvalue {self.eigenvalue:.6e} below floor {self.floor:.6e}"
        )


class Singular(OpballError):
    """A matrix that must be inverted is numerically singular."""


class OutOfBall(OpballError):
    """A matrix supposed to lie strictly inside the unit operator ball does not.

    The unit disc is the 1 x 1 ball: a scalar input of ``poincare_dist``
    outside it raises this too.
    """


class BadDims(OpballError):
    """A size, depth, count or seed is invalid: not an integer, or outside
    the range its construction admits."""


class NotSymmetric(OpballError):
    """An operator required to be complex symmetric for a construction is not."""


class NearBoundaryWarning(UserWarning):
    """Accuracy warning: an operand sits closer to the unit sphere than the
    documented accuracy margin, results may lose digits."""
