"""Records that hold arrays compare by identity (a field-wise ``==`` over
arrays has no truth value), and operands of the wrong shape are refused by
one check."""

import copy

import numpy as np
import pytest

from opball import (
    BallPoint,
    OperatorHK,
    ShapeMismatch,
    ball_dist,
    canonical_pair,
    gram_factor,
    herm_eig,
    left_defect,
    mobius,
    mobius_inv,
    right_defect,
    right_defect_inv,
    symmetric_part,
    symmetry_residual,
    zero_point,
)
from opball.symmetry import extension_blocks

ARRAY_RECORDS = {
    "BallPoint": lambda: BallPoint(np.full((3, 2), 0.1)),
    "OperatorHK": lambda: OperatorHK(np.arange(6.0).reshape(2, 3)),
    "ConjugationPair": lambda: canonical_pair(2, 3),
    "GramFactor": lambda: gram_factor(np.arange(6.0).reshape(3, 2)),
    "HermSpectrum": lambda: herm_eig(np.diag([1.0, 2.0])),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_record_equality_is_identity(name):
    x = ARRAY_RECORDS[name]()
    assert type(x).__name__ == name
    assert x == x
    assert (x == copy.copy(x)) is False
    assert (x == ARRAY_RECORDS[name]()) is False
    assert x in [x] and hash(x) == hash(x)


def _operator(rows, cols):
    return OperatorHK(np.ones((rows, cols)))


SHAPE_CHECKED = {
    "mobius": lambda: mobius(zero_point(2, 2), zero_point(3, 2)),
    "mobius_inv": lambda: mobius_inv(zero_point(2, 2), zero_point(2, 1)),
    "ball_dist": lambda: ball_dist(zero_point(3, 2), zero_point(2, 3)),
    "left_defect": lambda: left_defect(_operator(2, 3), _operator(3, 2)),
    "right_defect": lambda: right_defect(_operator(2, 3), _operator(2, 2)),
    "right_defect_inv": lambda: right_defect_inv(_operator(2, 3), _operator(1, 3)),
    "symmetry_residual": lambda: symmetry_residual(_operator(2, 3), canonical_pair(2, 3)),
    "symmetric_part": lambda: symmetric_part(np.ones((2, 3)), canonical_pair(2, 3)),
    "extension_blocks": lambda: extension_blocks(np.ones((3, 3)), canonical_pair(2, 3)),
}


@pytest.mark.parametrize("name", SHAPE_CHECKED)
def test_shape_mismatch_goes_through_one_check(name):
    with pytest.raises(ShapeMismatch, match=r"has shape \(\d+, \d+\), expected"):
        SHAPE_CHECKED[name]()
