"""Records that hold arrays compare by identity (a field-wise ``==`` over
arrays has no truth value), operands of the wrong shape are refused by one
check, and each entry checks its input as the caller passed it."""

import copy
import re

import numpy as np
import pytest

from opball import (
    BadDims,
    BallPoint,
    ConjugationPair,
    OperatorHK,
    ShapeMismatch,
    Side,
    ball_dist,
    canonical_pair,
    ensemble_experiment,
    gram_factor,
    herm_eig,
    identity_pair,
    inverse,
    left_defect,
    mobius,
    mobius_inv,
    op_norm,
    random_pair,
    right_defect,
    right_defect_inv,
    symmetric_part,
    symmetry_residual,
    zero_operator,
    zero_point,
)
from opball.identities import run_identities
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


# entry -> (its call on a matrix, whether it takes one matrix and no stack)
MATRIX_ENTRIES = {
    "BallPoint": (BallPoint, True),
    "OperatorHK": (OperatorHK, True),
    "ConjugationPair": (lambda m: ConjugationPair(m, Side.BWD_FWD), True),
    "herm_eig": (herm_eig, True),
    "inverse": (inverse, True),
    "gram_factor": (gram_factor, False),
    "op_norm": (op_norm, False),
    "zero_point": (lambda m: zero_point(*m.shape), False),
}


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
@pytest.mark.parametrize("name", MATRIX_ENTRIES)
def test_a_matrix_is_checked_in_the_shape_passed(name, shape):
    entry, one_matrix = MATRIX_ENTRIES[name]
    # the message quotes (0, 3), never the stack (1, 0, 3) it may become
    with pytest.raises(ShapeMismatch, match=re.escape(f"got {shape}")):
        entry(np.zeros(shape))
    if one_matrix:
        with pytest.raises(ShapeMismatch, match="expected a 2-D matrix, got ndim=3"):
            entry(0.1 * np.ones((2, 2, 2)))


NON_INTEGER_SIZES = {
    "canonical_pair": lambda: canonical_pair(1.5, 3),
    "identity_pair": lambda: identity_pair(2.5),
    "random_pair": lambda: random_pair(2.0, 3, 0),
    "zero_point": lambda: zero_point(1.5, 2),
    "zero_operator": lambda: zero_operator(2, 1.5),
    "run_identities": lambda: run_identities(0, 1.5, 3, 2, 1e-8),
    "ensemble_experiment trials": lambda: ensemble_experiment(3, 2, 2.5, 0),
    "ensemble_experiment seed": lambda: ensemble_experiment(3, 2, 1, 1.5),
    "ensemble_experiment jobs": lambda: ensemble_experiment(2, 1, 1, 0, jobs=1.5),
}


@pytest.mark.parametrize("name", NON_INTEGER_SIZES)
def test_a_non_integer_size_raises_bad_dims(name):
    with pytest.raises(BadDims, match=r"is not an integer$"):
        NON_INTEGER_SIZES[name]()


def test_numpy_integer_sizes_pass():
    assert zero_point(np.int64(2), np.int32(1)).shape == (2, 1)
    assert canonical_pair(np.int64(1), np.int64(2)).dim_dst == 2
    report = ensemble_experiment(np.int64(2), 1, np.int64(1), np.int64(0), jobs=np.int64(1))
    assert len(report.results) == 1
