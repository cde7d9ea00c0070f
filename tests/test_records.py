"""Records that hold arrays compare by identity (a field-wise ``==`` over
arrays has no truth value), operands of the wrong shape are refused by one
check, each entry checks its input as the caller passed it, and an entry
computes with the Python ints its integer arguments parse to."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opball import (
    BadDims,
    BallPoint,
    ConjugationPair,
    OperatorHK,
    OpballError,
    ShapeMismatch,
    Side,
    approximation_profile,
    ball_dist,
    ball_dists,
    canonical_pair,
    ensemble_experiment,
    gram_factor,
    herm_eig,
    identity_pair,
    induced_pair,
    inverse,
    left_defect,
    mobius,
    mobius_inv,
    op_norm,
    operator_dist,
    operator_dists,
    random_pair,
    right_defect,
    right_defect_inv,
    symmetric_approximant,
    symmetric_extension,
    symmetric_part,
    symmetry_residual,
    zero_operator,
    zero_point,
)
from opball.ball import mobius_images
from opball.density import report_json
from opball.identities import run_identities
from opball.matkernel import as_integers
from opball.symmetry import extension_blocks, induced_pairs, symmetry_residuals

ARRAY_RECORDS = {
    "BallPoint": lambda: BallPoint(np.full((3, 2), 0.1)),
    "OperatorHK": lambda: OperatorHK(np.arange(6.0).reshape(2, 3)),
    "ConjugationPair": lambda: canonical_pair(2, 3),
    "GramFactor": lambda: gram_factor(np.arange(6.0).reshape(3, 2)),
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


# entry taking a pair -> its call with a pair that does not fit the operand:
# the approximations take an operator H -> K and a pair from K to H, the
# others a dst x src matrix or contraction
PAIR_MISFITS = {
    "approximation_profile": lambda: approximation_profile(
        _operator(2, 4), random_pair(4, 2, 0)),
    "symmetric_approximant": lambda: symmetric_approximant(
        _operator(2, 4), random_pair(4, 2, 0), 1),
    "symmetry_residual": lambda: symmetry_residual(_operator(2, 3), canonical_pair(2, 3)),
    "symmetry_residuals": lambda: symmetry_residuals([(_operator(2, 3), canonical_pair(2, 3))]),
    "induced_pair": lambda: induced_pair(BallPoint(np.zeros((3, 3))), canonical_pair(2, 3)),
    "induced_pairs": lambda: induced_pairs([BallPoint(np.zeros((3, 3)))], canonical_pair(2, 3)),
    "symmetric_part": lambda: symmetric_part(np.ones((2, 3)), canonical_pair(2, 3)),
    "extension_blocks": lambda: extension_blocks(np.ones((3, 3)), canonical_pair(2, 3)),
    "symmetric_extension": lambda: symmetric_extension(_operator(2, 3), canonical_pair(2, 3)),
}


@pytest.mark.parametrize("name", PAIR_MISFITS)
def test_a_pair_that_does_not_fit_is_a_shape_mismatch(name):
    # one rule for every entry that takes a pair: require_shape's error
    with pytest.raises(ShapeMismatch, match=r" has shape \(\d+, \d+\), expected \(\d+, \d+\)$"):
        PAIR_MISFITS[name]()


# batched form -> (a batch of two members that share a wrong shape, the
# one-item form on one of them)
BATCH_SHAPE_CHECKED = {
    "mobius_images": (
        lambda: mobius_images(zero_point(2, 2), [zero_point(3, 2)] * 2),
        lambda: mobius(zero_point(2, 2), zero_point(3, 2)),
    ),
    "ball_dists": (
        lambda: ball_dists([(zero_point(3, 2), zero_point(2, 3))] * 2),
        lambda: ball_dist(zero_point(3, 2), zero_point(2, 3)),
    ),
    "operator_dists": (
        lambda: operator_dists([(_operator(2, 3), _operator(3, 2))] * 2),
        lambda: operator_dist(_operator(2, 3), _operator(3, 2)),
    ),
    "induced_pairs": (
        lambda: induced_pairs([BallPoint(np.zeros((3, 3)))] * 2, canonical_pair(2, 3)),
        lambda: induced_pair(BallPoint(np.zeros((3, 3))), canonical_pair(2, 3)),
    ),
}


@pytest.mark.parametrize("name", BATCH_SHAPE_CHECKED)
def test_a_batch_of_the_wrong_shape_is_refused_as_one_item_is(name):
    # a batch is checked once, on the stack it forms, with its one-item text
    batch, one_item = BATCH_SHAPE_CHECKED[name]
    with pytest.raises(ShapeMismatch, match=r"has shape \(\d+, \d+\), expected") as alone:
        one_item()
    with pytest.raises(ShapeMismatch) as info:
        batch()
    assert str(info.value) == str(alone.value)


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
    "symmetric_approximant depth": lambda: symmetric_approximant(
        zero_operator(3, 1), random_pair(1, 3, 0), 1.5
    ),
}


@pytest.mark.parametrize("name", NON_INTEGER_SIZES)
def test_a_non_integer_size_raises_bad_dims(name):
    with pytest.raises(BadDims, match=r"is not an integer$"):
        NON_INTEGER_SIZES[name]()


def test_as_integers_takes_keywords_only():
    # every integer argument that is refused raises BadDims; no caller picks
    # another class
    assert as_integers(n=np.int64(2), m=True) == (2, 1)
    with pytest.raises(TypeError):
        as_integers(BadDims, n=1)


def test_numpy_integer_sizes_pass():
    assert zero_point(np.int64(2), np.int32(1)).shape == (2, 1)
    assert canonical_pair(np.int64(1), np.int64(2)).dim_dst == 2
    report = ensemble_experiment(np.int64(2), 1, np.int64(1), np.int64(0), jobs=np.int64(1))
    assert len(report.results) == 1


def test_bool_sizes_are_the_ints_one_and_zero():
    assert zero_point(2, True).shape == (2, 1)
    assert zero_operator(True, 1).mat.shape == (1, 1)
    for pair in (canonical_pair(True, 2), random_pair(True, 2, 0)):
        assert (pair.dim_src, pair.dim_dst) == (1, 2)
    with pytest.raises(ShapeMismatch, match=re.escape("got (2, 0)")):
        zero_point(2, False)
    with pytest.raises(BadDims, match=re.escape("got (m=0, n=2)")):
        canonical_pair(False, 2)


def test_numpy_integer_arguments_are_reported_as_python_ints():
    report = ensemble_experiment(
        np.int64(3), np.int64(2), np.int64(1), np.int64(0), jobs=np.int64(1)
    )
    fields = (report.dim_h, report.dim_k, report.trials, report.seed)
    assert fields == (3, 2, 1, 0)
    assert all(type(v) is int for v in fields)
    text = report_json(report)
    assert text == report_json(ensemble_experiment(3, 2, 1, 0))
    assert json.loads(text)["dim_h"] == 3


# call -> the matrix shape its message quotes; an operator H -> K is dim_k x dim_h
SIZES_BELOW_ONE = {
    "zero_point(-1, 2)": (lambda: zero_point(-1, 2), (-1, 2)),
    "zero_operator(2, -1)": (lambda: zero_operator(2, -1), (-1, 2)),
    "zero_operator(-2, 3)": (lambda: zero_operator(-2, 3), (3, -2)),
    "zero_point(0, 3)": (lambda: zero_point(0, 3), (0, 3)),
}


@pytest.mark.parametrize("name", SIZES_BELOW_ONE)
def test_a_size_below_one_is_refused_quoting_the_matrix_shape(name):
    call, shape = SIZES_BELOW_ONE[name]
    message = f"matrix dimensions must be positive, got {shape}"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        call()


# calls whose matrix numpy cannot index, refused before any allocation
SIZES_PAST_THE_INDEX_RANGE = {
    "zero_point(10**20, 2)": (lambda: zero_point(10**20, 2), (10**20, 2)),
    "canonical_pair(1, 10**20)": (lambda: canonical_pair(1, 10**20), (10**20, 1)),
    "random_pair(10**20, 1, 0)": (lambda: random_pair(10**20, 1, 0), (10**20, 1)),
    "zero_operator(10**10, 10**10)": (lambda: zero_operator(10**10, 10**10), (10**10, 10**10)),
    "ensemble_experiment(10**20, 1, 1, 0)": (
        lambda: ensemble_experiment(10**20, 1, 1, 0), (1, 10**20)),
    "run_identities(0, 1, 10**20, 1, 1e-8)": (
        lambda: run_identities(0, 1, 10**20, 1, 1e-8), (1, 10**20)),
}


@pytest.mark.parametrize("name", SIZES_PAST_THE_INDEX_RANGE)
def test_a_size_past_numpys_index_range_is_refused_quoting_the_shape(name):
    call, shape = SIZES_PAST_THE_INDEX_RANGE[name]
    message = f"matrix of shape {shape} exceeds numpy's index range"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        call()


REFUSED_TOLS = {
    "str": "1e-8",
    "None": None,
    "numpy bool": np.bool_(True),
    "complex": 1j,
    "nan": float("nan"),
    "int past the float range": 10**400,  # not finite as a float
}


@pytest.mark.parametrize("name", REFUSED_TOLS)
def test_a_tol_that_is_not_a_positive_finite_real_raises_bad_dims(name):
    with pytest.raises(BadDims, match=r"^need trials >= 0 and tol > 0$"):
        run_identities(0, 1, 3, 2, REFUSED_TOLS[name])


def test_a_numpy_tol_gives_reports_of_python_values():
    reports = run_identities(0, 1, 3, 2, np.float32(1e-8))
    assert all(type(r.passed) is bool for r in reports)
    assert reports == run_identities(0, 1, 3, 2, float(np.float32(1e-8)))
    json.dumps([vars(r) for r in reports])


_SMALL = list(range(-2, 4))
_ARGUMENT = st.sampled_from(
    _SMALL + [np.int8(v) for v in _SMALL] + [np.int64(v) for v in _SMALL]
    + [True, False, np.bool_(True), np.bool_(False), 1.5, 2.0, "2", None]
)
_T = OperatorHK(np.arange(1.0, 7.0).reshape(2, 3) / 10)  # H = C^3 -> K = C^2

# entry -> (its call on drawn arguments, how many it takes); the last
# argument of run_identities is tol
PARSING_ENTRIES = {
    "zero_point": (zero_point, 2),
    "zero_operator": (zero_operator, 2),
    "canonical_pair": (canonical_pair, 2),
    "random_pair": (random_pair, 3),
    "symmetric_approximant": (
        lambda depth: symmetric_approximant(_T, random_pair(2, 3, 0), depth), 1
    ),
    "ensemble_experiment": (ensemble_experiment, 5),
    "run_identities": (run_identities, 5),
}


@given(
    entry=st.sampled_from(list(PARSING_ENTRIES)),
    args=st.lists(_ARGUMENT, min_size=5, max_size=5),
)
@example(entry="ensemble_experiment", args=[np.int8(2), True, np.int64(2), False, np.int64(2)])
@example(entry="run_identities", args=[np.int64(1), True, np.int8(2), 1, np.int64(1)])
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_an_entry_returns_or_raises_a_typed_error(entry, args):
    call, arity = PARSING_ENTRIES[entry]
    try:
        result = call(*args[:arity])
    except OpballError:
        return
    if entry == "ensemble_experiment":
        text = report_json(result)
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
    elif entry == "run_identities":
        records = [vars(r) for r in result]
        assert json.loads(json.dumps(records)) == records
