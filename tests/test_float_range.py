"""The float range is one decision, made in the kernel: an input of finite
entries gives finite values or raises a typed error, with no numpy warning.

The table holds calls whose results leave the float range although every
input entry is finite, among them entries whose modulus overflows where
their real and imaginary parts do not.  ``filterwarnings = error`` fails any
test in which a numpy RuntimeWarning escapes.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opball import (
    ConjugationPair,
    OpballError,
    OperatorHK,
    ShapeMismatch,
    Side,
    adj,
    conj_apply,
    fro_norm,
    gram_factor,
    herm_eig,
    inverse,
    left_defect,
    op_norm,
    random_pair,
    symmetric_extension,
    symmetric_part,
    symmetry_residual,
)

OUT_OF_RANGE = "result exceeds the float range (max 1.798e+308)"
Z = 1.7e308 + 1.7e308j  # |Z| = 2.4e308 overflows, its parts do not
PAIR = random_pair(2, 2, 0)
HUGE = np.full((2, 2), 1.7e308)

PAST_THE_RANGE = {
    "op_norm": lambda: op_norm([[Z]]),
    "gram_factor": lambda: gram_factor([[Z, 0]]).norm,
    "op_norm-mixed-scales": lambda: op_norm([[Z, 1], [1, 1]]),
    "herm_eig": lambda: herm_eig([[1.7e308, Z], [Z.conjugate(), 1]]),
    "inverse-subnormal": lambda: inverse([[1e-310]]),
    "fro_norm-real": lambda: fro_norm(np.full((2, 2), 1e308)),
    "fro_norm-complex": lambda: fro_norm(np.array([[Z]])),
    "symmetric_part": lambda: symmetric_part(HUGE, PAIR),
    "symmetric_extension": lambda: symmetric_extension(OperatorHK(HUGE), PAIR),
    "ConjugationPair": lambda: ConjugationPair([[1e200]], Side.BWD_FWD),
    "conj_apply": lambda: conj_apply(PAIR, "fwd", [1.7e308, -1.7e308]),
}


@pytest.mark.parametrize("name", PAST_THE_RANGE)
def test_a_result_past_the_float_range_raises_one_error(name):
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(OUT_OF_RANGE)}$"):
        PAST_THE_RANGE[name]()


def test_the_inverse_of_an_entry_whose_modulus_overflows():
    out = inverse([[Z]])
    # 1/Z = (1 - i) / (2 * 1.7e308), a subnormal
    assert out.shape == (1, 1)
    assert abs(complex(out[0, 0]) * Z - 1) < 1e-14


def test_fro_norm_refuses_an_empty_dimension_as_op_norm_does():
    for shape in ((0, 3), (2, 0, 3)):
        text = f"matrix dimensions must be positive, got {shape}"
        for call in (fro_norm, op_norm):
            with pytest.raises(ShapeMismatch, match=f"^{re.escape(text)}$"):
                call(np.zeros(shape))


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_fro_norm_refuses_an_entry_that_is_not_finite_as_op_norm_does(entry):
    for call in (fro_norm, op_norm):
        for m in ([[entry]], [[[1.0, 0.0]], [[0.0, entry]]]):
            with pytest.raises(ShapeMismatch, match="^matrix entries must be finite$"):
                call(np.array(m, dtype=complex))


# a real or imaginary part: 0 or +-2^k over the whole float range,
# subnormals included
_PART = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)),
)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(_PART, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


@functools.cache
def _pair(dim_src, dim_dst):
    """A pair between the spaces of a dim_dst x dim_src matrix."""
    return random_pair(dim_src, dim_dst, 0)


def _square(m):
    """The leading square block of ``m``."""
    k = min(m.shape)
    return m[:k, :k]


def _hermitian(m):
    """The Hermitian matrix of the strict upper triangle and the real
    diagonal of ``m``'s leading square block: each entry is one drawn part,
    never a sum, so it stays finite."""
    upper = np.triu(_square(m), 1)
    return upper + adj(upper) + np.diag(m.diagonal().real)


def _factor(m):
    f = gram_factor(m)
    return f.norm, f.eigenvalues, f.basis


# call -> what it computes from a drawn matrix M; every array of its result
# must be finite
CALLS = {
    "op_norm": op_norm,
    "gram_factor": _factor,
    "fro_norm": fro_norm,
    "inverse": lambda m: inverse(_square(m)),
    "herm_eig": lambda m: herm_eig(_hermitian(m)),
    "ConjugationPair": lambda m: ConjugationPair(m, Side.BWD_FWD).j_fwd,
    "symmetric_part": lambda m: symmetric_part(m, _pair(*m.shape[::-1])),
    "symmetry_residual": lambda m: symmetry_residual(OperatorHK(m), _pair(*m.shape[::-1])),
    "left_defect": lambda m: left_defect(OperatorHK(m), OperatorHK(m[::-1, ::-1])),
}


@given(m=_matrices())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_finite_entries_give_finite_values_or_a_typed_error(m):
    for name, call in CALLS.items():
        try:
            result = call(m)
        except OpballError:
            continue
        values = result if isinstance(result, tuple) else (result,)
        assert all(np.isfinite(v).all() for v in values), name
