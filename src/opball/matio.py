"""Matrix and conjugation-pair files.

Matrices travel as JSON objects {"rows": R, "cols": C, "data": [[re, im],
...]} with the entries row-major.  JSON was chosen over a binary format for
diffability; values are serialized with Python's shortest round-trip float
representation, so write-then-read reproduces every entry bit for bit.

A conjugation pair file is {"side": "bwd_fwd" | "fwd_bwd", "j_fwd": <matrix
object>}, the pair's one free matrix: the backward part is its transpose by
the pairing axiom.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import OpballError, ShapeMismatch
from .matkernel import as_cmat
from .symmetry import ConjugationPair, Side


class MatrixFileError(OpballError):
    """A matrix or pair file failed to parse or validate."""


def matrix_to_obj(mat: np.ndarray) -> dict:
    m = as_cmat(mat)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(v.real), float(v.imag)] for v in m.reshape(-1)],
    }


def obj_to_matrix(obj) -> np.ndarray:
    """The matrix of a parsed matrix object.  ``rows`` and ``cols`` must be
    JSON integers and each entry a [re, im] list of two JSON numbers;
    anything else (strings, bools, 2.7 rows) is a :class:`MatrixFileError`."""
    if not isinstance(obj, dict):
        raise MatrixFileError("matrix object must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise MatrixFileError(f"matrix object missing field {exc}") from exc
    # json parses a number to exactly an int or a float, and a bool is neither
    if type(rows) is not int or type(cols) is not int:
        raise MatrixFileError(f"rows and cols must be JSON integers, got {rows!r} and {cols!r}")
    if rows < 1 or cols < 1:
        raise MatrixFileError(f"dimensions must be positive, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        # no product in the text: it may pass the int-to-str digit limit
        length = len(data) if isinstance(data, list) else "?"
        raise MatrixFileError(f"data length {length} does not match {rows}x{cols}")
    pairs = set(map(type, data)) == {list} and set(map(len, data)) == {2}
    parts = list(chain.from_iterable(data)) if pairs else []
    if not pairs or not set(map(type, parts)) <= {int, float}:
        raise MatrixFileError("entries must be [re, im] pairs of JSON numbers")
    try:
        parts = np.array(parts, dtype=np.float64)
    except OverflowError as exc:
        raise MatrixFileError(f"entry beyond the float range: {exc}") from exc
    try:
        return as_cmat(parts.view(np.complex128).reshape(rows, cols))
    except ShapeMismatch as exc:
        raise MatrixFileError(str(exc)) from exc


def write_matrix(path, mat: np.ndarray) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(mat)) + "\n")


def read_matrix(path) -> np.ndarray:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # bad JSON, or an integer past the digit limit
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    return obj_to_matrix(obj)


def write_pair(path, pair: ConjugationPair) -> None:
    obj = {"side": pair.side.value, "j_fwd": matrix_to_obj(pair.j_fwd)}
    Path(path).write_text(json.dumps(obj) + "\n")


def read_pair(path) -> ConjugationPair:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # bad JSON, or an integer past the digit limit
        raise MatrixFileError(f"cannot read pair file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "side" not in obj or "j_fwd" not in obj:
        raise MatrixFileError("pair file needs 'side' and 'j_fwd' fields")
    try:
        side = Side(obj["side"])
    except ValueError as exc:
        raise MatrixFileError(f"unknown side {obj['side']!r}") from exc
    fwd = obj_to_matrix(obj["j_fwd"])
    try:
        return ConjugationPair(fwd, side)
    except OpballError as exc:
        raise MatrixFileError(f"pair invariants fail: {exc}") from exc
