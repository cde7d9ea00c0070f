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
    if not isinstance(obj, dict):
        raise MatrixFileError("matrix object must be a JSON object")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"matrix object missing/invalid fields: {exc}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFileError(f"dimensions must be positive, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFileError(
            f"data length {len(data) if isinstance(data, list) else '?'} != rows*cols = {rows * cols}"
        )
    try:
        flat = [complex(float(re), float(im)) for re, im in data]
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"entries must be [re, im] pairs: {exc}") from exc
    try:
        return as_cmat(np.array(flat, dtype=np.complex128).reshape(rows, cols))
    except ShapeMismatch as exc:
        raise MatrixFileError(str(exc)) from exc


def write_matrix(path, mat: np.ndarray) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(mat)) + "\n")


def read_matrix(path) -> np.ndarray:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    return obj_to_matrix(obj)


def write_pair(path, pair: ConjugationPair) -> None:
    obj = {"side": pair.side.value, "j_fwd": matrix_to_obj(pair.j_fwd)}
    Path(path).write_text(json.dumps(obj) + "\n")


def read_pair(path) -> ConjugationPair:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
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
