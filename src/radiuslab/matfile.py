"""Text format for complex matrices.

A matrix document is JSON with three fields::

    {"rows": 2, "cols": 2, "data": [[re, im], [re, im], ...]}

`data` holds the entries in row-major order as [re, im] pairs.  The writer
prints every float with 17 significant digits, which is enough for float64
values to round-trip bit-exactly through the decimal text.
"""

from __future__ import annotations

import json

import numpy as np

from .matcore import as_matrix


class MatrixFormatError(ValueError):
    """The document does not follow the matrix file schema; the message
    names the offending field."""


def dumps_matrix(a) -> str:
    arr = as_matrix(a)
    rows, cols = arr.shape
    pairs = ",\n    ".join(
        f"[{z.real:.17g}, {z.imag:.17g}]" for z in arr.reshape(-1)
    )
    return (
        "{\n"
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        f'  "data": [\n    {pairs}\n  ]\n'
        "}\n"
    )


def loads_matrix(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"document: not valid JSON ({exc})") from exc
    except RecursionError:
        raise MatrixFormatError("document: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise MatrixFormatError("document: expected a JSON object")
    for field in ("rows", "cols", "data"):
        if field not in doc:
            raise MatrixFormatError(f"{field}: missing")
    rows, cols = doc["rows"], doc["cols"]
    for field, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise MatrixFormatError(f"{field}: expected a positive integer, got {value!r}")
    data = doc["data"]
    if not isinstance(data, list):
        raise MatrixFormatError("data: expected an array of [re, im] pairs")
    if len(data) != rows * cols:
        raise MatrixFormatError(
            f"data: expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise MatrixFormatError(f"data[{k}]: expected an [re, im] pair, got {pair!r}")
        try:
            out[k] = complex(float(pair[0]), float(pair[1]))
        except OverflowError:   # an integer beyond the float range
            raise MatrixFormatError(f"data[{k}]: entries must be finite") from None
    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise MatrixFormatError(f"data[{bad}]: entries must be finite")
    return out.reshape(rows, cols)


def save_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(a))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"document: not valid UTF-8 ({exc})") from exc
    return loads_matrix(text)
