import numpy as np
import pytest

from radiuslab.ensembles import EnsembleSpec, generate
from radiuslab.matfile import (
    MatrixFormatError,
    dumps_matrix,
    load_matrix,
    loads_matrix,
    save_matrix,
)


def test_round_trip_bitwise(tmp_path):
    for seed in range(10):
        a = generate(EnsembleSpec("ginibre", 4, 500 + seed, scale=10.0 ** (seed - 5)))
        path = tmp_path / f"m{seed}.json"
        save_matrix(path, a)
        back = load_matrix(path)
        assert np.array_equal(back, a)


def test_round_trip_awkward_values():
    a = np.array([[1 / 3 + 1j * np.pi, 1e-300 - 1e300j],
                  [-0.1 + 0.3j, 7.0 + 0j]])
    assert np.array_equal(loads_matrix(dumps_matrix(a)), a)


def test_rectangular_supported():
    a = np.arange(6, dtype=float).reshape(2, 3) + 0j
    assert np.array_equal(loads_matrix(dumps_matrix(a)), a)


def test_document_shape():
    text = dumps_matrix(np.eye(2))
    import json

    doc = json.loads(text)
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["data"][0] == [1.0, 0.0]
    assert len(doc["data"]) == 4


@pytest.mark.parametrize("text,field", [
    ("[]", "document"),
    ("{}", "rows"),
    ('{"rows": 2, "cols": 2}', "data"),
    ('{"rows": 0, "cols": 2, "data": []}', "rows"),
    ('{"rows": 2, "cols": 2, "data": [[1, 0]]}', "data"),
    ('{"rows": 1, "cols": 1, "data": [[1]]}', "data[0]"),
    ('{"rows": 1, "cols": 1, "data": [["x", 0]]}', "data[0]"),
    ("not json", "document"),
    pytest.param("[" * 100_000 + "]" * 100_000, "document", id="deeply-nested"),
])
def test_errors_name_offending_field(text, field):
    with pytest.raises(MatrixFormatError) as exc:
        loads_matrix(text)
    assert str(exc.value).startswith(field)


def test_integer_beyond_the_float_range_is_not_finite():
    text = '{"rows": 1, "cols": 2, "data": [[0, 0], [1' + "0" * 400 + ", 0]]}"
    with pytest.raises(MatrixFormatError, match=r"^data\[1\]: entries must be finite$"):
        loads_matrix(text)


def test_non_utf8_file_names_the_document(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"rows": 1, "cols": 1, "data": [[1, 0]]} é'.encode("latin-1"))
    with pytest.raises(MatrixFormatError, match="^document: "):
        load_matrix(path)
