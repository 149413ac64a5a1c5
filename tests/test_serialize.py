import json

import numpy as np
import pytest

from sapcert.errors import InvalidInput
from sapcert.patterns import SignPattern
from sapcert.serialize import (
    format_matrix_text,
    json_dumps,
    parse_complex_list,
    parse_matrix_text,
)


def test_json_floats_round_trip():
    payload = {"a": 1 / 3, "b": [0.5, 1.0, 2.0], "c": {"d": -1e-300}}
    text = json_dumps(payload)
    back = json.loads(text)
    assert back["a"] == 1 / 3
    assert back["b"] == [0.5, 1.0, 2.0]
    assert back["c"]["d"] == -1e-300


def test_json_deterministic_and_escaped():
    assert json_dumps({"x": True, "y": None}) == '{"x": true, "y": null}'
    assert json_dumps('q"\\') == '"q\\"\\\\"'
    assert json_dumps(0.1) == "0.10000000000000001"


def test_json_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        json_dumps(float("nan"))


def test_matrix_text_round_trip():
    M = np.array([[1.0, -0.5], [1 / 3, 2.0]])
    back = parse_matrix_text(format_matrix_text(M))
    assert np.array_equal(M, back)
    # trailing blank lines are no rows
    assert np.array_equal(M, parse_matrix_text(format_matrix_text(M) + "\n \n"))


def test_matrix_parse_diagnostics():
    with pytest.raises(InvalidInput, match="line 1"):
        parse_matrix_text("2\n1 2\n3 4\n")
    with pytest.raises(InvalidInput, match="line 3"):
        parse_matrix_text("2 2\n1 2\n3\n")
    with pytest.raises(InvalidInput, match="line 2, column 2"):
        parse_matrix_text("1 2\n1 x\n")
    with pytest.raises(InvalidInput, match="line 3, column 2: non-finite number 'nan'"):
        parse_matrix_text("2 2\n1 2\n3 nan\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: empty {} file"),
        ("2\n", "line 1: expected 'n m' dimension header"),
        ("2 x\n", "line 1: non-integer dimensions"),
        ("0 2\n", "line 1: dimensions must be positive"),
        ("2 2\n+-\n", "expected 2 {} rows, found 1"),
        ("2 2\n+-\n-+\n+-\n\n", "expected 2 {} rows, found 3"),
    ],
)
def test_grid_header_messages_shared_by_both_formats(text, message):
    for parse, noun in ((parse_matrix_text, "matrix"), (SignPattern.from_text, "pattern")):
        with pytest.raises(InvalidInput) as info:
            parse(text)
        assert str(info.value) == message.format(noun)


def test_parse_complex_list():
    zs = parse_complex_list("1+2i,1-2i,-1,-3")
    assert zs == [1 + 2j, 1 - 2j, -1, -3]
    with pytest.raises(InvalidInput, match="eigenvalue 2"):
        parse_complex_list("1,?")
