"""Deterministic 17-digit serialization."""

import json

import numpy as np
import pytest

from bolab.serialize import dumps, format_float, write_csv, write_json


def test_format_round_trips_exactly():
    rng = np.random.default_rng(2)
    values = [0.1, 1.0 / 3.0, 2000.0, 1e-300, -1.2345678901234567e17, 0.0]
    values += list(rng.standard_normal(50))
    values += list(10.0 ** rng.uniform(-200, 200, 20) * np.sign(rng.standard_normal(20)))
    for v in values:
        assert float(format_float(v)) == v


def test_format_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            format_float(bad)


def test_dumps_is_valid_json_and_stable():
    obj = {"a": 1, "b": [0.1, True, None, "text \"quoted\""], "c": {"nested": 2.5}, "d": []}
    text = dumps(obj)
    assert json.loads(text) == obj
    assert dumps(json.loads(text)) == text


def test_dumps_handles_numpy_scalars():
    out = json.loads(dumps({"x": np.float64(0.25), "n": np.int64(3)}))
    assert out == {"x": 0.25, "n": 3}


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "value"], [[0.1, np.float64(-2.5)], [2.0, 1e-300]])
    lines = path.read_text().splitlines()
    assert lines == ["x,value", "0.10000000000000001,-2.5", "2,1e-300"]


def test_write_json(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"e": 1.5})
    assert json.loads(path.read_text()) == {"e": 1.5}


def test_strings_with_control_and_non_ascii_characters_round_trip():
    text = ["line\nbreak", "tab\there", "nul\x00byte", 'quote "q"', "back\\slash", "Born–Oppenheimer ψ"]
    obj = {"strings": text, "mixed": [{"s": s, "n": 3, "ok": True, "none": None, "x": 0.5} for s in text],
           text[0]: {text[5]: text[2]}}
    text_out = dumps(obj)
    assert json.loads(text_out) == obj
    assert dumps(json.loads(text_out)) == text_out
