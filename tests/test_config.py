import datetime as dt

import pytest

from soilspec.config import read_yaml, typed
from soilspec.errors import ConfigError


@pytest.mark.parametrize("value, kind, expected", [
    (3, int, 3),
    (3, float, 3.0),
    (2.5, float, 2.5),
    (True, bool, True),
    ("top", str, "top"),
    ([1, 2], list, [1, 2]),
    ({"a": 1}, dict, {"a": 1}),
    (dt.date(2017, 1, 2), dt.date, dt.date(2017, 1, 2)),
    ("2017-01-02", dt.date, dt.date(2017, 1, 2)),
])
def test_typed_accepts(value, kind, expected):
    got = typed({"k": value}, "k", kind, "d.yaml")
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("value, kind", [
    (True, int), (True, float), (7.9, int), ("3", int), ("300", float),
    (float("nan"), float), (float("inf"), float), (10**400, float),
    ("false", bool), (1, bool), (5, str), ("", str), ("abc", dt.date),
    ("2017-13-01", dt.date), (dt.datetime(2017, 1, 2, 10), dt.date), ([1], dict),
])
def test_typed_rejects_without_coercing(value, kind):
    with pytest.raises(ConfigError, match=r"^d\.yaml: 'k' must be "):
        typed({"k": value}, "k", kind, "d.yaml")


def test_typed_absent_null_positive_and_non_mapping():
    assert typed({}, "k", int, "d.yaml", default=7) == 7
    assert typed({"k": None}, "k", int, "d.yaml", default=7) == 7
    with pytest.raises(ConfigError, match="d.yaml: missing 'k'"):
        typed({"k": None}, "k", int, "d.yaml")
    assert typed({"k": 1}, "k", int, "d.yaml", positive=True) == 1
    for bad in (0, -7):
        with pytest.raises(ConfigError, match="'k' must be an integer > 0"):
            typed({"k": bad}, "k", int, "d.yaml", positive=True)
    with pytest.raises(ConfigError, match="d.yaml: expected a mapping with 'k'"):
        typed("top", "k", int, "d.yaml")


@pytest.mark.parametrize("text, expected", [
    ("", {}),
    ("# only a comment\n", {}),
    ("a: 1\n", {"a": 1}),
    ("d: 2017-01-02\n", {"d": dt.date(2017, 1, 2)}),
    ("d: 2017-13-01\n", {"d": "2017-13-01"}),
])
def test_read_yaml(tmp_path, text, expected):
    path = tmp_path / "d.yaml"
    path.write_text(text)
    assert read_yaml(path) == expected


@pytest.mark.parametrize("text, match", [
    ("a: [1\n", "invalid YAML"),
    ("- 1\n- 2\n", "document must be a mapping"),
    ("a: !!int abc\n", "invalid YAML"),
])
def test_read_yaml_errors_name_the_file(tmp_path, text, match):
    path = tmp_path / "d.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"d.yaml: {match}"):
        read_yaml(path)
