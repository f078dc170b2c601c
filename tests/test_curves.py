import pytest

from quartichull import curves
from quartichull.rational import validate_param


def test_registry_names():
    names = curves.curve_names()
    assert names == ["egg", "bean", "waterdrop", "lemniscate", "folium",
                     "smoothconvex", "fermat"]


def test_lookup_errors():
    with pytest.raises(KeyError):
        curves.lookup("circle")


def test_records_are_quartics():
    for r in curves.registry():
        assert r.implicit.degree == 4
        assert r.expected_verdict in ("Exact", "NotExact")
        assert r.genus in (0, 2, 3)


def test_params_match_implicit_equations():
    for r in curves.registry():
        if r.param is not None:
            assert validate_param(r.param, r.implicit), r.name


def test_genus_zero_curves_have_params_where_published():
    # both stored parametrizations belong to genus-0 curves
    for r in curves.registry():
        if r.param is not None:
            assert r.genus == 0, r.name


def test_to_json_round_trip():
    r = curves.lookup("folium")
    assert r.name == "folium"
    assert r.genus == 0
    assert r.param.to_dict()["p0"] == ["1", "0", "2", "0", "1"]
    assert list(r.singularities[0][0].normalized().coords) == [1.0, 0.0, 0.0]


def test_registry_is_stable():
    a = curves.registry()
    b = curves.registry()
    assert [r.name for r in a] == [r.name for r in b]
    a.clear()  # callers get copies; the registry itself is untouched
    assert curves.curve_names()
