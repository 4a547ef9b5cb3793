import functools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import worldline.catalog as cat
import worldline.expr as ex
import worldline.geometry as geo


def test_builtin_listing():
    names = cat.list_builtins()
    assert names == ("clifton-pohl", "flat-lorentz-torus", "null-plane-cubic",
                     "riemann-flat-torus", "riemann-superlinear", "t3-magnetic")
    with pytest.raises(geo.ValidationError):
        cat.builtin("no-such-scenario")


def test_builtins_validate_and_carry_expectations():
    for name in cat.list_builtins():
        s = cat.builtin(name)
        assert s.name == name
        assert s.expected_classification in ("BlowupAt", "CompleteToHorizon")
        assert s.expected_prediction in ("Complete", "NoPrediction")
        assert s.note


def test_round_trip_is_byte_identical(tmp_path):
    # float("1e999") is inf: a file may write an infinite literal, and save
    # prints it back
    infinite = cat.scenario_from_dict(scenario_doc(
        name="infinite-literal", dimension=1, coordinates=["x"], metric={"g_0_0": "1"},
        domain={"lower": [None], "upper": [None], "exclude_origin_radius": None},
        fields={"F": None, "X": ["x^2 + x/1e999"], "V": None, "K": None},
        initial={"q": [1.0], "v": [1.0]}))
    for s in [*map(cat.builtin, cat.list_builtins()), infinite]:
        p1 = tmp_path / f"{s.name}.json"
        p2 = tmp_path / f"{s.name}_again.json"
        cat.save(s, p1)
        s2 = cat.load(p1)
        cat.save(s2, p2)
        assert p1.read_bytes() == p2.read_bytes(), s.name
        assert s2.manifold == s.manifold
        assert s2.fields == s.fields
        assert s2.initial == s.initial
        assert s2.config == s.config
    assert json.loads(p1.read_text())["fields"]["X"] == ["x^2 + x/1e999"]


def test_normative_keys_present(tmp_path):
    p = tmp_path / "s.json"
    cat.save(cat.builtin("t3-magnetic"), p)
    doc = json.loads(p.read_text())
    assert set(doc) == {"name", "dimension", "coordinates", "metric",
                       "quotient", "domain", "fields", "initial", "config"}
    assert set(doc["fields"]) == {"F", "X", "V", "K"}
    assert set(doc["initial"]) == {"q", "v"}
    assert "g_0_0" in doc["metric"]
    assert doc["quotient"] == {"lattice": [1.0, 1.0, 1.0]}
    # unbounded chart bounds serialize as nulls
    assert doc["domain"]["lower"] == [None, None, None]


def test_t3_parameters_are_injected():
    s = cat.builtin("t3-magnetic", b=2.0, potential_amplitude=0.0)
    F = s.fields.force_operator
    assert ex.to_text(F[1][2]) == "2"
    assert ex.to_text(F[2][1]) == "-2"
    assert ex.to_text(s.fields.potential).startswith("0*")


@pytest.mark.parametrize("params", [{"b": "x"}, {"b": True},
                                    {"potential_amplitude": "0.1"}])
def test_t3_parameters_must_be_numbers(params):
    with pytest.raises(geo.ValidationError, match="must be a JSON number"):
        cat.builtin("t3-magnetic", **params)


def scenario_doc(**overrides):
    doc = {
        "name": "demo",
        "dimension": 2,
        "coordinates": ["x", "y"],
        "metric": {"g_0_0": "1", "g_1_1": "1"},
        "quotient": None,
        "domain": {"lower": [None, None], "upper": [None, None],
                   "exclude_origin_radius": None},
        "fields": {"F": None, "X": None, "V": None, "K": None},
        "initial": {"q": [0.0, 0.0], "v": [1.0, 0.0]},
        "config": {"signature": "riemannian"},
    }
    doc.update(overrides)
    return doc


def test_from_dict_validation_errors(tmp_path):
    with pytest.raises(geo.ValidationError):
        cat.scenario_from_dict(scenario_doc(dimension=3))
    with pytest.raises(geo.ValidationError):
        cat.scenario_from_dict(scenario_doc(
            metric={"g_0_1": "x", "g_1_0": "y"}))  # unequal mirror entries
    with pytest.raises(ex.UnknownIdentifierError):
        cat.scenario_from_dict(scenario_doc(
            metric={"g_0_0": "1 + z^2", "g_1_1": "1"}))
    with pytest.raises(geo.ValidationError):
        cat.scenario_from_dict(scenario_doc(
            fields={"F": None, "X": ["x"], "V": None, "K": None}))
    with pytest.raises(geo.ValidationError):
        cat.scenario_from_dict(scenario_doc(quotient={"mystery": 1}))
    with pytest.raises(geo.ValidationError):
        cat.scenario_from_dict(scenario_doc(
            quotient={"lattice": [1.0], "scaling": 2.0}))
    with pytest.raises(geo.ValidationError):
        doc = scenario_doc()
        del doc["coordinates"]
        cat.scenario_from_dict(doc)
    with pytest.raises(geo.ValidationError):
        cat.scenario_from_dict(scenario_doc(
            metric={"g_5_0": "1", "g_1_1": "1"}))
    # the initial arity and an empty metric are refused by validation, which
    # every file gets on load
    for doc in (scenario_doc(initial={"q": [0.0], "v": [0.0, 0.0]}),
                scenario_doc(metric={})):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(geo.ValidationError):
            cat.load(path)


def test_mirrored_metric_keys_accept_equal_entries():
    s = cat.scenario_from_dict(scenario_doc(
        metric={"g_0_1": "x * y", "g_1_0": "x * y",
                "g_0_0": "1", "g_1_1": "1"}))
    assert ex.to_text(s.manifold.metric[0][1]) == "x*y"


def test_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    for text in ("{not json", "[" * 100000 + "]" * 100000):  # the second is too deep
        p.write_text(text)
        with pytest.raises(geo.ValidationError, match="broken.json"):
            cat.load(p)
    p.write_bytes(b"\xff\xfe{")  # not UTF-8
    with pytest.raises(geo.ValidationError, match="broken.json"):
        cat.load(p)
    with pytest.raises(geo.ValidationError):
        # initial point far outside a bounded chart
        doc = scenario_doc(domain={"lower": [-1, -1], "upper": [1, 1],
                                   "exclude_origin_radius": None},
                           initial={"q": [5.0, 0.0], "v": [0.0, 0.0]})
        good = tmp_path / "bad_initial.json"
        good.write_text(json.dumps(doc))
        cat.load(good)


def test_integration_config_merging():
    s = cat.builtin("clifton-pohl")
    cfg = s.integration_config()
    assert cfg.t_max == 2.0  # scenario default
    cfg2 = s.integration_config(t_max=7.0, rtol=1e-8)
    assert cfg2.t_max == 7.0
    assert cfg2.rtol == 1e-8
    # None overrides fall through to the scenario values
    cfg3 = s.integration_config(t_max=None)
    assert cfg3.t_max == 2.0


def test_resolve_name_path_and_error(tmp_path):
    assert cat.resolve("t3-magnetic").name == "t3-magnetic"
    p = tmp_path / "file.json"
    cat.save(cat.builtin("riemann-superlinear"), p)
    assert cat.resolve(str(p)).name == "riemann-superlinear"
    with pytest.raises(geo.ValidationError):
        cat.resolve("missing.json")


def test_clifton_pohl_scenario_structure():
    s = cat.builtin("clifton-pohl")
    m = s.manifold
    assert m.signature == geo.LORENTZIAN
    assert isinstance(m.quotient, geo.ScalingQuotient)
    assert m.quotient.factor == 2.0
    assert m.domain.exclude_origin_radius == 1e-8
    g = m.metric_batch(np.array([[1.0, 1.0]]))[0]
    assert g[0][1] == pytest.approx(0.5)  # 1/(u^2+v^2) off-diagonal
    assert g[0][0] == 0.0
    assert s.fields.reference_field is not None


def test_infinite_bounds_round_trip(tmp_path):
    doc = scenario_doc(domain={"lower": [0.0, None], "upper": [None, 2.5],
                               "exclude_origin_radius": 0.125},
                       initial={"q": [1.0, 1.0], "v": [1.0, 0.0]})
    s = cat.scenario_from_dict(doc)
    assert s.manifold.domain.lower == (0.0, -math.inf)
    assert s.manifold.domain.upper == (math.inf, 2.5)
    p = tmp_path / "dom.json"
    cat.save(s, p)
    out = json.loads(p.read_text())
    assert out["domain"]["lower"] == [0.0, None]
    assert out["domain"]["upper"] == [None, 2.5]
    assert out["domain"]["exclude_origin_radius"] == 0.125


@functools.cache
def _builtin_text(name):
    return json.dumps(cat.scenario_to_dict(cat.builtin(name)))


def _leaf_paths(doc, path=()):
    """Key paths of the values in a document that are neither objects nor arrays."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


# floats include NaN and the infinities, which json writes as NaN and Infinity
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_builds_any_edited_file_or_refuses_it(tmp_path, data):
    doc = json.loads(_builtin_text(data.draw(st.sampled_from(cat.list_builtins()))))
    paths = list(_leaf_paths(doc))
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(JSON_VALUES)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(doc))
    try:
        assert isinstance(cat.load(p), cat.Scenario)
    except (geo.GeometryError, ex.ExprError):
        pass
