"""Built-in scenarios and the scenario file format.

A scenario bundles a manifold, a field pack, default initial data and the
expected outcomes used by the regression tests.  Files are canonical JSON:
expressions are stored in the printer's canonical text, keys are sorted, so
save -> load -> save reproduces the bytes exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

from . import dynamics as dy
from . import expr as ex
from . import fields as fl
from . import geometry as geo

_INTEGRATION_KEYS = tuple(f.name for f in fields(dy.IntegrationConfig))
# the keys a scenario document may hold, at the top level and in each object
_KEYS = ("name", "dimension", "coordinates", "metric", "quotient", "domain", "fields",
         "initial", "config")
_FIELD_KEYS = ("F", "X", "V", "K")
_DOMAIN_KEYS = ("lower", "upper", "exclude_origin_radius")
_INITIAL_KEYS = ("q", "v")
_CONFIG_KEYS = ("signature", "declared_complete", "expected_classification",
                "expected_prediction", "note", "sweep_velocity_radius", *_INTEGRATION_KEYS)


@dataclass(frozen=True)
class Scenario:
    name: str
    manifold: geo.ManifoldSpec
    fields: fl.FieldPack
    initial: geo.TrajectoryState
    config: tuple = ()  # sorted (key, value) pairs, as in the file
    expected_classification: str | None = None
    expected_prediction: str | None = None
    note: str = ""
    # built from config once, so that no scenario holds settings it cannot run
    _integration: dy.IntegrationConfig = field(init=False, repr=False, compare=False)
    velocity_radius: float = field(init=False, compare=False)

    def __post_init__(self):
        config = dict(self.config)
        object.__setattr__(self, "_integration", dy.IntegrationConfig(
            **{k: v for k, v in config.items() if k in _INTEGRATION_KEYS}))
        radius = _number(config.get("sweep_velocity_radius", 1.0), "sweep_velocity_radius")
        _require(0.0 <= radius < math.inf,
                 f"sweep_velocity_radius must be finite and >= 0, got {radius!r}")
        object.__setattr__(self, "velocity_radius", radius)

    def integration_config(self, **overrides) -> dy.IntegrationConfig:
        """Scenario defaults merged with explicit overrides."""
        return replace(self._integration,
                       **{k: v for k, v in overrides.items() if v is not None})

    def validate(self):
        geo.validate_manifold(self.manifold)
        fl.validate_fields(self.manifold, self.fields)
        if len(self.initial.q) != self.manifold.dim or len(self.initial.v) != self.manifold.dim:
            raise geo.ValidationError("initial data arity does not match the dimension")
        for key, xs in (("q", self.initial.q), ("v", self.initial.v)):
            if not all(map(math.isfinite, xs)):
                raise geo.ValidationError(f"initial.{key} must be finite, got {key} = {tuple(xs)}")
        if not self.manifold.domain.contains(self.initial.q):
            q, _, _ = geo.normalize_qv(self.manifold, self.initial.q, self.initial.v)
            if not self.manifold.domain.contains(q):
                raise geo.ValidationError(
                    f"initial point {self.initial.q} is outside the chart domain")


# --- serialization ---------------------------------------------------------

def _bound_to_json(x: float):
    return None if math.isinf(x) else x


def _bound_from_json(x, sign: float) -> float:
    return sign * math.inf if x is None else _number(x, "a domain bound")


def scenario_to_dict(s: Scenario) -> dict:
    m = s.manifold
    n = m.dim
    metric = {}
    for i in range(n):
        for j in range(i, n):
            e = m.metric[i][j]
            if e != ex.ZERO:
                metric[f"g_{i}_{j}"] = ex.to_text(e)
    quot = None
    if isinstance(m.quotient, geo.LatticeQuotient):
        quot = {"lattice": list(m.quotient.periods)}
    elif isinstance(m.quotient, geo.ScalingQuotient):
        quot = {"scaling": m.quotient.factor}
    fp = s.fields
    fields_doc = {
        "F": None if fp.force_operator is None else
             [[ex.to_text(e) for e in row] for row in fp.force_operator],
        "X": None if fp.force_vector is None else
             [ex.to_text(e) for e in fp.force_vector],
        "V": None if fp.potential is None else ex.to_text(fp.potential),
        "K": None if fp.reference_field is None else
             [ex.to_text(e) for e in fp.reference_field],
    }
    config = dict(s.config)
    config["signature"] = m.signature
    if m.declared_complete:
        config["declared_complete"] = True
    if s.expected_classification is not None:
        config["expected_classification"] = s.expected_classification
    if s.expected_prediction is not None:
        config["expected_prediction"] = s.expected_prediction
    if s.note:
        config["note"] = s.note
    return {
        "name": s.name,
        "dimension": n,
        "coordinates": list(m.frame.names),
        "metric": metric,
        "quotient": quot,
        "domain": {
            "lower": [_bound_to_json(b) for b in m.domain.lower],
            "upper": [_bound_to_json(b) for b in m.domain.upper],
            "exclude_origin_radius": m.domain.exclude_origin_radius,
        },
        "fields": fields_doc,
        "initial": {"q": list(s.initial.q), "v": list(s.initial.v)},
        "config": config,
    }


def _require(cond, msg):
    if not cond:
        raise geo.ValidationError(msg)


def _number(x, what: str) -> float:
    """A JSON number as a float; strings, booleans and the rest are refused."""
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             f"{what} must be a JSON number, got {x!r}")
    return float(x)


def _known(doc: dict, keys, where: str):
    """Refuse the first key of ``doc``, in sorted order, that is not in ``keys``."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise geo.ValidationError(f"unknown key {unknown[0]!r} {where}")


def _object(doc: dict, key: str, keys=None) -> dict:
    """The JSON object under ``key``; absent or null reads as empty.  With
    ``keys``, a key outside them is refused."""
    value = doc.get(key)
    _require(value is None or isinstance(value, dict), f"{key!r} must be a JSON object")
    value = value or {}
    if keys is not None:
        _known(value, keys, f"in {key!r}")
    return value


def _parsed(texts, frame) -> tuple:
    """A JSON array of expression texts, parsed."""
    _require(isinstance(texts, list), f"expected a JSON array of expressions, got {texts!r}")
    return tuple(ex.parse(e, frame) for e in texts)


def scenario_from_dict(doc: dict) -> Scenario:
    """A scenario from its JSON document.  The types built here check shapes,
    ranges and values; this checks only keys (refusing unknown ones), the
    dimension and JSON kinds."""
    _require(isinstance(doc, dict), "scenario document must be an object")
    _known(doc, _KEYS, "at the top level")
    for key in ("name", "dimension", "coordinates", "metric", "initial"):
        _require(key in doc, f"scenario is missing the {key!r} key")
    _require(isinstance(doc["name"], str), f"name must be a string, got {doc['name']!r}")
    coords = doc["coordinates"]
    _require(isinstance(coords, list) and len(coords) == doc["dimension"],
             "dimension does not match the coordinate list")
    n = len(coords)
    frame = ex.CoordinateFrame(tuple(coords),
                               time_dependent=ex.TIME_NAME not in coords)
    config = dict(_object(doc, "config", _CONFIG_KEYS))
    signature = config.pop("signature", geo.RIEMANNIAN)
    declared_complete = config.pop("declared_complete", False)
    _require(isinstance(declared_complete, bool),
             f"declared_complete must be true or false, got {declared_complete!r}")
    expected_cls = config.pop("expected_classification", None)
    expected_pred = config.pop("expected_prediction", None)
    note = config.pop("note", "")

    components = {}
    for key, text in _object(doc, "metric").items():
        parts = key.split("_")
        _require(len(parts) == 3 and parts[0] == "g" and parts[1].isdecimal()
                 and parts[2].isdecimal(), f"bad metric key {key!r}")
        i, j = sorted((int(parts[1]), int(parts[2])))
        e = ex.parse(text, frame)
        _require(components.setdefault((i, j), e) == e,
                 f"metric entries g_{i}_{j} and g_{j}_{i} disagree")

    quot_doc = doc.get("quotient")
    quotient = None
    if quot_doc is not None:
        _require(isinstance(quot_doc, dict) and len(quot_doc) == 1,
                 'quotient must be {"lattice": [periods]} or {"scaling": factor}')
        if "lattice" in quot_doc:
            quotient = geo.LatticeQuotient(
                tuple(None if p is None else _number(p, "a lattice period")
                      for p in quot_doc["lattice"]))
        elif "scaling" in quot_doc:
            quotient = geo.ScalingQuotient(_number(quot_doc["scaling"], "the scaling factor"))
        else:
            raise geo.ValidationError(
                f"unknown quotient kind {sorted(quot_doc)!r}")

    dom_doc = _object(doc, "domain", _DOMAIN_KEYS)
    lower, upper = ([None] * n if dom_doc.get(side) is None else dom_doc[side]
                    for side in ("lower", "upper"))
    radius = dom_doc.get("exclude_origin_radius")
    domain = geo.ChartDomain(
        tuple(_bound_from_json(b, -1.0) for b in lower),
        tuple(_bound_from_json(b, +1.0) for b in upper),
        None if radius is None else _number(radius, "exclude_origin_radius"))

    manifold = geo.manifold_from_components(frame, components, domain,
                                            signature, quotient, declared_complete)

    f_doc = _object(doc, "fields", _FIELD_KEYS)
    F, X, V, K = (f_doc.get(key) for key in "FXVK")
    pack = fl.FieldPack(
        frame,
        force_operator=None if F is None else tuple(_parsed(row, frame) for row in F),
        force_vector=None if X is None else _parsed(X, frame),
        potential=None if V is None else ex.parse(V, frame),
        reference_field=None if K is None else _parsed(K, frame))

    init = _object(doc, "initial", _INITIAL_KEYS)
    q, v = (tuple(_number(c, f"initial {key}") for c in init.get(key) or ()) for key in "qv")
    return Scenario(doc["name"], manifold, pack, geo.TrajectoryState(0.0, q, v),
                    tuple(sorted(config.items())), expected_cls, expected_pred, note)


def save(s: Scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path) -> Scenario:
    """Read and validate a scenario file.  Geometry and expression errors
    pass through as raised; any other failure to read the document as a
    scenario becomes a ValidationError naming the file.  ``json.load`` is the
    one source of RecursionError: the expression walks do not recurse, and
    the parser refuses input nested deeper than ``expr.MAX_DEPTH``."""
    try:
        with open(path) as fh:
            s = scenario_from_dict(json.load(fh))
        s.validate()
    except (geo.GeometryError, ex.ExprError):
        raise
    except (TypeError, AttributeError, KeyError, ValueError, OverflowError,
            RecursionError) as err:
        raise geo.ValidationError(f"{path}: {err}") from err
    return s


# --- built-ins -------------------------------------------------------------

def _doc_clifton_pohl():
    return {
        "name": "clifton-pohl",
        "dimension": 2,
        "coordinates": ["u", "v"],
        "metric": {"g_0_1": "1 / (u^2 + v^2)"},
        "quotient": {"scaling": 2.0},
        "domain": {"lower": [None, None], "upper": [None, None],
                   "exclude_origin_radius": 1e-8},
        "fields": {"F": None, "X": None, "V": None, "K": ["u", "v"]},
        "initial": {"q": [1.0, 0.0], "v": [1.0, 0.0]},
        "config": {
            "signature": "lorentzian",
            "t_max": 2.0,
            "expected_classification": "BlowupAt",
            "expected_prediction": "NoPrediction",
            "note": "compact quotient surface whose geodesic u(t) = 1/(1-t) "
                    "leaves every compact set of the tangent bundle in finite time",
        },
    }


def _doc_null_plane_cubic():
    return {
        "name": "null-plane-cubic",
        "dimension": 2,
        "coordinates": ["x", "y"],
        "metric": {"g_0_1": "1"},
        "quotient": None,
        "domain": {"lower": [None, None], "upper": [None, None],
                   "exclude_origin_radius": None},
        "fields": {"F": None, "X": ["2 * x^3", "0"], "V": None, "K": None},
        "initial": {"q": [1.0, 0.0], "v": [1.0, 0.0]},
        "config": {
            "signature": "lorentzian",
            "declared_complete": True,
            "t_max": 2.0,
            "expected_classification": "BlowupAt",
            "expected_prediction": "NoPrediction",
            "note": "flat null-plane metric, cubic force with vanishing metric "
                    "norm; x(t) = 1/(1-t) escapes in finite time",
        },
    }


def _doc_flat_lorentz_torus():
    return {
        "name": "flat-lorentz-torus",
        "dimension": 2,
        "coordinates": ["t", "x"],
        "metric": {"g_0_0": "-1", "g_1_1": "1"},
        "quotient": {"lattice": [1.0, 1.0]},
        "domain": {"lower": [None, None], "upper": [None, None],
                   "exclude_origin_radius": None},
        "fields": {"F": None, "X": None, "V": None, "K": ["1", "0"]},
        "initial": {"q": [0.0, 0.0], "v": [1.0, 0.3]},
        "config": {
            "signature": "lorentzian",
            "t_max": 100.0,
            "expected_classification": "CompleteToHorizon",
            "expected_prediction": "Complete",
            "note": "flat geodesics on a compact quotient; every hypothesis "
                    "holds trivially",
        },
    }


def _doc_t3_magnetic(b: float = 1.0, potential_amplitude: float = 0.1):
    b = _number(b, "b")
    amp = _number(potential_amplitude, "potential_amplitude")
    return {
        "name": "t3-magnetic",
        "dimension": 3,
        "coordinates": ["t", "x", "y"],
        "metric": {"g_0_0": "-1", "g_1_1": "1", "g_2_2": "1"},
        "quotient": {"lattice": [1.0, 1.0, 1.0]},
        "domain": {"lower": [None, None, None], "upper": [None, None, None],
                   "exclude_origin_radius": None},
        "fields": {
            "F": [["0", "0", "0"], ["0", "0", repr(b)], ["0", repr(-b), "0"]],
            "X": None,
            "V": f"{amp!r} * (cos(2 * pi * x) + cos(2 * pi * y))",
            "K": ["1", "0", "0"],
        },
        "initial": {"q": [0.0, 0.25, 0.0], "v": [1.0, 0.4, -0.3]},
        "config": {
            "signature": "lorentzian",
            "t_max": 100.0,
            "expected_classification": "CompleteToHorizon",
            "expected_prediction": "Complete",
            "note": "constant magnetic-type rotation in the spatial torus "
                    "directions plus a periodic potential; the stationary "
                    "reference field is annihilated by the force operator",
        },
    }


def _doc_riemann_flat_torus():
    return {
        "name": "riemann-flat-torus",
        "dimension": 2,
        "coordinates": ["x", "y"],
        "metric": {"g_0_0": "1", "g_1_1": "1"},
        "quotient": {"lattice": [1.0, 1.0]},
        "domain": {"lower": [None, None], "upper": [None, None],
                   "exclude_origin_radius": None},
        "fields": {
            "F": [["0", "sin(2 * pi * x)"], ["0", "0"]],
            "X": None,
            "V": "0.2 * cos(2 * pi * y)",
            "K": None,
        },
        "initial": {"q": [0.0, 0.0], "v": [0.7, 0.2]},
        "config": {
            "signature": "riemannian",
            "t_max": 100.0,
            "expected_classification": "CompleteToHorizon",
            "expected_prediction": "Complete",
            "note": "compact positive-definite base: completeness holds for "
                    "any bounded smooth forcing",
        },
    }


def _doc_riemann_superlinear():
    return {
        "name": "riemann-superlinear",
        "dimension": 1,
        "coordinates": ["x"],
        "metric": {"g_0_0": "1"},
        "quotient": None,
        "domain": {"lower": [None], "upper": [None],
                   "exclude_origin_radius": None},
        "fields": {"F": None, "X": ["x^2"], "V": None, "K": None},
        "initial": {"q": [1.0], "v": [1.0]},
        "config": {
            "signature": "riemannian",
            "declared_complete": True,
            "t_max": 10.0,
            "expected_classification": "BlowupAt",
            "expected_prediction": "NoPrediction",
            "note": "superlinear force on the line: the growth hypothesis is "
                    "sharp, and trajectories with x(0) > 0 escape",
        },
    }


_BUILTINS = {
    "clifton-pohl": _doc_clifton_pohl,
    "null-plane-cubic": _doc_null_plane_cubic,
    "flat-lorentz-torus": _doc_flat_lorentz_torus,
    "t3-magnetic": _doc_t3_magnetic,
    "riemann-flat-torus": _doc_riemann_flat_torus,
    "riemann-superlinear": _doc_riemann_superlinear,
}


def list_builtins() -> tuple:
    return tuple(sorted(_BUILTINS))


def builtin(name: str, **params) -> Scenario:
    """A catalog scenario by name; t3-magnetic accepts b and potential_amplitude."""
    try:
        maker = _BUILTINS[name]
    except KeyError:
        raise geo.ValidationError(
            f"unknown scenario {name!r}; choose from {', '.join(list_builtins())}") from None
    s = scenario_from_dict(maker(**params))
    s.validate()
    return s


def resolve(source: str) -> Scenario:
    """Interpret a CLI scenario argument as a builtin name or a file path."""
    if source in _BUILTINS:
        return builtin(source)
    import os
    if os.path.exists(source):
        return load(source)
    raise geo.ValidationError(
        f"{source!r} is neither a built-in scenario nor an existing file")
