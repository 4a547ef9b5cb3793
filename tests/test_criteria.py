import math
import os

import numpy as np
import pytest

import worldline.catalog as cat
import worldline.criteria as cr
import worldline.dynamics as dy
import worldline.expr as ex
import worldline.fields as fl
import worldline.geometry as geo

import oracles

XY = ex.CoordinateFrame(("x", "y"))
X1 = ex.CoordinateFrame(("x",))


def euclid(frame, quotient=None, declared=False):
    n = len(frame.names)
    comp = {(i, i): ex.ONE for i in range(n)}
    return geo.manifold_from_components(frame, comp,
                                        geo.ChartDomain.unbounded(n),
                                        geo.RIEMANNIAN, quotient, declared)


def parse_matrix(rows, frame=XY):
    return tuple(tuple(ex.parse(e, frame) for e in row) for row in rows)


# --- symmetric part bounds --------------------------------------------------

def test_s_bounds_diagonal_operator():
    m = euclid(XY)
    fp = fl.FieldPack(XY, force_operator=parse_matrix([["1", "0"], ["0", "2"]]))
    sup, inf, norm = cr.estimate_S_bounds(m, fp)
    assert sup == pytest.approx(2.0)
    assert inf == pytest.approx(1.0)
    assert norm == pytest.approx(2.0)


def test_s_bounds_nilpotent_operator():
    m = euclid(XY)
    fp = fl.FieldPack(XY, force_operator=parse_matrix([["0", "1"], ["0", "0"]]))
    sup, inf, norm = cr.estimate_S_bounds(m, fp)
    # S = [[0, 1/2], [1/2, 0]] has eigenvalues +-1/2
    assert sup == pytest.approx(0.5)
    assert inf == pytest.approx(-0.5)
    assert norm == pytest.approx(0.5)


def test_s_bounds_without_operator_and_signature_guard():
    m = euclid(XY)
    assert cr.estimate_S_bounds(m, fl.FieldPack(XY)) == (0.0, 0.0, 0.0)
    lorentz = geo.manifold_from_components(
        XY, {(0, 0): ex.parse("-1", XY), (1, 1): ex.ONE},
        geo.ChartDomain.unbounded(2), geo.LORENTZIAN)
    with pytest.raises(geo.SignatureError):
        cr.estimate_S_bounds(lorentz, fl.FieldPack(XY))


# --- growth fits ------------------------------------------------------------

def test_linear_growth_identity_field():
    m = euclid(X1)
    fp = fl.FieldPack(X1, force_vector=(ex.parse("x", X1),))
    rep = cr.check_linear_growth(m, fp)
    assert rep.growth_class == "linear"
    assert rep.bound_rate == pytest.approx(1.0, abs=1e-6)
    assert abs(rep.bound_offset) <= 1e-6
    assert "proxy" in rep.note


def test_linear_growth_quadratic_field_is_superlinear():
    m = euclid(X1)
    fp = fl.FieldPack(X1, force_vector=(ex.parse("x^2", X1),))
    rep = cr.check_linear_growth(m, fp)
    assert rep.growth_class == "superlinear"
    assert rep.slope == pytest.approx(2.0, abs=0.1)


def test_linear_growth_bounded_field():
    m = euclid(X1)
    fp = fl.FieldPack(X1, force_vector=(ex.parse("sin(x)", X1),))
    rep = cr.check_linear_growth(m, fp)
    assert rep.growth_class in ("sublinear", "linear")
    # the envelope cover must still majorize all samples
    assert rep.bound_offset >= 0.0 or rep.bound_rate > 0.0


def test_quadratic_growth_exact_square():
    m = euclid(XY)
    u = ex.parse("x^2 + y^2", XY)
    rep = cr.check_quadratic_growth(m, u)
    assert rep.growth_class == "quadratic"
    assert rep.bound_rate == pytest.approx(1.0, abs=1e-6)
    assert abs(rep.bound_offset) <= 1e-6


def test_quadratic_growth_constant_and_negative():
    m = euclid(XY)
    rep = cr.check_quadratic_growth(m, ex.parse("5", XY))
    assert rep.growth_class == "subquadratic"
    assert rep.bound_rate == pytest.approx(0.0, abs=1e-9)
    assert rep.bound_offset == pytest.approx(5.0)
    # -x^4 is nonpositive, so it passes the quadratic cover trivially
    rep2 = cr.check_quadratic_growth(m, ex.parse("-x^4", XY))
    assert rep2.growth_class == "quadratic"
    assert rep2.bound_rate <= 1e-9


def test_quadratic_growth_quartic_is_superquadratic():
    m = euclid(XY)
    rep = cr.check_quadratic_growth(m, ex.parse("x^4", XY))
    assert rep.growth_class == "superquadratic"
    assert rep.slope == pytest.approx(4.0, abs=0.2)


# --- Riemannian dispatch ----------------------------------------------------

def test_riemannian_compact_clause_accepts_any_fields():
    s = cat.builtin("riemann-flat-torus")
    rep = cr.evaluate(s.manifold, s.fields)
    assert rep.prediction == cr.COMPLETE
    assert rep.theorem == "riemannian-compact"
    assert rep.hypothesis("compact-clause").verdict == "pass"


def test_riemannian_quartic_potential_completes_via_quadratic_route():
    m = euclid(XY, declared=True)
    fp = fl.FieldPack(XY, potential=ex.parse("x^4", XY))
    rep = cr.evaluate(m, fp)
    assert rep.prediction == cr.COMPLETE
    # the gradient 4x^3 fails the linear test; -V <= 0 passes the quadratic one
    assert rep.theorem == "riemannian-potential-quadratic"
    h = rep.hypothesis("minus-potential-quadratic-growth")
    assert h.verdict == "pass"
    assert "fell back" in h.note


def test_riemannian_gradient_route_when_potential_is_tame():
    m = euclid(XY, declared=True)
    fp = fl.FieldPack(XY, potential=ex.parse("x^2 + y^2", XY))
    rep = cr.evaluate(m, fp)
    assert rep.prediction == cr.COMPLETE
    assert rep.theorem == "riemannian-gradient-linear"
    assert rep.hypothesis("gradient-linear-growth").verdict == "pass"


def test_riemannian_superlinear_force_gets_no_prediction():
    s = cat.builtin("riemann-superlinear")
    rep = cr.evaluate(s.manifold, s.fields)
    assert rep.prediction == cr.NO_PREDICTION
    assert rep.theorem == "riemannian-force-linear"
    assert rep.hypothesis("force-linear-growth").verdict == "fail"


def test_riemannian_needs_complete_base():
    m = euclid(X1, declared=False)  # non-compact, not declared complete
    fp = fl.FieldPack(X1, force_vector=(ex.parse("sin(x)", X1),))
    rep = cr.evaluate(m, fp)
    assert rep.prediction == cr.NO_PREDICTION
    assert rep.hypothesis("complete-base").verdict == "fail"
    declared = euclid(X1, declared=True)
    rep2 = cr.evaluate(declared, fp)
    assert rep2.prediction == cr.COMPLETE


def test_time_dependent_potential_checks_both_time_derivatives():
    frame = ex.CoordinateFrame(("x",), time_dependent=True)
    m = geo.manifold_from_components(frame, {(0, 0): ex.ONE},
                                     geo.ChartDomain.unbounded(1),
                                     geo.RIEMANNIAN, declared_complete=True)
    # V = x^2 sin(t): -V and +-dV/dt all quadratically bounded
    fp = fl.FieldPack(frame, potential=ex.parse("x^2 * sin(t)", frame))
    rep = cr.evaluate(m, fp)
    assert rep.prediction == cr.COMPLETE
    # V = x^4 sin(t): the time derivative x^4 cos(t) grows too fast and
    # -V itself turns superquadratic on half the periods
    fp2 = fl.FieldPack(frame, potential=ex.parse("x^4 * sin(t)", frame))
    rep2 = cr.evaluate(m, fp2)
    assert rep2.prediction == cr.NO_PREDICTION


# --- Lorentzian hypotheses --------------------------------------------------

def test_lorentzian_t3_all_hypotheses_pass():
    s = cat.builtin("t3-magnetic")
    rep = cr.evaluate(s.manifold, s.fields)
    assert rep.prediction == cr.COMPLETE
    for h in rep.hypotheses:
        assert h.verdict == "pass", h
    names = {h.name for h in rep.hypotheses}
    assert {"compact-quotient", "autonomous", "force-operator-skew",
            "reference-conformal", "reference-timelike",
            "force-annihilates-reference", "potential-force"} <= names
    assert "not a proof" in rep.note


def test_lorentzian_clifton_pohl_fails_timelike():
    s = cat.builtin("clifton-pohl")
    rep = cr.evaluate(s.manifold, s.fields)
    assert rep.prediction == cr.NO_PREDICTION
    assert rep.hypothesis("reference-timelike").verdict == "fail"
    assert rep.hypothesis("reference-conformal").verdict == "pass"


def test_lorentzian_null_plane_fails_compactness():
    s = cat.builtin("null-plane-cubic")
    rep = cr.evaluate(s.manifold, s.fields)
    assert rep.prediction == cr.NO_PREDICTION
    assert rep.hypothesis("compact-quotient").verdict == "fail"


def test_lorentzian_without_reference_field():
    m = geo.manifold_from_components(
        XY, {(0, 0): ex.parse("-1", XY), (1, 1): ex.ONE},
        geo.ChartDomain.unbounded(2), geo.LORENTZIAN,
        geo.LatticeQuotient((1.0, 1.0)))
    rep = cr.evaluate(m, fl.FieldPack(XY))
    assert rep.prediction == cr.NO_PREDICTION


def test_lorentzian_monotone_in_evidence():
    # weakening t3 by a non-skew force flips exactly the skew hypothesis
    s = cat.builtin("t3-magnetic")
    frame = s.fields.frame
    bad_F = parse_matrix([["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
                         frame)
    weakened = fl.FieldPack(frame, force_operator=bad_F,
                            potential=s.fields.potential,
                            reference_field=s.fields.reference_field)
    rep = cr.evaluate(s.manifold, weakened)
    assert rep.prediction == cr.NO_PREDICTION
    assert rep.hypothesis("force-operator-skew").verdict == "fail"
    # every hypothesis passing in the weakened run also passes in the original
    strong = cr.evaluate(s.manifold, s.fields)
    weak_pass = {h.name for h in rep.hypotheses if h.verdict == "pass"}
    strong_pass = {h.name for h in strong.hypotheses if h.verdict == "pass"}
    assert weak_pass <= strong_pass


def test_skew_iff_vanishing_symmetric_part():
    # consistency of the two routes on every catalog force operator
    for name in cat.list_builtins():
        s = cat.builtin(name)
        if s.fields.force_operator is None:
            continue
        skew = fl.is_skew_adjoint(s.manifold, s.fields)
        pts = geo.sample_points(s.manifold)[:200]
        s_norm = 0.0
        for q in pts:
            d = oracles.decompose(s.manifold, s.fields, tuple(q))
            s_norm = max(s_norm, float(np.max(np.abs(d.S))))
        assert skew.passed == (s_norm <= 1e-9), name


# --- the one-sided rule -------------------------------------------------------

# 1-d lines, declared complete, on which check predicts Complete although
# the trajectory from q = v = 1 blows up before t = 8
_WRONG_COMPLETE = ["probe-unbounded-S.json", "probe-cubic-X.json", "probe-slow-S.json"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", _WRONG_COMPLETE)
def test_complete_prediction_never_meets_an_incomplete_run(name):
    s = cat.load(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", name))
    prediction = cr.evaluate(s.manifold, s.fields).prediction
    run = dy.integrate_maximal(s.manifold, s.fields, s.initial, s.integration_config())
    assert prediction != cr.COMPLETE or run.classification.kind == dy.COMPLETE, (
        prediction, run.classification)
