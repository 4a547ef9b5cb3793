import math

import numpy as np
import pytest

import worldline.expr as ex
import worldline.fields as fl
import worldline.geometry as geo

XY = ex.CoordinateFrame(("x", "y"))


def euclid2(quotient=None):
    return geo.manifold_from_components(
        XY, {(0, 0): ex.ONE, (1, 1): ex.ONE},
        geo.ChartDomain.unbounded(2), geo.RIEMANNIAN, quotient)


def minkowski2():
    return geo.manifold_from_components(
        XY, {(0, 0): ex.parse("-1", XY), (1, 1): ex.ONE},
        geo.ChartDomain.unbounded(2), geo.LORENTZIAN)


def parse_matrix(rows, frame=XY):
    return tuple(tuple(ex.parse(e, frame) for e in row) for row in rows)


def test_field_pack_arity_validation():
    with pytest.raises(geo.ValidationError):
        fl.FieldPack(XY, force_vector=(ex.ONE,))
    with pytest.raises(geo.ValidationError):
        fl.FieldPack(XY, force_operator=((ex.ONE,),))
    with pytest.raises(geo.ValidationError):
        fl.FieldPack(XY, reference_field=(ex.ONE, ex.ONE, ex.ONE))


def test_g_adjoint_minkowski():
    g = np.diag([-1.0, 1.0])
    F = np.array([[0.0, 1.0], [1.0, 0.0]])
    # F* = g^{-1} F^T g
    assert np.allclose(fl.g_adjoint(g, F), [[0.0, -1.0], [-1.0, 0.0]])


def test_decompose_recomposes_and_splits():
    m = minkowski2()
    fp = fl.FieldPack(XY, force_operator=parse_matrix([["0", "1"], ["1", "0"]]))
    d = fl.decompose(m, fp, (0.0, 0.0))
    F = fp.force_matrix((0.0, 0.0))
    assert np.allclose(d.S + d.H, F)
    # this operator is skew-adjoint for the Minkowski metric, so S vanishes
    assert np.allclose(d.S, 0.0, atol=1e-14)
    g = geo.metric_at(m, (0.0, 0.0))
    assert np.allclose(fl.g_adjoint(g, d.S), d.S, atol=1e-14)
    assert np.allclose(fl.g_adjoint(g, d.H), -d.H, atol=1e-14)


def test_is_skew_adjoint():
    m = minkowski2()
    skew = fl.FieldPack(XY, force_operator=parse_matrix([["0", "1"], ["1", "0"]]))
    res = fl.is_skew_adjoint(m, skew)
    assert res.passed
    assert res.worst <= 1e-10
    assert "sampled" in res.note
    not_skew = fl.FieldPack(XY, force_operator=parse_matrix([["1", "0"], ["0", "1"]]))
    res2 = fl.is_skew_adjoint(m, not_skew)
    assert not res2.passed
    assert res2.worst > 1e-2
    none = fl.FieldPack(XY)
    assert fl.is_skew_adjoint(m, none).passed  # vacuous


def test_gradient_flat_and_curved():
    m = euclid2()
    fp = fl.FieldPack(XY, potential=ex.parse("x", XY))
    assert np.allclose(fl.gradient(m, fp, (3.0, 4.0)), [1.0, 0.0])
    # null-plane metric dx dy: grad V has components g^{ij} dV_j
    null = geo.manifold_from_components(
        XY, {(0, 1): ex.ONE}, geo.ChartDomain.unbounded(2), geo.LORENTZIAN)
    fp2 = fl.FieldPack(XY, potential=ex.parse("x", XY))
    assert np.allclose(fl.gradient(null, fp2, (0.0, 0.0)), [0.0, 1.0])


def test_drive_vector_prefers_potential():
    m = euclid2()
    fp = fl.FieldPack(XY, potential=ex.parse("x^2", XY))
    assert np.allclose(fl.drive_vector(m, fp, (2.0, 0.0)), [-4.0, 0.0])
    fp2 = fl.FieldPack(XY, force_vector=(ex.parse("y", XY), ex.ZERO))
    assert np.allclose(fl.drive_vector(m, fp2, (0.0, 7.0)), [7.0, 0.0])
    assert np.allclose(fl.drive_vector(m, fl.FieldPack(XY), (1.0, 1.0)), 0.0)


def test_annihilates():
    m = euclid2()
    frame = XY
    rot = fl.FieldPack(frame,
                       force_operator=parse_matrix([["0", "1"], ["-1", "0"]]),
                       reference_field=(ex.ZERO, ex.ZERO))
    assert fl.annihilates(m, rot).passed
    bad = fl.FieldPack(frame,
                       force_operator=parse_matrix([["0", "1"], ["-1", "0"]]),
                       reference_field=(ex.ONE, ex.ZERO))
    res = fl.annihilates(m, bad)
    assert not res.passed and res.worst == pytest.approx(1.0)


def test_conformal_factor_homothety():
    frame = ex.CoordinateFrame(("x",))
    m = geo.manifold_from_components(frame, {(0, 0): ex.ONE},
                                     geo.ChartDomain.unbounded(1),
                                     geo.RIEMANNIAN)
    # K = x d/dx scales the flat metric: L_K g = 2 g
    sigma, residual = fl.conformal_factor(m, (ex.parse("x", frame),), (0.4,))
    assert sigma == pytest.approx(1.0)
    assert residual <= 1e-12


def test_conformal_factor_rotation_is_killing():
    m = euclid2()
    K = (ex.parse("-y", XY), ex.parse("x", XY))
    for p in [(1.0, 0.0), (0.3, -2.0)]:
        sigma, residual = fl.conformal_factor(m, K, p)
        assert abs(sigma) <= 1e-12
        assert residual <= 1e-12


def test_conformal_report_clifton_pohl():
    frame = ex.CoordinateFrame(("u", "v"))
    m = geo.manifold_from_components(
        frame, {(0, 1): ex.parse("1 / (u^2 + v^2)", frame)},
        geo.ChartDomain.unbounded(2, exclude_origin_radius=1e-8),
        geo.LORENTZIAN, geo.ScalingQuotient(2.0))
    K = (ex.parse("u", frame), ex.parse("v", frame))
    fp = fl.FieldPack(frame, reference_field=K)
    residual, max_sigma, _ = fl.conformal_report(m, fp)
    assert residual <= 1e-10  # Killing for the scale-invariant metric
    assert max_sigma <= 1e-10
    # but not timelike: g(K,K) = 2uv/(u^2+v^2) changes sign
    g = geo.metric_at(m, (1.0, 1.0))
    k = np.array([1.0, 1.0])
    assert float(k @ g @ k) == pytest.approx(1.0)
    assert not fl.is_timelike_everywhere(m, fp).passed


def test_timelike_everywhere_static_lorentz():
    m = minkowski2()
    fp = fl.FieldPack(XY, reference_field=(ex.ONE, ex.ZERO))
    assert fl.is_timelike_everywhere(m, fp).passed
    spacelike = fl.FieldPack(XY, reference_field=(ex.ZERO, ex.ONE))
    assert not fl.is_timelike_everywhere(m, spacelike).passed


def test_invariant_norms_null_force_vector():
    null = geo.manifold_from_components(
        XY, {(0, 1): ex.ONE}, geo.ChartDomain.unbounded(2), geo.LORENTZIAN)
    fp = fl.FieldPack(XY, force_vector=(ex.parse("2 * x^3", XY), ex.ZERO))
    out = fl.invariant_norms(null, fp, [(1.5, 0.0), (-0.5, 2.0)])
    # metric square vanishes identically while the plain square does not
    assert np.array_equal(out["g_XX"], [0.0, 0.0])
    assert out["euclid_XX"] == pytest.approx([(2 * 1.5 ** 3) ** 2, (2 * 0.5 ** 3) ** 2])


def test_invariant_norms_operator_contractions():
    m = euclid2()
    fp = fl.FieldPack(XY, force_operator=parse_matrix([["0", "1"], ["-1", "0"]]))
    out = fl.invariant_norms(m, fp, [(0.0, 0.0)])
    assert out["F_frobenius_sq"] == pytest.approx([2.0])
    assert out["F_full_contraction"] == pytest.approx([2.0])


def test_validate_fields_gradient_consistency():
    m = euclid2()
    consistent = fl.FieldPack(
        XY, potential=ex.parse("x^2 + y^2", XY),
        force_vector=(ex.parse("-2 * x", XY), ex.parse("-2 * y", XY)))
    fl.validate_fields(m, consistent)
    broken = fl.FieldPack(
        XY, potential=ex.parse("x^2", XY),
        force_vector=(ex.parse("x", XY), ex.ZERO))
    with pytest.raises(geo.ValidationError):
        fl.validate_fields(m, broken)
    with pytest.raises(geo.ValidationError):
        fl.validate_fields(m, fl.FieldPack(ex.CoordinateFrame(("a", "b"))))


def test_time_dependent_flag():
    xt = ex.CoordinateFrame(("x", "y"), time_dependent=True)
    static = fl.FieldPack(xt, potential=ex.parse("x^2", xt))
    assert not static.time_dependent
    moving = fl.FieldPack(xt, potential=ex.parse("x * t", xt))
    assert moving.time_dependent
