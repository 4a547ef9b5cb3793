import math

import numpy as np
import pytest

import worldline.catalog as cat
import worldline.dynamics as dy
import worldline.expr as ex
import worldline.fields as fl
import worldline.geometry as geo

XY = ex.CoordinateFrame(("x", "y"))
X1 = ex.CoordinateFrame(("x",))


def euclid1():
    return geo.manifold_from_components(
        X1, {(0, 0): ex.ONE}, geo.ChartDomain.unbounded(1), geo.RIEMANNIAN)


def euclid2(quotient=None, domain=None):
    return geo.manifold_from_components(
        XY, {(0, 0): ex.ONE, (1, 1): ex.ONE},
        domain or geo.ChartDomain.unbounded(2), geo.RIEMANNIAN, quotient)


def state(q, v):
    return geo.TrajectoryState(0.0, tuple(q), tuple(v))


# --- right-hand side closed forms ------------------------------------------

def test_rhs_flat_geodesic():
    m = euclid2()
    dq, dv = dy.rhs(m, fl.FieldPack(XY), state((0.3, -1.0), (2.0, 5.0)))
    assert np.allclose(dq, [2.0, 5.0])
    assert np.allclose(dv, 0.0)


def test_rhs_null_plane_cubic_force():
    s = cat.builtin("null-plane-cubic")
    dq, dv = dy.rhs(s.manifold, s.fields, state((1.0, 0.0), (0.7, -0.2)))
    assert np.allclose(dq, [0.7, -0.2])
    assert np.allclose(dv, [2.0, 0.0])  # flat chart, X = (2x^3, 0)


def test_rhs_clifton_pohl_geodesic():
    s = cat.builtin("clifton-pohl")
    dq, dv = dy.rhs(s.manifold, s.fields, state((1.0, 0.0), (1.0, 0.0)))
    # dv^u = -Gamma^u_uu = 2 at (1,0)
    assert np.allclose(dv, [2.0, 0.0])


def test_rhs_autonomous_in_time():
    s = cat.builtin("t3-magnetic")
    assert not s.fields.time_dependent
    st = state((0.0, 0.2, 0.4), (1.0, 0.1, -0.2))
    dq0, dv0 = dy.rhs(s.manifold, s.fields, st)
    shifted = geo.TrajectoryState(17.5, st.q, st.v)
    dq1, dv1 = dy.rhs(s.manifold, s.fields, shifted)
    assert np.allclose(dq0, dq1) and np.allclose(dv0, dv1)


# --- closed-form trajectories ----------------------------------------------

def test_harmonic_oscillator_matches_sine():
    m = euclid1()
    fp = fl.FieldPack(X1, potential=ex.parse("x^2 / 2", X1))  # xdd = -x
    cfg = dy.IntegrationConfig(t_max=6.0, rtol=1e-10, atol=1e-12)
    res = dy.integrate_maximal(m, fp, state((0.0,), (1.0,)), cfg)
    assert res.classification.kind == dy.COMPLETE
    ts, qs, vs = res.arrays()
    assert np.max(np.abs(qs[:, 0] - np.sin(ts))) < 1e-8
    assert np.max(np.abs(vs[:, 0] - np.cos(ts))) < 1e-8


def test_straight_line_in_polar_chart():
    frame = ex.CoordinateFrame(("r", "w"))
    m = geo.manifold_from_components(
        frame, {(0, 0): ex.ONE, (1, 1): ex.parse("r^2", frame)},
        geo.ChartDomain((1e-3, -math.inf), (math.inf, math.inf)),
        geo.RIEMANNIAN)
    # the line x=1 in Cartesian terms: r(t) = sqrt(1+t^2)
    cfg = dy.IntegrationConfig(t_max=3.0)
    res = dy.integrate_maximal(m, fl.FieldPack(frame), state((1.0, 0.0), (0.0, 1.0)), cfg)
    assert res.classification.kind == dy.COMPLETE
    ts, qs, _ = res.arrays()
    assert np.max(np.abs(qs[:, 0] - np.sqrt(1 + ts ** 2))) < 1e-8
    assert np.max(np.abs(qs[:, 1] - np.arctan(ts))) < 1e-8


def test_blowup_bracket_null_plane():
    s = cat.builtin("null-plane-cubic")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config())
    cls = res.classification
    assert cls.kind == dy.BLOWUP
    assert abs(cls.t_star - 1.0) <= 1e-3  # x(t) = 1/(1-t)
    assert cls.t_star_halfwidth < 1e-3
    # backward direction is complete out to -t_max
    assert res.backward.classification.kind == dy.COMPLETE


def test_blowup_bracket_clifton_pohl():
    s = cat.builtin("clifton-pohl")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config())
    cls = res.classification
    assert cls.kind == dy.BLOWUP
    assert abs(cls.t_star - 1.0) <= 1e-3  # u(t) = 1/(1-t)
    ts, qs, _ = res.arrays()
    radii = np.hypot(qs[:, 0], qs[:, 1])
    assert np.all((radii >= 1.0 - 1e-12) & (radii < 2.0 + 1e-12))


def test_tolerance_refinement_moves_t_star_little():
    for name in ("clifton-pohl", "null-plane-cubic", "riemann-superlinear"):
        s = cat.builtin(name)
        stars = []
        for rtol in (1e-8, 1e-9):
            cfg = s.integration_config(rtol=rtol, atol=rtol * 1e-2)
            res = dy.integrate_maximal(s.manifold, s.fields, s.initial, cfg)
            assert res.classification.kind == dy.BLOWUP, name
            stars.append(res.classification.t_star)
        assert abs(stars[0] - stars[1]) < 1e-3, name


def test_v_max_monotone_for_blowups():
    for name in ("clifton-pohl", "null-plane-cubic", "riemann-superlinear"):
        s = cat.builtin(name)
        t_low = None
        for v_max in (1e6, 1e8):
            cfg = s.integration_config(v_max=v_max)
            res = dy.integrate_maximal(s.manifold, s.fields, s.initial, cfg)
            assert res.classification.kind == dy.BLOWUP, name
            if t_low is None:
                t_low = res.classification.t_star
            else:
                # a higher threshold can only push the detection later
                assert res.classification.t_star >= t_low - 1e-9, name


def test_time_symmetry_flat_torus():
    s = cat.builtin("flat-lorentz-torus")
    cfg = s.integration_config(t_max=10.0)
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial, cfg)
    end = res.states[-1]
    flipped = geo.TrajectoryState(0.0, end.q, tuple(-c for c in end.v))
    back = dy.integrate_maximal(s.manifold, s.fields, flipped, cfg)
    ret = back.states[-1]
    q_err = max(abs(a - b) for a, b in zip(ret.q, s.initial.q))
    v_err = max(abs(a + b) for a, b in zip(ret.v, s.initial.v))
    assert q_err <= 1e-6 and v_err <= 1e-6


def test_left_domain_classification():
    m = euclid2(domain=geo.ChartDomain((-math.inf, -math.inf), (2.0, math.inf)))
    cfg = dy.IntegrationConfig(t_max=10.0)
    res = dy.integrate_maximal(m, fl.FieldPack(XY), state((0.0, 0.0), (1.0, 0.0)), cfg)
    fwd = res.forward.classification
    assert fwd.kind == dy.LEFT_DOMAIN
    # the free particle steps are huge, so only bracket containment holds:
    # the true crossing t = 2 lies within midpoint +/- halfwidth
    assert abs(fwd.t_star - 2.0) <= fwd.t_star_halfwidth + 1e-9
    assert 1.0 < fwd.t_star <= 2.0 + 1e-9
    assert res.classification.kind == dy.LEFT_DOMAIN
    # every retained sample stays inside the chart
    _, qs, _ = res.arrays()
    assert np.all(qs[:, 0] <= 2.0)


def test_stalled_on_evaluation_failure():
    m = euclid1()
    # force log(x) becomes unevaluable once x crosses zero
    fp = fl.FieldPack(X1, force_vector=(ex.parse("log(x)", X1),))
    cfg = dy.IntegrationConfig(t_max=10.0)
    res = dy.integrate_maximal(m, fp, state((0.5,), (-1.0,)), cfg)
    assert res.forward.classification.kind == dy.STALLED
    assert res.forward.classification.t_star is not None


def test_zero_data_constant_curve():
    m = euclid2()
    cfg = dy.IntegrationConfig(t_max=5.0)
    res = dy.integrate_maximal(m, fl.FieldPack(XY), state((1.0, 2.0), (0.0, 0.0)), cfg)
    assert res.classification.kind == dy.COMPLETE
    _, qs, vs = res.arrays()
    assert np.allclose(qs, [1.0, 2.0])
    assert np.allclose(vs, 0.0)


def test_initial_state_outside_domain_is_config_error():
    m = euclid2(domain=geo.ChartDomain((-1.0, -1.0), (1.0, 1.0)))
    with pytest.raises(geo.GeometryError):
        dy.integrate_maximal(m, fl.FieldPack(XY), state((5.0, 0.0), (0.0, 0.0)),
                             dy.IntegrationConfig())


def test_config_validation():
    with pytest.raises(geo.ValidationError):
        dy.IntegrationConfig(t_max=-1.0)
    with pytest.raises(geo.ValidationError):
        dy.IntegrationConfig(rtol=1e-16)  # below the supported floor
    with pytest.raises(geo.ValidationError):
        dy.IntegrationConfig(stride=0)
    for field in ("t_max", "rtol", "atol", "v_max", "h_min"):
        for value in (math.inf, math.nan):
            with pytest.raises(geo.ValidationError):
                dy.IntegrationConfig(**{field: value})


def test_generated_kernel_matches_generic():
    s = cat.builtin("t3-magnetic")
    sysd = dy.compiled_system(s.manifold, s.fields)
    generic = dy._generic_kernel(sysd.rhs_flat)
    y = np.array([0.0, 0.25, 0.0, 1.0, 0.4, -0.3])
    k1 = np.asarray(sysd.rhs_flat(0.0, y))
    for h in (1e-3, 1e-2, 0.1):
        err_a, y5_a, k7_a = sysd.kernel(0.0, h, y, k1, 1e-12, 1e-10)
        err_b, y5_b, k7_b = generic(0.0, h, y, k1, 1e-12, 1e-10)
        assert np.allclose(y5_a, y5_b, rtol=1e-14, atol=1e-15)
        assert np.allclose(k7_a, k7_b, rtol=1e-13, atol=1e-14)
        assert err_a == pytest.approx(err_b, rel=1e-10, abs=1e-13)


def test_marginal_flag_near_threshold():
    s = cat.builtin("flat-lorentz-torus")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=1.0))
    speed = res.forward.max_speed
    near = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                                s.integration_config(t_max=1.0, v_max=speed * 5))
    assert near.classification.kind == dy.COMPLETE
    assert near.classification.marginal
    far = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=1.0, v_max=speed * 50))
    assert not far.classification.marginal


# --- monitors and certificates ---------------------------------------------

def test_energy_monitor_flat_torus():
    s = cat.builtin("flat-lorentz-torus")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config())
    rec = dy.energy_monitor(s.manifold, s.fields, res)
    assert rec.applicable
    # c = g(v0, v0) = -1 + 0.09
    assert rec.reference == pytest.approx(-0.91)
    assert rec.max_drift <= 1e-9


def test_energy_monitor_informational_for_non_gradient_force():
    s = cat.builtin("null-plane-cubic")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config())
    rec = dy.energy_monitor(s.manifold, s.fields, res)
    assert not rec.applicable
    assert "informational" in rec.note


def test_killing_monitor_constant_case():
    # magnetic force but V = 0: charge still conserved because F(K) = 0
    s = cat.builtin("t3-magnetic")
    fp = fl.FieldPack(s.fields.frame, force_operator=s.fields.force_operator,
                      reference_field=s.fields.reference_field)
    cfg = s.integration_config(t_max=50.0)
    res = dy.integrate_maximal(s.manifold, fp, s.initial, cfg)
    rec = dy.killing_charge_monitor(s.manifold, fp, res)
    assert rec.present and rec.constant_case
    assert rec.max_drift <= 1e-8
    cert = dy.certificate(s.manifold, fp, res)
    assert not cert.refused
    assert cert.c1 <= 1e-8  # rate identity is identically zero here


def test_killing_monitor_rate_identity_with_potential():
    s = cat.builtin("t3-magnetic")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=20.0))
    rec = dy.killing_charge_monitor(s.manifold, s.fields, res)
    assert rec.present and not rec.constant_case
    assert rec.rate_residual is not None
    assert rec.rate_residual <= 1e-6
    assert rec.charge_bound >= abs(rec.reference)


def test_killing_monitor_rate_identity_for_homothety():
    # K = x d/dx + y d/dy scales the flat metric (sigma = 1), so the charge
    # g(K, v) of a free particle grows at the rate sigma g(v, v)
    m = euclid2()
    fp = fl.FieldPack(XY, reference_field=(ex.parse("x", XY), ex.parse("y", XY)))
    res = dy.integrate_maximal(m, fp, state((1.0, 0.5), (0.3, -0.2)),
                               dy.IntegrationConfig(t_max=5.0))
    rec = dy.killing_charge_monitor(m, fp, res)
    assert rec.present and not rec.constant_case
    assert rec.max_drift > 0.1
    assert rec.rate_residual <= 1e-6


def test_certificate_flat_torus_hand_values():
    s = cat.builtin("flat-lorentz-torus")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=10.0))
    cert = dy.certificate(s.manifold, s.fields, res)
    assert not cert.refused
    assert cert.m == pytest.approx(1.0)          # |K| = 1 everywhere
    assert cert.c2 == pytest.approx(1.0)         # |g(K, v0)| = |-v_t|
    assert cert.consistent
    assert cert.gr_form_max <= cert.bound + 1e-6


def test_certificate_refusals():
    s = cat.builtin("flat-lorentz-torus")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=1.0))
    no_k = fl.FieldPack(s.fields.frame)
    assert dy.certificate(s.manifold, no_k, res).refused
    spacelike = fl.FieldPack(s.fields.frame,
                             reference_field=(ex.ZERO, ex.ONE))
    assert dy.certificate(s.manifold, spacelike, res).refused


def test_speed_series_uses_reference_form():
    s = cat.builtin("flat-lorentz-torus")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=1.0))
    assert res.speed_mode == "reference"
    speeds = dy.speed_series(s.manifold, s.fields, res)
    # g_R(v,v) = g(v,v) + 2 g(K,v)^2 with v = (1, 0.3)
    want = math.sqrt((-1 + 0.09) + 2 * 1.0)
    assert np.allclose(speeds, want, atol=1e-9)


def test_stride_subsamples_but_keeps_endpoint():
    s = cat.builtin("flat-lorentz-torus")
    dense = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                                 s.integration_config(t_max=5.0))
    sparse = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                                  s.integration_config(t_max=5.0, stride=10))
    assert len(sparse.states) < len(dense.states)
    assert sparse.states[-1].t == pytest.approx(5.0)
    assert sparse.states[0].t == pytest.approx(-5.0)


def _curved_torus(names, with_potential):
    """A Lorentzian torus with a curved, non-diagonal spatial metric, a force
    operator and either a potential or an explicit force vector."""
    n = len(names)
    metric = {"g_0_0": "-1", "g_1_2": f"0.1 * sin(2 * pi * {names[-1]})"}
    for i in range(1, n):
        metric[f"g_{i}_{i}"] = f"1 + 0.2 * cos(2 * pi * {names[i % (n - 1) + 1]})"
    F = [["0"] * n for _ in range(n)]
    F[1][2], F[2][1] = "1.1", "-1.1 * cos(2 * pi * s)"
    X = ["0"] * n
    X[1], X[2] = "sin(2 * pi * y)", "x * y"
    fields = {"F": F, "K": ["1"] + ["0"] * (n - 1)}
    if with_potential:
        fields["V"] = "0.05 * cos(2 * pi * x) * sin(2 * pi * s)"
    else:
        fields["X"] = X
    return cat.scenario_from_dict({
        "name": f"curved-{n}d", "dimension": n, "coordinates": list(names),
        "metric": metric, "quotient": {"lattice": [1.0] * n}, "fields": fields,
        "initial": {"q": [0.0] * n, "v": [1.0] + [0.1] * (n - 1)},
        "config": {"signature": "lorentzian"},
    })


def test_generated_rhs_matches_numeric_oracle():
    # the generated right-hand side (symbolic Christoffels up to dimension 4,
    # the numeric contraction above) against rhs, whose Christoffels come
    # from g and its derivatives in every dimension
    scenarios = [cat.builtin(name) for name in cat.list_builtins()]
    for names in (("s", "x", "y"), ("s", "x", "y", "z", "w")):
        scenarios += [_curved_torus(names, True), _curved_torus(names, False)]
    rng = np.random.default_rng(8)
    for s in scenarios:
        m, fp = s.manifold, s.fields
        rhs_flat = dy.compiled_system(m, fp).rhs_flat
        for q in geo.sample_points(m, 40):
            st = geo.TrajectoryState(0.3, tuple(q), tuple(rng.uniform(-2, 2, m.dim)))
            got = np.asarray(rhs_flat(st.t, st.q + st.v))
            want = np.concatenate(dy.rhs(m, fp, st))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), s.name
