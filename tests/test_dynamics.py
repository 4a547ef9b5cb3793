import array
import dataclasses
import functools
import json
import math
import operator
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import worldline.catalog as cat
import worldline.criteria as cr
import worldline.dynamics as dy
import worldline.expr as ex
import worldline.fields as fl
import worldline.geometry as geo
import worldline.sampling as sampling
from worldline import cli

import oracles

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
    dq, dv = oracles.rhs(m, fl.FieldPack(XY), state((0.3, -1.0), (2.0, 5.0)))
    assert np.allclose(dq, [2.0, 5.0])
    assert np.allclose(dv, 0.0)


def test_rhs_null_plane_cubic_force():
    s = cat.builtin("null-plane-cubic")
    dq, dv = oracles.rhs(s.manifold, s.fields, state((1.0, 0.0), (0.7, -0.2)))
    assert np.allclose(dq, [0.7, -0.2])
    assert np.allclose(dv, [2.0, 0.0])  # flat chart, X = (2x^3, 0)


def test_rhs_clifton_pohl_geodesic():
    s = cat.builtin("clifton-pohl")
    dq, dv = oracles.rhs(s.manifold, s.fields, state((1.0, 0.0), (1.0, 0.0)))
    # dv^u = -Gamma^u_uu = 2 at (1,0)
    assert np.allclose(dv, [2.0, 0.0])


def test_rhs_autonomous_in_time():
    s = cat.builtin("t3-magnetic")
    assert not s.fields.time_dependent
    st = state((0.0, 0.2, 0.4), (1.0, 0.1, -0.2))
    dq0, dv0 = oracles.rhs(s.manifold, s.fields, st)
    shifted = geo.TrajectoryState(17.5, st.q, st.v)
    dq1, dv1 = oracles.rhs(s.manifold, s.fields, shifted)
    assert np.allclose(dq0, dq1) and np.allclose(dv0, dv1)


# --- closed-form trajectories ----------------------------------------------

def test_harmonic_oscillator_matches_sine():
    m = euclid1()
    fp = fl.FieldPack(X1, potential=ex.parse("x^2 / 2", X1))  # xdd = -x
    cfg = dy.IntegrationConfig(t_max=6.0, rtol=1e-10, atol=1e-12)
    res, table = oracles.integrate_kept(m, fp, state((0.0,), (1.0,)), cfg)
    assert res.classification.kind == dy.COMPLETE
    ts, qs, vs = table.arrays()
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
    res, table = oracles.integrate_kept(m, fl.FieldPack(frame), state((1.0, 0.0), (0.0, 1.0)),
                                        cfg)
    assert res.classification.kind == dy.COMPLETE
    ts, qs, _ = table.arrays()
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
    res, table = oracles.integrate_kept(s.manifold, s.fields, s.initial,
                                        s.integration_config())
    cls = res.classification
    assert cls.kind == dy.BLOWUP
    assert abs(cls.t_star - 1.0) <= 1e-3  # u(t) = 1/(1-t)
    _, qs, _ = table.arrays()
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
    end = oracles.integrate_kept(s.manifold, s.fields, s.initial, cfg)[1].states[-1]
    flipped = geo.TrajectoryState(0.0, end.q, tuple(-c for c in end.v))
    ret = oracles.integrate_kept(s.manifold, s.fields, flipped, cfg)[1].states[-1]
    q_err = max(abs(a - b) for a, b in zip(ret.q, s.initial.q))
    v_err = max(abs(a + b) for a, b in zip(ret.v, s.initial.v))
    assert q_err <= 1e-6 and v_err <= 1e-6


def test_left_domain_classification():
    m = euclid2(domain=geo.ChartDomain((-math.inf, -math.inf), (2.0, math.inf)))
    cfg = dy.IntegrationConfig(t_max=10.0)
    res, table = oracles.integrate_kept(m, fl.FieldPack(XY), state((0.0, 0.0), (1.0, 0.0)),
                                        cfg)
    fwd = res.forward.classification
    assert fwd.kind == dy.LEFT_DOMAIN
    # the free particle steps are huge, so only bracket containment holds:
    # the true crossing t = 2 lies within midpoint +/- halfwidth
    assert abs(fwd.t_star - 2.0) <= fwd.t_star_halfwidth + 1e-9
    assert 1.0 < fwd.t_star <= 2.0 + 1e-9
    assert res.classification.kind == dy.LEFT_DOMAIN
    # every retained sample stays inside the chart
    _, qs, _ = table.arrays()
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
    res, table = oracles.integrate_kept(m, fl.FieldPack(XY), state((1.0, 2.0), (0.0, 0.0)),
                                        cfg)
    assert res.classification.kind == dy.COMPLETE
    _, qs, vs = table.arrays()
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
    for stride in (0, 1.5, "2", True):
        with pytest.raises(geo.ValidationError):
            dy.IntegrationConfig(stride=stride)
    for field in ("t_max", "rtol", "atol", "v_max", "h_min"):
        for value in (math.inf, math.nan, "1", True, None):
            with pytest.raises(geo.ValidationError):
                dy.IntegrationConfig(**{field: value})


CURVED_5D = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "curved-5d.json")


def _reference_step(m, fp, t, h, y, k1, atol, rtol):
    """One Dormand-Prince 5(4) step from the public tableau of scipy's RK45,
    over the numeric right-hand side ``oracles.rhs``: (err, y5, k7)."""
    rk = pytest.importorskip("scipy.integrate").RK45
    n = m.dim

    def f(t, y):
        st = geo.TrajectoryState(t, tuple(y[:n]), tuple(y[n:]))
        return np.concatenate(oracles.rhs(m, fp, st))

    k = np.empty((7, 2 * n))
    k[0] = k1
    for s in range(1, 6):
        k[s] = f(t + rk.C[s] * h, y + h * (rk.A[s, :s] @ k[:s]))
    y5 = y + h * (rk.B @ k[:6])
    k[6] = f(t + h, y5)
    sc = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    err = math.sqrt(np.mean((h * (rk.E @ k) / sc) ** 2))
    if isinstance(m.quotient, geo.LatticeQuotient):  # the kernel returns it wrapped
        q, v, _ = geo.normalize_qv(m, tuple(y5[:n]), tuple(y5[n:]))
        y5 = np.array(q + v)
    return err, y5, k[6]


def test_generated_kernel_matches_generic():
    # the generated fused kernel of every built-in and of a dimension-5 file
    # against a Dormand-Prince step that shares no code with it
    rng = np.random.default_rng(5)
    scenarios = [cat.builtin(name) for name in cat.list_builtins()] + [cat.load(CURVED_5D)]
    for s in scenarios:
        m, fp = s.manifold, s.fields
        sysd = dy.compiled_system(m, fp)
        step = oracles.single_step(sysd)
        for q in geo.sample_points(m)[:4]:
            y = np.concatenate([q, rng.uniform(-1, 1, m.dim)])
            k1 = np.asarray(sysd.rhs_flat(0.3, tuple(y)))
            for h in (1e-3, 1e-2):
                err, y5, k7 = step(0.3, h, tuple(y), tuple(k1), 1e-6, 1e-6)
                err_ref, y5_ref, k7_ref = _reference_step(m, fp, 0.3, h, y, k1, 1e-6, 1e-6)
                assert np.allclose(y5, y5_ref, rtol=1e-13, atol=1e-15), s.name
                assert np.allclose(k7, k7_ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(k7_ref))), s.name
                assert err == pytest.approx(err_ref, rel=1e-6, abs=1e-8), s.name


def _left_sum(terms):
    # a1*k1 + a2*k2 + ... as Python adds it; sum() would start from int 0,
    # and 0 + -0.0 is 0.0
    return functools.reduce(operator.add, terms)


def _tableau_step(sysd, t, h, y, k1, atol, rtol):
    """One Dormand-Prince step written from _A, _B and _E over rhs_flat, in
    the order of operations of the unsimplified kernel: (err, y5, k7), with
    y5 taken into the fundamental domain of a lattice chart."""
    m, N = sysd.m, len(y)
    ks = [k1]
    for cs, row in zip((*dy._C, 1.0), (*dy._A, dy._B)):
        point = tuple(y[c] + h * _left_sum([a * k[c] for a, k in zip(row, ks) if a != 0.0])
                      for c in range(N))
        ks.append(sysd.rhs_flat(t + cs * h, point))
    y5 = point
    norm = _left_sum([(h * _left_sum([e * k[c] for e, k in zip(dy._E, ks) if e != 0.0])
                       / (atol + rtol * max(abs(y[c]), abs(y5[c])))) ** 2 for c in range(N)])
    if isinstance(m.quotient, geo.LatticeQuotient):
        q, v, _ = geo.normalize_qv(m, y5[:m.dim], y5[m.dim:])
        y5 = q + v
    return math.sqrt(norm / float(N)), y5, ks[-1]


def test_kernel_is_the_tableau_step_bit_for_bit():
    # the simplified kernel against the step written from the tableau, by
    # repr, which tells the sign of a zero apart: forward, backward and with
    # h = -0.0, from signed-zero and random states, on every built-in, a
    # dimension-5 file and t-dependent tori
    rng = np.random.default_rng(17)
    scenarios = [cat.builtin(name) for name in cat.list_builtins()] + [cat.load(CURVED_5D)]
    # no built-in reads t: these do, through X or V, at and above the symbolic limit
    scenarios += [_curved_torus(names, potential, timed=True) for potential in (True, False)
                  for names in (("s", "x", "y"), ("s", "x", "y", "z", "w"))]
    for s in scenarios:
        m = s.manifold
        sysd = dy.compiled_system(m, s.fields)
        step = oracles.single_step(sysd)
        starts = []
        for i, q in enumerate(geo.sample_points(m)[:6]):
            v = rng.uniform(-1, 1, m.dim)
            signs = (np.arange(m.dim) + i // 2) % 2
            if i % 2:  # signed zeros in the velocity and the position
                v = np.where(signs, -0.0, 0.0)
                q = np.where(signs, q, -0.0)
            starts.append(tuple(map(float, q)) + tuple(map(float, v)))
        starts.append(tuple(map(float, s.initial.q + s.initial.v)))
        checked = 0
        for y in starts:
            for t in (0.0, -0.0, 0.3):
                try:
                    k1 = sysd.rhs_flat(t, y)
                except (ZeroDivisionError, OverflowError, ValueError):
                    continue
                for h in (1e-3, -1e-3, 0.05, -0.05, 2.0, -0.0):
                    for atol, rtol in ((1e-12, 1e-10), (1e-6, 1e-3)):
                        got = step(t, h, y, k1, atol, rtol)
                        want = _tableau_step(sysd, t, h, y, k1, atol, rtol)
                        assert repr(got) == repr(want), (s.name, y, t, h)
                        checked += 1
        assert checked >= 100, s.name


def test_kernel_leaves_out_the_work_a_step_never_reads():
    # t3-magnetic is autonomous, has dv_0 = 0 and literal coefficients
    s = cat.builtin("t3-magnetic")
    src = dy.compiled_system(s.manifold, s.fields).kernel_source
    for dead in ("t2 =", "t7 =", "k2_3", "k7_3 =", "e_3", "max(", "(1.0 *", "(-1.0 *",
                 "(2.0 * 3.14", "(-sin(", "k2_0 ="):
        assert dead not in src, dead
    assert "hz = h*0.0" in src and "y5_0 % 1.0" in src


def test_rhs_above_dimension_four_refuses_degenerate_and_non_finite_states():
    # g_00 = a vanishes on a = 0: the plain-float solve names the point, as
    # the numeric Christoffels do; a NaN state is a failed evaluation
    frame = ex.CoordinateFrame(("a", "b", "c", "d", "e"))
    entries = {(i, i): ex.ONE for i in range(1, 5)}
    entries[0, 0] = ex.parse("a", frame)
    m = geo.manifold_from_components(frame, entries)
    rhs_flat = dy.compiled_system(m, fl.FieldPack(frame)).rhs_flat
    assert rhs_flat(0.0, (1.0,) * 10)[:5] == (1.0,) * 5
    for a in (0.0, 1e-13):
        q = (a, 0.5, 0.0, 0.0, 0.0)
        with pytest.raises(geo.DegenerateMetricError, match=rf"degenerate at \({a!r}, 0\.5,"):
            rhs_flat(0.0, q + (1.0,) * 5)
        with pytest.raises(geo.DegenerateMetricError):
            oracles.rhs(m, fl.FieldPack(frame), geo.TrajectoryState(0.0, q, (1.0,) * 5))
    with pytest.raises(OverflowError):
        rhs_flat(0.0, (math.nan,) * 10)
    with pytest.raises(OverflowError):  # v_e enters no term of dv
        rhs_flat(0.0, (1.0,) * 9 + (math.inf,))


def _diagonal_5d_twins():
    """Pairs of 5-d systems (m, fp, s0) with the states their metric refuses:
    a diagonal metric, then the same metric with g_01 = 0 * sin(...), which
    is structurally non-zero but 0.0 (or -0.0, or nan at a nan state)
    wherever it is evaluated.  The first goes through the division solve,
    the second through ``_solve``."""
    nan = (math.nan,) * 10
    with open(CURVED_5D) as fh:
        doc = json.load(fh)
    padded = dict(doc, metric=dict(doc["metric"], g_0_1="0 * sin(2 * pi * x)"))
    curved = [cat.scenario_from_dict(d) for d in (doc, padded)]
    yield [(s.manifold, s.fields, s.initial) for s in curved], [nan]
    frame = ex.CoordinateFrame(("a", "b", "c", "d", "e"))
    entries = {(i, i): ex.ONE for i in range(1, 5)}
    entries[0, 0] = ex.parse("a", frame)
    s0 = state((1.0, 0.5, 0.0, 0.0, 0.0), (0.2, 0.1, -0.3, 0.0, 0.4))
    degenerate = (0.0, 0.5, 0.0, 0.0, 0.0) + (1.0,) * 5
    yield [(geo.manifold_from_components(frame, {**entries, **extra}), fl.FieldPack(frame), s0)
           for extra in ({}, {(0, 1): ex.parse("0 * sin(b)", frame)})], [degenerate, nan]


def _outcome(f, *args):
    """repr of f(*args), or the type and message of what it raises."""
    try:
        return repr(f(*args))
    except (geo.DegenerateMetricError, *dy._EVAL_ERRORS) as err:
        return type(err), str(err)


def test_division_solve_is_the_elimination_bit_for_bit():
    # above dimension 4 a metric whose off-diagonal entries are all
    # structurally zero is solved by division, and gives what _solve gives
    # on it: the right-hand side by repr, the refusals by type and message,
    # the kept rows by their bytes and the direction reports
    rng = np.random.default_rng(23)
    for ((m, fp, s0), (m_pad, fp_pad, _)), refused_states in _diagonal_5d_twins():
        assert "_check_det(" in dy._accel_source(m, fp)[0]
        assert "_solve(" in dy._accel_source(m_pad, fp_pad)[0]
        rhs, rhs_pad = (dy.compiled_system(*pair).rhs_flat for pair in ((m, fp), (m_pad, fp_pad)))
        for q in geo.sample_points(m)[:40]:
            y = tuple(map(float, q)) + tuple(rng.uniform(-2, 2, 5))
            assert _outcome(rhs, 0.3, y) == _outcome(rhs_pad, 0.3, y)
        for y in refused_states:
            refused = _outcome(rhs, 0.3, y)
            assert type(refused) is tuple and refused == _outcome(rhs_pad, 0.3, y)
        cfg = dy.IntegrationConfig(t_max=1.0)
        (run, table), (run_pad, table_pad) = (oracles.integrate_kept(*pair, s0, cfg)
                                              for pair in ((m, fp), (m_pad, fp_pad)))
        assert run.forward.accepted > 0
        assert [a.tobytes() for a in table.arrays()] == [a.tobytes() for a in table_pad.arrays()]
        assert (run.forward, run.backward) == (run_pad.forward, run_pad.backward)


def test_dimension_five_endpoint_matches_dop853():
    # the forward endpoint of the dimension-5 file against scipy's DOP853
    # over the numeric right-hand side, which shares no code with the stepper
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    s = cat.load(CURVED_5D)
    m, fp = s.manifold, s.fields
    cfg = s.integration_config()
    res, table = oracles.integrate_kept(m, fp, s.initial, cfg)
    assert res.forward.classification.kind == dy.COMPLETE

    def f(t, y):
        st = geo.TrajectoryState(t, tuple(y[:5]), tuple(y[5:]))
        return np.concatenate(oracles.rhs(m, fp, st))

    ref = solve_ivp(f, (0.0, cfg.t_max), np.concatenate([s.initial.q, s.initial.v]),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert ref.success
    ts, qs, vs = table.arrays()
    assert ts[-1] == cfg.t_max
    dq = qs[-1] - ref.y[:5, -1]
    dq -= np.round(dq)  # the lattice has period 1 in every coordinate
    assert np.max(np.abs(dq)) < 1e-6
    assert np.max(np.abs(vs[-1] - ref.y[5:, -1])) < 1e-6


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
    rec = dy.energy_monitor(res)
    assert rec.applicable
    # c = g(v0, v0) = -1 + 0.09
    assert rec.reference == pytest.approx(-0.91)
    assert rec.max_drift <= 1e-9


def test_energy_monitor_informational_for_non_gradient_force():
    s = cat.builtin("null-plane-cubic")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config())
    rec = dy.energy_monitor(res)
    assert not rec.applicable
    assert "informational" in rec.note


def test_killing_monitor_constant_case():
    # magnetic force but V = 0: charge still conserved because F(K) = 0
    s = cat.builtin("t3-magnetic")
    fp = fl.FieldPack(s.fields.frame, force_operator=s.fields.force_operator,
                      reference_field=s.fields.reference_field)
    cfg = s.integration_config(t_max=50.0)
    res = dy.integrate_maximal(s.manifold, fp, s.initial, cfg)
    rec = dy.killing_charge_monitor(res)
    assert rec.present and rec.constant_case
    assert rec.max_drift <= 1e-8
    cert = dy.certificate(res)
    assert not cert.refused
    assert cert.c1 <= 1e-8  # rate identity is identically zero here


def test_killing_monitor_rate_identity_with_potential():
    s = cat.builtin("t3-magnetic")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=20.0))
    rec = dy.killing_charge_monitor(res)
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
    rec = dy.killing_charge_monitor(res)
    assert rec.present and not rec.constant_case
    assert rec.max_drift > 0.1
    assert rec.rate_residual <= 1e-6


def test_certificate_flat_torus_hand_values():
    s = cat.builtin("flat-lorentz-torus")
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config(t_max=10.0))
    cert = dy.certificate(res)
    assert not cert.refused
    assert cert.m == pytest.approx(1.0)          # |K| = 1 everywhere
    assert cert.c2 == pytest.approx(1.0)         # |g(K, v0)| = |-v_t|
    assert cert.consistent
    assert cert.gr_form_max <= cert.bound + 1e-6


def test_certificate_refusals():
    s = cat.builtin("flat-lorentz-torus")
    cfg = s.integration_config(t_max=1.0)
    no_k = fl.FieldPack(s.fields.frame)
    spacelike = fl.FieldPack(s.fields.frame,
                             reference_field=(ex.ZERO, ex.ONE))
    for fp, reason in ((no_k, "no reference field"),
                       (spacelike, "reference field is not timelike everywhere sampled")):
        cert = dy.certificate(dy.integrate_maximal(s.manifold, fp, s.initial, cfg))
        assert cert.refused and cert.reason == reason


def test_monitors_share_one_evaluation_of_the_samples(monkeypatch):
    # the monitors, the certificate, the speed series and the sample table
    # read g and K at each sample once per result: the fold evaluates each
    # block as the step loop hands it over, and nothing after the
    # integration evaluates them again
    s = cat.builtin("t3-magnetic")
    m, fp = s.manifold, s.fields
    cfg = s.integration_config(t_max=5.0)

    def read(run):
        res, table = run
        records = (dy.energy_monitor(res), dy.killing_charge_monitor(res),
                   dy.certificate(res))
        return records, np.column_stack(table.columns)

    # a first result fills the caches of the sampled checks
    fresh_records, fresh_table = read(oracles.integrate_kept(m, fp, s.initial, cfg))
    monkeypatch.setattr(dy, "_BLOCK", 7)
    rows = {"metric_batch": [], "reference_batch": []}
    for owner, attr in ((geo.ManifoldSpec, "metric_batch"), (fl.FieldPack, "reference_batch")):
        def counted(self, qs, *rest, _f=getattr(owner, attr), _name=attr):
            rows[_name].append(len(qs))
            return _f(self, qs, *rest)
        monkeypatch.setattr(owner, attr, counted)
    records, table = read(oracles.integrate_kept(m, fp, s.initial, cfg))
    assert sum(rows["metric_batch"]) == sum(rows["reference_batch"]) == len(table)
    assert max(rows["metric_batch"]) == max(rows["reference_batch"]) == 7
    # the series equal an evaluation in larger blocks
    assert records == fresh_records
    assert table.tobytes() == fresh_table.tobytes()
    # a run under a pack without K has no charge and no certificate
    no_k = fl.FieldPack(fp.frame, force_operator=fp.force_operator, potential=fp.potential)
    bare, kept = oracles.integrate_kept(m, no_k, s.initial, cfg)
    assert dy.certificate(bare).refused
    assert len(kept.charge) and np.isnan(kept.charge).all()


SAMPLED_CHECKS = (fl.is_skew_adjoint, fl.conformal_report, fl.is_timelike_everywhere,
                  fl.annihilates)


def test_check_and_monitors_read_one_sample_per_hypothesis(monkeypatch):
    # check, the step loop's speed form, the monitors and the certificate all
    # read the same verdicts: in one process each sampled hypothesis reads the
    # sample once, and the sample is drawn, and its metric checked, once
    s = cat.builtin("t3-magnetic")
    m, fp = s.manifold, s.fields
    for cached in (*SAMPLED_CHECKS, dy._inverse_norm_bound, dy.compiled_system,
                   geo.sample_points, geo.sample_metrics, cr._region_points):
        cached.cache_clear()
    callers, draws, checked = [], [], []

    def sample_points(*args, _f=geo.sample_points):
        callers.append(sys._getframe(1).f_code.co_name)
        return _f(*args)

    def sample_predicate(count, *args, _f=sampling.sample_predicate):
        draws.append(count)
        return _f(count, *args)

    def metrics_at(m, qs, _f=geo.metrics_at):
        checked.append(len(qs))
        return _f(m, qs)

    monkeypatch.setattr(geo, "sample_points", sample_points)
    monkeypatch.setattr(sampling, "sample_predicate", sample_predicate)
    monkeypatch.setattr(geo, "metrics_at", metrics_at)
    report = cr.evaluate(m, fp)
    res = dy.integrate_maximal(m, fp, s.initial, s.integration_config(t_max=1.0))
    energy = dy.energy_monitor(res)
    killing = dy.killing_charge_monitor(res)
    assert not dy.certificate(res).refused
    assert sorted(callers) == sorted([*(f.__name__ for f in SAMPLED_CHECKS), "sample_metrics"])
    assert draws == [geo.SAMPLE_POINTS]
    assert checked == [geo.SAMPLE_POINTS]
    assert report.hypothesis("force-operator-skew").verdict == "pass"
    assert energy.applicable and killing.rate_residual is not None


def test_speed_series_uses_reference_form():
    s = cat.builtin("flat-lorentz-torus")
    res, table = oracles.integrate_kept(s.manifold, s.fields, s.initial,
                                        s.integration_config(t_max=1.0))
    assert res.speed_mode == "reference"
    speeds = table.speed
    # g_R(v,v) = g(v,v) + 2 g(K,v)^2 with v = (1, 0.3)
    want = math.sqrt((-1 + 0.09) + 2 * 1.0)
    assert np.allclose(speeds, want, atol=1e-9)


@pytest.mark.parametrize("source", [*cat.list_builtins(), os.path.join(
    os.path.dirname(__file__), "data", "curved-5d.json")], ids=os.path.basename)
def test_reference_speed_exactly_when_the_certificate_takes_k(source):
    # one sampled timelike check decides both the speed form and whether the
    # certificate refuses K
    s = cat.resolve(source)
    m, fp = s.manifold, s.fields
    res = dy.integrate_maximal(m, fp, s.initial, s.integration_config(t_max=0.1))
    reason = dy.certificate(res).reason
    taken = (fp.reference_field is not None
             and reason != "reference field is not timelike everywhere sampled")
    assert (res.speed_mode == "reference") is taken, reason


def test_stride_subsamples_but_keeps_endpoint():
    s = cat.builtin("flat-lorentz-torus")
    _, dense = oracles.integrate_kept(s.manifold, s.fields, s.initial,
                                      s.integration_config(t_max=5.0))
    res, sparse = oracles.integrate_kept(s.manifold, s.fields, s.initial,
                                         s.integration_config(t_max=5.0, stride=10))
    # the last step of each direction is not a kept multiple of the stride
    assert res.forward.accepted % 10 and res.backward.accepted % 10
    assert len(sparse.states) < len(dense.states)
    assert sparse.states[-1].t == pytest.approx(5.0)
    assert sparse.states[0].t == pytest.approx(-5.0)
    assert sparse.states[-1] == dense.states[-1]
    assert sparse.states[0] == dense.states[0]


# --- the step loop -----------------------------------------------------------

STEP_LOOP_INPUTS = ["t3-magnetic", "clifton-pohl", "riemann-superlinear",
                    os.path.join(os.path.dirname(__file__), "data", "curved-5d.json")]


@pytest.mark.parametrize("source", STEP_LOOP_INPUTS, ids=lambda x: os.path.basename(x))
def test_numpy_start_data_steps_in_plain_floats(source, monkeypatch):
    # a library caller may pass numpy floats as start data; the start-up
    # converts them once, so the step loop sees plain floats and the result
    # is the same
    s = cat.resolve(source)
    m, fp = s.manifold, s.fields
    rng = random.Random(5)
    q = cli._sample_initial_point(m, rng)
    v = cli._sample_velocity(m, fp, q, rng, 1.0)
    q, v = tuple(map(np.float64, q)), tuple(map(np.float64, v))
    assert all(type(c) is np.float64 for c in q + v)
    drawn = geo.TrajectoryState(np.float64(0.0), q, v)
    plain = geo.TrajectoryState(0.0, tuple(map(float, q)), tuple(map(float, v)))
    sysd = dy.compiled_system(m, fp)
    loop = sysd.kernel

    def checked(y, k1, *rest):
        numbers = [*y, *k1, *(c for c in rest if isinstance(c, (int, float)))]
        # the last two are counts, the stride and the length of a full block
        assert [type(c) for c in numbers] == [float] * (len(numbers) - 2) + [int, int]
        return loop(y, k1, *rest)

    monkeypatch.setattr(sysd, "kernel", checked)
    cfg = s.integration_config(t_max=2.0)
    (a, a_table), (b, b_table) = (oracles.integrate_kept(m, fp, s0, cfg) for s0 in (drawn, plain))
    assert a.forward.accepted > 0
    for x, y in zip(a_table.arrays(), b_table.arrays()):
        assert x.tobytes() == y.tobytes()
    assert (a.forward, a.backward) == (b.forward, b.backward)


def _reference_direction(sysd, s0, cfg, sign, sink):
    """The step loop written by hand over the single step of ``sysd``:
    the oracle of the generated loop that ``dy._run_direction`` runs, with
    the same arguments and the same sink calls and report."""
    m = sysd.m
    n = sysd.n
    step = oracles.single_step(sysd)
    rhs_flat = sysd.rhs_flat
    speed_sq = sysd.speed_sq
    scaling = isinstance(m.quotient, geo.ScalingQuotient)
    T, atol, rtol = float(cfg.t_max), float(cfg.atol), float(cfg.rtol)
    v_max, h_min, stride = float(cfg.v_max), float(cfg.h_min), cfg.stride
    h_max = T / 10.0
    end_gap = max(h_min, 1e-12 * T)
    t0 = float(s0.t)
    base = t0 if t0 else -0.0
    q, v, _ = geo.normalize_qv(m, tuple(map(float, s0.q)), tuple(map(float, s0.v)))
    y = q + v
    k1 = rhs_flat(t0, y)
    spd = math.sqrt(max(speed_sq(y), 0.0))
    backward = sign < 0.0
    full = dy._BLOCK * (1 + 2 * n)
    rows = array.array("d")

    def keep(t, y):
        nonlocal rows
        rows.append(t)
        rows.extend(y)
        if len(rows) == full:
            dy._hand(sink, rows, n, backward)
            rows = array.array("d")

    if not backward:
        keep(t0, y)
    tau = 0.0
    h = dy._initial_step(y, k1, cfg, h_max)
    err_old = 1e-4
    max_speed = spd
    min_h = math.inf
    accepted = rejected = 0
    since_sample = 0
    pending = None  # (t_lo, t_hi) bracket after a speed crossing
    pending_accepted = 0

    def finish(kind, t_star=None, half=None, marginal=False, detail=""):
        return dy.Classification(kind, t_star, half, marginal, detail)

    while True:
        rest = T - tau
        if rest <= end_gap:
            if pending is not None:
                verdict = finish(dy.BLOWUP, *dy._mid(pending), marginal=True,
                                 detail="speed crossed threshold; horizon before confirmation")
            else:
                verdict = finish(dy.COMPLETE)
            break
        if rest < h:
            h = rest
        if h_max < h:
            h = h_max
        hs = sign * h
        t = base + sign * tau
        try:
            err, y_new, k_new = step(t, hs, y, k1, atol, rtol)
            # an infinite err, or a stage that overflows (no new state), is
            # left to error control; a nan err is a failure
            ok = y_new is None or (not math.isnan(err) and all(map(math.isfinite, y_new)))
        except dy._EVAL_ERRORS:
            ok = False
        if not ok:
            rejected += 1
            h *= 0.5
            if h < h_min:
                if pending is not None:
                    verdict = finish(dy.BLOWUP, *dy._mid(pending),
                                     detail="speed crossed threshold; step collapse confirmed")
                else:
                    verdict = finish(dy.STALLED, t, h,
                                     detail="evaluation failure at minimum step")
                break
            continue
        if err > 1.0:
            rejected += 1
            h = h / min(dy._FAC_HI, err ** dy._EXPO / dy._SAFETY)
            if h < h_min:
                if pending is not None:
                    verdict = finish(dy.BLOWUP, *dy._mid(pending),
                                     detail="speed crossed threshold; step collapse confirmed")
                else:
                    verdict = finish(dy.BLOWUP, t, max(h, h_min),
                                     detail="step collapse under error control")
                break
            continue
        t_prev = t
        tau += h
        t = base + sign * tau
        accepted += 1
        if h < min_h:
            min_h = h
        if scaling:
            q, v, changed = geo.normalize_qv(m, y_new[:n], y_new[n:])
            y = q + v
            if changed:
                try:
                    k_new = rhs_flat(t, y)
                except dy._EVAL_ERRORS:
                    verdict = finish(dy.STALLED, t, h,
                                     detail="evaluation failure after renormalization")
                    break
        else:
            y = y_new
        k1 = k_new
        try:
            spd = speed_sq(y)
            spd = math.sqrt(0.0 if spd < 0.0 else spd)
        except dy._EVAL_ERRORS:
            spd = math.inf
        if spd > max_speed:
            max_speed = spd
        if not m.domain.contains(y[:n]):
            if pending is not None:
                verdict = finish(dy.BLOWUP, *dy._mid(pending), marginal=True,
                                 detail="speed crossed threshold; left domain during confirmation")
            else:
                verdict = finish(dy.LEFT_DOMAIN, *dy._mid((t_prev, t)),
                                 detail="left chart domain")
            break
        since_sample += 1
        if since_sample >= stride:
            keep(t, y)
            since_sample = 0
        if spd > v_max:
            if pending is None:
                pending = (t_prev, t)
                pending_accepted = accepted
            if spd >= 10.0 * v_max:
                if since_sample:
                    keep(t, y)
                verdict = finish(dy.BLOWUP, *dy._mid(pending),
                                 detail="speed crossed threshold, confirmed at 10x")
                break
            if accepted - pending_accepted >= dy._CONFIRM_STEPS:
                if since_sample:
                    keep(t, y)
                verdict = finish(dy.BLOWUP, *dy._mid(pending), marginal=True,
                                 detail="speed crossed threshold without 10x confirmation")
                break
        elif pending is not None:
            pending = None
        fac = err ** dy._EXPO / err_old ** dy._BETA / dy._SAFETY
        if fac > dy._FAC_HI:
            fac = dy._FAC_HI
        elif fac < dy._FAC_LO:
            fac = dy._FAC_LO
        h = h / fac
        err_old = err if err > 1e-4 else 1e-4
    if since_sample and verdict.kind == dy.COMPLETE:
        keep(base + sign * tau, y)
    if rows:
        dy._hand(sink, rows, n, backward)
    marginal = verdict.marginal
    if verdict.kind == dy.COMPLETE and (max_speed >= v_max / 10.0
                                        or min_h <= 10.0 * h_min):
        marginal = True
    verdict = dataclasses.replace(verdict, marginal=marginal)
    return dy.DirectionReport(verdict, max_speed, accepted, rejected)


def _line(potential, **cfg):
    """The real line with potential V, from x = 0 at unit speed."""
    fp = fl.FieldPack(X1, potential=ex.parse(potential, X1))
    return "line " + potential, euclid1(), fp, state((0.0,), (1.0,)), dy.IntegrationConfig(**cfg)


def _loop_cases():
    """(label, m, fp, s0, cfg) between them ending the step loop in every way
    it can end."""
    scenarios = [cat.builtin(name) for name in cat.list_builtins()] + [cat.load(CURVED_5D)]
    cases = [(s.name, s.manifold, s.fields, s.initial,
              s.integration_config(t_max=min(s.integration_config().t_max, 20.0)))
             for s in scenarios]
    rng = random.Random(11)
    for s in scenarios:
        m, fp = s.manifold, s.fields
        for _ in range(4 if s.name == "clifton-pohl" else 1):
            q = cli._sample_initial_point(m, rng)
            v = cli._sample_velocity(m, fp, q, rng, s.velocity_radius)
            cases.append((s.name + " sampled", m, fp, geo.TrajectoryState(0.0, q, v),
                          s.integration_config(t_max=min(s.integration_config().t_max, 5.0))))
    for s in (cat.builtin("flat-lorentz-torus"), cat.builtin("t3-magnetic")):
        cases.append((s.name + " stride", s.manifold, s.fields, s.initial,
                      s.integration_config(t_max=10.0, stride=3)))
    for names in (("s", "x", "y"), ("s", "x", "y", "z", "w")):
        for potential in (True, False):
            s = _curved_torus(names, potential, timed=True)
            cases.append((s.name + " timed", s.manifold, s.fields,
                          geo.TrajectoryState(0.4, s.initial.q, s.initial.v),
                          s.integration_config(t_max=2.0)))
    # x'' = x from v = 1 has speed cosh t: a crossing of a tiny v_max confirmed
    # at 10x, one that runs 200 steps below 10x, one the horizon cuts short,
    # one on a chart that ends before 10x; and the oscillator, whose speed
    # crosses back below
    cases += [_line("-x^2 / 2", t_max=10.0, v_max=1.01, rtol=1e-6, atol=1e-8),
              _line("-x^2 / 2", t_max=10.0, v_max=1.01, rtol=1e-12, atol=1e-14),
              _line("-x^2 / 2", t_max=1.0, v_max=1.01, rtol=1e-6, atol=1e-8),
              _line("x^2 / 2 - 0.3 * x", t_max=20.0, v_max=1.05)]
    label, _, fp, s0, cfg = _line("-x^2 / 2", t_max=10.0, v_max=1.01, rtol=1e-6, atol=1e-8)
    m = geo.manifold_from_components(X1, {(0, 0): ex.ONE},
                                     geo.ChartDomain((-math.inf,), (3.0,)), geo.RIEMANNIAN)
    cases.append((label + " bounded", m, fp, s0, cfg))
    # leaving a box and an excluded ball
    free = fl.FieldPack(XY)
    cases += [("box", euclid2(domain=geo.ChartDomain((-math.inf, -1.0), (2.0, 1.0))), free,
               state((0.0, 0.0), (1.0, 0.1)), dy.IntegrationConfig(t_max=10.0)),
              ("ball", euclid2(domain=geo.ChartDomain.unbounded(2, exclude_origin_radius=0.5)),
               free, state((2.0, 0.1), (-1.0, 0.0)), dy.IntegrationConfig(t_max=10.0))]
    # steps that collapse below h_min: the oscillator of frequency 10
    # rejects the first step of length 10 h_min until it is under h_min;
    # x'' = 1 - log(2 - x) crosses v_max, then its stages fail past x = 2
    cases += [_line("50 * x^2", t_max=10.0, h_min=0.1)]
    wall = fl.FieldPack(X1, force_vector=(ex.parse("1 - log(2 - x)", X1),))
    cases.append(("wall", euclid1(), wall, state((0.0,), (1.0,)),
                  dy.IntegrationConfig(t_max=10.0, v_max=1.01, rtol=1e-6, atol=1e-8, h_min=1e-6)))
    # evaluation failures: stages that overflow to inf and nan without
    # raising, log(x) past x = 0 and log(x - 1.5) once the scaling map
    # halves x = 2; and exp(-1e300 t), which raises at every backward stage
    overflow = fl.FieldPack(X1, force_vector=(ex.parse("1e300 * x", X1),))
    cases += [("overflow", euclid1(), overflow, state((1.0,), (1.0,)),
               dy.IntegrationConfig(t_max=1.0)),
              # finite states whose sum overflows
              ("far", euclid2(), fl.FieldPack(XY), state((1e308, 1e308), (0.1, 0.0)),
               dy.IntegrationConfig(t_max=1.0))]
    frame = ex.CoordinateFrame(("x",), time_dependent=True)
    timed_line = geo.manifold_from_components(frame, {(0, 0): ex.ONE},
                                              geo.ChartDomain.unbounded(1), geo.RIEMANNIAN)
    cases += [("log", euclid1(), fl.FieldPack(X1, force_vector=(ex.parse("log(x)", X1),)),
               state((0.5,), (-1.0,)), dy.IntegrationConfig(t_max=10.0)),
              ("exp", timed_line,
               fl.FieldPack(frame, force_vector=(ex.parse("exp(-1e300 * t)", frame),)),
               state((0.0,), (1.0,)), dy.IntegrationConfig(t_max=1.0)),
              ("renormalized log", euclid2(geo.ScalingQuotient(2.0)),
               fl.FieldPack(XY, force_vector=(ex.parse("log(x - 1.5)", XY), ex.ZERO)),
               state((1.9, 0.0), (1.0, 0.0)), dy.IntegrationConfig(t_max=1.0))]
    return cases


def _directions(run, sysd, s0, cfg):
    """Both directions of ``run``: the sink calls, bytes and all, and the reports."""
    calls = []

    def sink(ts, qs, vs, backward):
        calls.append((ts.tobytes(), qs.tobytes(), vs.tobytes(), backward))

    reports = [run(sysd, s0, cfg, sign, sink) for sign in (1.0, -1.0)]
    return calls, reports


def test_generated_loop_is_the_handwritten_loop(monkeypatch):
    # the generated step loop against the oracle over the single step: the
    # same kept rows, bit for bit and in the same blocks, and the same
    # reports, in both directions, for blocks of 7 rows and the default
    renormalized = []

    def normalize_qv(m, q, v, _f=geo.normalize_qv):
        out = _f(m, q, v)
        if sys._getframe(1).f_code.co_name == "_advance":
            renormalized.append(out[2])
        return out

    monkeypatch.setattr(geo, "normalize_qv", normalize_qv)
    details = set()
    for block in (7, dy._BLOCK):
        monkeypatch.setattr(dy, "_BLOCK", block)
        for label, m, fp, s0, cfg in _loop_cases():
            sysd = dy.compiled_system(m, fp)
            got = _directions(dy._run_direction, sysd, s0, cfg)
            want = _directions(_reference_direction, sysd, s0, cfg)
            assert got[0] == want[0], label
            assert repr(got[1]) == repr(want[1]) and got[1] == want[1], label
            details |= {r.classification.detail for r in got[1]}
    assert details == {detail for _, _, detail, _ in dy._ENDS.values()}
    # renormalizations inside the loop, not only at the start
    assert any(renormalized)


def test_scaling_shortcut_renormalizes_a_state_on_its_upper_edge():
    # clifton-pohl has no F, X or V, so from v = 0 every step keeps y5 == y:
    # started at |q| = 2, the scaling factor, each accepted state lies on the
    # edge that 1 <= |q| < 2 leaves out, and the loop maps it to |q| = 1
    s = cat.builtin("clifton-pohl")
    assert s.manifold.quotient.factor == 2.0
    sysd = dy.compiled_system(s.manifold, s.fields)
    y = (2.0, 0.0, 0.0, 0.0)
    end, *_, accepted, _, rows = sysd.kernel(
        y, sysd.rhs_flat(0.0, y), step=0.1, max_speed=0.0, base=-0.0, sign=1.0, T=1.0,
        atol=1e-12, rtol=1e-10, v_max=1e8, h_min=1e-12, h_max=0.1, end_gap=1e-12, stride=1,
        full=5 * dy._BLOCK, rows=array.array("d"), hand=None)
    assert end == "complete" and accepted > 0
    assert tuple(rows[1:5]) == (1.0, 0.0, 0.0, 0.0)
    assert len(rows) == 5 * accepted
    assert all(math.hypot(*rows[i + 1:i + 3]) == 1.0 for i in range(0, len(rows), 5))


@pytest.mark.parametrize("name", ["t3-magnetic", "clifton-pohl"])
def test_integration_reaches_the_traced_hook_points(name, monkeypatch):
    # the per-layer benchmark times the step loop through
    # compiled_system(...).kernel and reads geometry.normalize_qv; it fails
    # when an integration reaches either of them in no direction
    s = cat.builtin(name)
    sysd = dy.compiled_system(s.manifold, s.fields)
    assert type(sysd.kernel_source) is str
    calls = {"kernel": 0, "normalize_qv": 0}

    def counted(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(sysd, "kernel", counted("kernel", sysd.kernel))
    monkeypatch.setattr(geo, "normalize_qv", counted("normalize_qv", geo.normalize_qv))
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial, s.integration_config(t_max=1.0))
    assert res.forward.accepted and res.backward.accepted
    assert calls["kernel"] >= 2 and calls["normalize_qv"] >= 2, calls


def test_states_read_the_sample_rows():
    s = cat.builtin("t3-magnetic")
    _, table = oracles.integrate_kept(s.manifold, s.fields, s.initial,
                                      s.integration_config(t_max=3.0))
    ts, qs, vs = table.arrays()
    assert len(table.states) == len(ts) == len(qs) == len(vs) > 2
    assert np.all(np.diff(ts) > 0)
    for i in (0, len(ts) // 2, -1):
        st = table.states[i]
        assert st == geo.TrajectoryState(ts[i], tuple(qs[i]), tuple(vs[i]))
        assert all(type(c) is float for c in (st.t, *st.q, *st.v))
    assert table.states[-1].t == ts[-1] == pytest.approx(3.0)
    with pytest.raises(IndexError):
        table.states[len(ts)]
    assert [st.t for st in table.states] == ts.tolist()


def test_step_loop_runs_from_the_start_time():
    # an autonomous field takes the same steps from any start time, shifted
    s = cat.builtin("t3-magnetic")
    cfg = s.integration_config(t_max=1.0)
    (ts0, qs0, vs0), (ts5, qs5, vs5) = (
        oracles.integrate_kept(s.manifold, s.fields, s0, cfg)[1].arrays()
        for s0 in (s.initial, geo.TrajectoryState(5.0, s.initial.q, s.initial.v)))
    assert np.all(np.diff(ts5) > 0)
    assert ts5[0] == 4.0 and ts5[-1] == 6.0
    assert np.allclose(ts5 - 5.0, ts0, rtol=0.0, atol=1e-14)
    assert qs5.tobytes() == qs0.tobytes() and vs5.tobytes() == vs0.tobytes()
    # a time-dependent potential started at t0 is the shifted one started at 0
    t0 = 0.7
    cfg = dy.IntegrationConfig(t_max=3.0)
    frame = ex.CoordinateFrame(("x",), time_dependent=True)
    m = geo.manifold_from_components(frame, {(0, 0): ex.ONE}, geo.ChartDomain.unbounded(1),
                                     geo.RIEMANNIAN)

    def potential(shift):
        return fl.FieldPack(frame, potential=ex.parse(
            f"x^2 / 2 * (1 + 0.5 * cos(t + {shift}))", frame))

    _, late = oracles.integrate_kept(m, potential(0.0), geo.TrajectoryState(t0, (0.3,), (1.0,)),
                                     cfg)
    _, shifted = oracles.integrate_kept(m, potential(t0), state((0.3,), (1.0,)), cfg)
    # roundoff in the stage times moves the step grids apart, so compare
    # the ends of both directions
    for i in (0, -1):
        a, b = late.states[i], shifted.states[i]
        assert a.t - t0 == pytest.approx(b.t, abs=1e-9)
        assert np.allclose(a.q + a.v, b.q + b.v, rtol=0.0, atol=1e-9)


def test_non_finite_slope_above_dimension_4_is_told_by_its_kind():
    # the plain-float acceleration refuses an infinite slope as an overflow,
    # which error control rejects, and a nan one as an evaluation failure
    assert dy._finite((1.0, -2.0), (0.5, 0.5)) == (1.0, -2.0)
    with pytest.raises(OverflowError):
        dy._finite((math.inf, 1.0), (0.5, 0.5))
    for dv, v in (((math.nan, 1.0), (0.5, 0.5)), ((math.inf, 1.0), (math.nan, 0.5))):
        with pytest.raises(ValueError):
            dy._finite(dv, v)


def test_backward_collapse_at_the_start_keeps_negative_zero():
    # exp(-1e300 t) overflows at every backward stage: an infinite slope,
    # which error control rejects until the first step collapses, at t = -0.0
    frame = ex.CoordinateFrame(("x",), time_dependent=True)
    m = geo.manifold_from_components(frame, {(0, 0): ex.ONE}, geo.ChartDomain.unbounded(1),
                                     geo.RIEMANNIAN)
    fp = fl.FieldPack(frame, force_vector=(ex.parse("exp(-1e300 * t)", frame),))
    res = dy.integrate_maximal(m, fp, state((0.0,), (1.0,)), dy.IntegrationConfig(t_max=1.0))
    cls = res.backward.classification
    assert cls.kind == dy.BLOWUP and repr(cls.t_star) == "-0.0"
    assert cls.detail == "step collapse under error control"
    assert res.forward.classification.kind == dy.COMPLETE


def _stride_3_torus(tmp_path):
    doc = cat._doc_riemann_flat_torus()
    doc["config"]["stride"] = 3
    path = tmp_path / "riemann-flat-torus-stride-3.json"
    path.write_text(json.dumps(doc))
    return str(path)


BLOCK_INPUTS = [("t3-magnetic", ("--t-max", "20")), ("clifton-pohl", ()),
                ("null-plane-cubic", ()), ("riemann-superlinear", ()),
                (os.path.join(os.path.dirname(__file__), "data", "curved-5d.json"), ()),
                (_stride_3_torus, ())]


@pytest.mark.parametrize("source, args", BLOCK_INPUTS,
                         ids=lambda x: getattr(x, "__name__", os.path.basename(str(x))))
def test_block_size_changes_no_byte(source, args, tmp_path, capsys, monkeypatch):
    # the fold over blocks of 1, 7 and the default number of rows: the same
    # records, the same run and sweep output bytes
    if callable(source):
        source = source(tmp_path)
    s = cat.resolve(source)
    m, fp = s.manifold, s.fields
    cfg = s.integration_config(**({"t_max": float(args[1])} if args else {}))
    seen = []
    for block in (1, 7, dy._BLOCK):
        monkeypatch.setattr(dy, "_BLOCK", block)
        res = dy.integrate_maximal(m, fp, s.initial, cfg)
        records = (dy.energy_monitor(res), dy.killing_charge_monitor(res),
                   dy.certificate(res))
        out = tmp_path / str(block)
        outputs = []
        for argv in (["run", "--scenario", source, *args, "--output", str(out / "run")],
                     ["sweep", "--scenario", source, *args, "-n", "3", "--seed", "4",
                      "--output", str(out / "sweep")]):
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        seen.append((repr(records), outputs, files))
    assert len(files) == 4
    assert seen[0] == seen[1] == seen[2]


# arrays holding nan and the infinities, cut into blocks at random points
_FOLD_VALUES = strategies.lists(
    strategies.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, -2.0])
    | strategies.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(values=_FOLD_VALUES, cuts=strategies.lists(strategies.integers(1, 39), max_size=8))
def test_fold_over_blocks_is_the_max_over_the_whole(values, cuts):
    xs = np.array(values)
    running = None
    for block in np.split(xs, sorted(c for c in set(cuts) if c < len(xs))):
        running = dy._fold_max(running, block)
    assert repr(running) == repr(np.max(xs))


_STEPS = strategies.lists(strategies.floats(1e-3, 1.0), max_size=12)
_VALUES = strategies.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(forward=_STEPS, backward=_STEPS, data=strategies.data())
def test_rate_residual_fold_takes_every_triple_in_time_order(forward, backward, data):
    # the fold of the rate-identity residual over the forward stream from
    # t = 0, then the backward stream in decreasing t, cut into random
    # blocks, against one evaluation over the table in increasing t
    t_fwd = np.cumsum([0.0, *forward])
    t_back = -np.cumsum(backward)
    rows = len(t_fwd) + len(t_back)
    q = np.array(data.draw(strategies.lists(_VALUES, min_size=rows, max_size=rows)))
    r = np.array(data.draw(strategies.lists(_VALUES, min_size=rows, max_size=rows)))
    s = cat.builtin("t3-magnetic")
    series = dy.SampleSeries(s.manifold, s.fields)
    start = len(t_fwd)
    for lo, hi, ts, back in ((0, start, t_fwd, False), (start, rows, t_back, True)):
        cuts = data.draw(strategies.lists(strategies.integers(1, max(hi - lo - 1, 1)), max_size=4))
        edges = [0, *sorted(c for c in set(cuts) if c < hi - lo), hi - lo]
        for a, b in zip(edges, edges[1:]) if hi > lo else ():
            series._fold_residual(ts[a:b], q[lo + a:lo + b], r[lo + a:lo + b], back)
    order = np.r_[rows - 1:start - 1:-1, 0:start]  # the table in increasing t
    t = np.concatenate((t_fwd, t_back))[order]
    want = None
    if rows >= 3:
        want = np.max(np.abs(dy._nonuniform_derivative(t, q[order]) - r[order][1:-1]))
    assert repr(series.rate_residual) == repr(want)


def test_table_less_integration_holds_bounded_memory(monkeypatch):
    # the peak of a t3 integration without a table, with its monitors, does
    # not grow with the horizon; a kept table of the same run holds every row
    tracemalloc = pytest.importorskip("tracemalloc")
    s = cat.builtin("t3-magnetic")
    m, fp = s.manifold, s.fields
    monkeypatch.setattr(dy, "_BLOCK", 64)

    def peak(t_max):
        cfg = s.integration_config(t_max=t_max)
        tracemalloc.start()
        try:
            res = dy.integrate_maximal(m, fp, s.initial, cfg)
            records = (dy.energy_monitor(res), dy.killing_charge_monitor(res),
                       dy.certificate(res))
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return top, res, records

    peak(1.0)  # compiles the system and fills the sampled-check caches
    short, _, _ = peak(50.0)
    long, res, records = peak(400.0)
    assert res.forward.accepted > 20000
    # the table of the longer run alone would add over 2 MB; the slack
    # covers the interpreter's free lists, which fill up to a fixed size
    assert long <= short + 128 * 1024, (short, long)
    kept, table = oracles.integrate_kept(m, fp, s.initial, s.integration_config(t_max=400.0))
    ts, qs, vs = table.arrays()
    assert len(ts) == kept.forward.accepted + kept.backward.accepted + 1
    assert [x.t for x in table.states] == ts.tolist()
    assert table.states[-1] == geo.TrajectoryState(ts[-1], tuple(qs[-1]), tuple(vs[-1]))
    assert repr(records) == repr((dy.energy_monitor(kept),
                                  dy.killing_charge_monitor(kept),
                                  dy.certificate(kept)))


def _held(sysd, y):
    """The state the kernel returns for a step of length -0.0, which moves no
    coordinate (x + -0.0 is x for every x): y in the fundamental domain."""
    step = oracles.single_step(sysd)
    return step(0.0, -0.0, y, sysd.rhs_flat(0.0, y), 1e-12, 1e-10)[1]


@pytest.mark.parametrize("periods", [(1.0, None), (None, 2.5), (0.75, 1.0)])
def test_generated_wrap_matches_normalize_qv(periods):
    m = euclid2(geo.LatticeQuotient(periods))
    sysd = dy.compiled_system(m, fl.FieldPack(XY))
    v = (0.5, -0.0)
    for q in [(-0.3, -7.25), (2.5, 0.75), (-2.5, -1.0), (-0.75, 7.5), (0.0, -0.0),
              (1e-17, -1e-17), (-1e-300, 3.0), (1e12 + 0.3, -1e12 - 0.3)]:
        qn, vn, _ = geo.normalize_qv(m, q, v)
        # repr tells the sign of a zero apart
        assert repr(_held(sysd, q + v)) == repr(qn + vn), q


def test_step_loop_specialises_per_chart():
    lattice = dy.compiled_system(euclid2(geo.LatticeQuotient((1.0, 1.0))), fl.FieldPack(XY))
    assert _held(lattice, (1.5, -0.25, 0.5, 0.5)) == (0.5, 0.75, 0.5, 0.5)

    def specialised(sysd):
        """Whether the loop renormalizes and whether it tests the domain."""
        return "normalize_qv" in sysd.kernel_source, "'left'" in sysd.kernel_source

    assert specialised(lattice) == (False, False)
    scaled = dy.compiled_system(euclid2(geo.ScalingQuotient(2.0)), fl.FieldPack(XY))
    assert _held(scaled, (3.0, 0.0, 0.5, 0.5)) == (3.0, 0.0, 0.5, 0.5)
    assert specialised(scaled) == (True, False)
    for domain in (geo.ChartDomain((-math.inf, -math.inf), (2.0, math.inf)),
                   geo.ChartDomain.unbounded(2, exclude_origin_radius=0.5)):
        bounded = dy.compiled_system(euclid2(domain=domain), fl.FieldPack(XY))
        assert _held(bounded, (1.5, -0.25, 0.5, 0.5)) == (1.5, -0.25, 0.5, 0.5)
        assert specialised(bounded) == (False, True)


def _curved_torus(names, with_potential, null=False, timed=False):
    """A Lorentzian torus with a curved, non-diagonal spatial metric, a force
    operator and either a potential or an explicit force vector.  With
    ``null`` the first coordinate is null (g_00 = 0, g_01 = 1); with
    ``timed`` the potential or the force vector depends on t."""
    n = len(names)
    metric = {"g_0_1": "1"} if null else {"g_0_0": "-1"}
    metric["g_1_2"] = f"0.1 * sin(2 * pi * {names[-1]})"
    for i in range(1, n):
        metric[f"g_{i}_{i}"] = f"1 + 0.2 * cos(2 * pi * {names[i % (n - 1) + 1]})"
    F = [["0"] * n for _ in range(n)]
    F[1][2], F[2][1] = "1.1", "-1.1 * cos(2 * pi * s)"
    X = ["0"] * n
    X[1], X[2] = "sin(2 * pi * y)", "x * y" + " * cos(t)" * timed
    fields = {"F": F, "K": ["1"] + ["0"] * (n - 1)}
    if with_potential:
        fields["V"] = "0.05 * cos(2 * pi * x) * sin(2 * pi * s)" + " * cos(t)" * timed
    else:
        fields["X"] = X
    return cat.scenario_from_dict({
        "name": f"curved-{n}d", "dimension": n, "coordinates": list(names),
        "metric": metric, "quotient": {"lattice": [1.0] * n}, "fields": fields,
        "initial": {"q": [0.0] * n, "v": [1.0] + [0.1] * (n - 1)},
        "config": {"signature": "lorentzian"},
    })


def test_generated_rhs_matches_numeric_oracle():
    # the generated right-hand side (a contraction of the symbolic
    # derivatives of g, with the symbolic inverse up to dimension 4 and a
    # plain-float solve above) against rhs, whose Christoffels come from g
    # and its derivatives numerically in every dimension; in null
    # coordinates (g_00 = 0) g^-1 r sums several terms per component, and
    # the solve has to swap rows
    scenarios = [cat.builtin(name) for name in cat.list_builtins()]
    for names in (("s", "x", "y"), ("s", "x", "y", "z"), ("s", "x", "y", "z", "w")):
        scenarios += [_curved_torus(names, potential, null=null)
                      for potential in (True, False) for null in (False, True)]
    rng = np.random.default_rng(8)
    for s in scenarios:
        m, fp = s.manifold, s.fields
        rhs_flat = dy.compiled_system(m, fp).rhs_flat
        for q in geo.sample_points(m)[:40]:
            st = geo.TrajectoryState(0.3, tuple(q), tuple(rng.uniform(-2, 2, m.dim)))
            got = np.asarray(rhs_flat(st.t, st.q + st.v))
            want = np.concatenate(oracles.rhs(m, fp, st))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), s.name


# --- independent oracles -------------------------------------------------------

def test_t3_magnetic_without_potential_follows_the_helix():
    # with V = 0, dv = F v rotates the spatial velocity at rate b and q
    # follows a helix in closed form; over both directions to t = 1000
    b = 1.0
    s = cat.builtin("t3-magnetic", b=b, potential_amplitude=0.0)
    res, table = oracles.integrate_kept(s.manifold, s.fields, s.initial,
                                        s.integration_config(t_max=1000.0))
    assert res.forward.classification.kind == res.backward.classification.kind == dy.COMPLETE
    ts, qs, vs = table.arrays()
    (q0, q1, q2), (u0, u1, u2) = s.initial.q, s.initial.v
    c, sn = np.cos(b * ts), np.sin(b * ts)
    v_exact = np.column_stack([np.full_like(ts, u0), u1 * c + u2 * sn, -u1 * sn + u2 * c])
    q_exact = np.column_stack([q0 + u0 * ts, q1 + (u1 * sn - u2 * (c - 1.0)) / b,
                               q2 + (u1 * (c - 1.0) + u2 * sn) / b])
    dq = qs - q_exact
    dq -= np.round(dq)  # the lattice has period 1 in every coordinate
    assert len(ts) > 10000 and ts[0] == -1000.0 and ts[-1] == 1000.0
    assert np.max(np.abs(vs - v_exact)) < 1e-7
    assert np.max(np.abs(dq)) < 1e-7


def test_riemann_superlinear_bracket_holds_the_speed_crossing_time():
    # x'' = x^2 from x = v = 1 keeps v^2/2 - x^3/3 = 1/6, so the time at
    # which the speed reaches v_max, and the escape time, are quadratures;
    # the blow-up bracket holds the crossing, and the escape comes later
    quad = pytest.importorskip("scipy.integrate").quad
    s = cat.builtin("riemann-superlinear")
    cfg = s.integration_config()
    cls = dy.integrate_maximal(s.manifold, s.fields, s.initial, cfg).classification
    assert cls.kind == dy.BLOWUP

    def dt_dx(x):
        return 1.0 / math.sqrt(2.0 * x ** 3 / 3.0 + 1.0 / 3.0)

    x_cross = (3.0 * (cfg.v_max ** 2 / 2.0 - 1.0 / 6.0)) ** (1.0 / 3.0)
    t_cross = quad(dt_dx, 1.0, x_cross, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    t_escape = quad(dt_dx, 1.0, math.inf, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    assert t_cross == pytest.approx(2.3709381, abs=1e-7)
    assert t_escape == pytest.approx(2.3758706, abs=1e-7)
    assert abs(t_cross - cls.t_star) <= cls.t_star_halfwidth
    assert t_escape >= cls.t_star - cls.t_star_halfwidth
