"""Acceptance gate: each test exercises one numbered criterion end to end and
prints a single PASS/FAIL line (run with -s or look at captured output)."""

import contextlib
import io
import json
import math
import time

import numpy as np

import worldline.catalog as cat
import worldline.criteria as cr
import worldline.dynamics as dy
import worldline.expr as ex
import worldline.fields as fl
import worldline.geometry as geo
from worldline import cli

import oracles


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_1_energy_conservation_t3():
    s = cat.builtin("t3-magnetic")
    t0 = time.perf_counter()
    res = dy.integrate_maximal(s.manifold, s.fields, s.initial,
                               s.integration_config())  # t_max=100, rtol=1e-10
    rec = dy.energy_monitor(res)
    elapsed = time.perf_counter() - t0
    ok = rec.applicable and rec.max_drift <= 1e-8 and elapsed < 60.0
    report(1, ok, f"max energy drift {rec.max_drift:.3e} over [-100, 100] "
                  f"in {elapsed:.1f}s")


def test_criterion_2_clifton_pohl_blowup():
    s = cat.builtin("clifton-pohl")
    stars = {}
    for rtol in (1e-10, 1e-11):
        cfg = s.integration_config(rtol=rtol, atol=rtol / 100)
        res = dy.integrate_maximal(s.manifold, s.fields, s.initial, cfg)
        assert res.classification.kind == dy.BLOWUP
        stars[rtol] = res.classification.t_star
    err = abs(stars[1e-10] - 1.0)
    shift = abs(stars[1e-10] - stars[1e-11])
    ok = err <= 1e-3 and shift < 1e-4
    report(2, ok, f"|t* - 1| = {err:.3e}, tolerance refinement moved t* by "
                  f"{shift:.3e}")


def test_criterion_3_null_plane_blowup_with_report_facts():
    s = cat.builtin("null-plane-cubic")
    stars = {}
    for rtol in (1e-10, 1e-11):
        cfg = s.integration_config(rtol=rtol, atol=rtol / 100)
        res = dy.integrate_maximal(s.manifold, s.fields, s.initial, cfg)
        assert res.classification.kind == dy.BLOWUP
        stars[rtol] = res.classification.t_star
    err = abs(stars[1e-10] - 1.0)
    shift = abs(stars[1e-10] - stars[1e-11])
    code, out = run_cli(["run", "--scenario", "null-plane-cubic"])
    doc = json.loads(out)
    facts = (doc["metric_declared_complete"] is True
             and doc["field_norm_maxima"]["g_XX"] <= 1e-10)
    ok = code == 0 and err <= 1e-3 and shift < 1e-4 and facts
    report(3, ok, f"|t* - 1| = {err:.3e}, shift {shift:.3e}, report asserts "
                  f"complete metric and g(X,X) max {doc['field_norm_maxima']['g_XX']:.1e}")


def test_criterion_4_t3_sweep_corroboration():
    code, out = run_cli(["sweep", "--scenario", "t3-magnetic",
                         "-n", "100", "--t-max", "1000"])
    doc = json.loads(out)
    ok = (code == 0
          and doc["counts"] == {"CompleteToHorizon": 100}
          and doc["certificates_consistent"] is True)
    report(4, ok, f"counts {doc['counts']}, max speed {doc['max_speed']:.4f}, "
                  f"certificate bound {doc['max_certificate_bound']:.4f}, "
                  f"consistent={doc['certificates_consistent']}")


def test_criterion_5_killing_charge_identity():
    t3 = cat.builtin("t3-magnetic")
    res = dy.integrate_maximal(t3.manifold, t3.fields, t3.initial,
                               t3.integration_config())
    rec = dy.killing_charge_monitor(res)
    t3_residual = rec.rate_residual

    torus = cat.builtin("flat-lorentz-torus")
    res2 = dy.integrate_maximal(torus.manifold, torus.fields, torus.initial,
                                torus.integration_config())
    rec2 = dy.killing_charge_monitor(res2)
    ok = (t3_residual is not None and t3_residual <= 1e-6
          and rec2.constant_case and rec2.max_drift <= 1e-8
          and (rec2.rate_residual is None or rec2.rate_residual <= 1e-6))
    report(5, ok, f"t3 rate residual {t3_residual:.3e}, conserved-charge "
                  f"drift {rec2.max_drift:.3e}")


def test_criterion_6_skew_iff_vanishing_symmetric_part():
    worst = []
    for name in cat.list_builtins():
        s = cat.builtin(name)
        if s.fields.force_operator is None:
            continue
        skew = fl.is_skew_adjoint(s.manifold, s.fields)
        pts = geo.sample_points(s.manifold)
        s_norm = max(float(np.max(np.abs(
            oracles.decompose(s.manifold, s.fields, tuple(q)).S))) for q in pts)
        agree = skew.passed == (s_norm <= 1e-9)
        worst.append((name, skew.passed, s_norm, agree))
    ok = bool(worst) and all(w[3] for w in worst)
    detail = "; ".join(f"{n}: skew={sk} |S|={sn:.2e}" for n, sk, sn, _ in worst)
    report(6, ok, detail)


def test_criterion_7_checker_soundness():
    outcomes = {}
    for name in cat.list_builtins():
        code, out = run_cli(["check", "--scenario", name])
        outcomes[name] = (code, json.loads(out)["prediction"])
    never = all(outcomes[n] == (1, "NoPrediction") for n in
                ("clifton-pohl", "null-plane-cubic", "riemann-superlinear"))
    always = all(outcomes[n] == (0, "Complete") for n in
                 ("t3-magnetic", "flat-lorentz-torus", "riemann-flat-torus"))
    ok = never and always
    report(7, ok, ", ".join(f"{n}={p}" for n, (_, p) in sorted(outcomes.items())))


def _fd_christoffel(m, q, h=1e-6):
    n = m.dim
    q = np.asarray(q, dtype=float)
    dg = np.empty((n, n, n))
    for i in range(n):
        hi, lo = q.copy(), q.copy()
        hi[i] += h
        lo[i] -= h
        dg[i] = (m.metric_batch(hi[None])[0] - m.metric_batch(lo[None])[0]) / (2 * h)
    ginv = np.linalg.inv(m.metric_batch(q[None])[0])
    return 0.5 * np.einsum("kl,ijl->kij",
                           ginv, dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))


def _random_domain_points(m, count, rng):
    lo, hi = geo.sampling_box(m)
    lo, hi = np.asarray(lo), np.asarray(hi)
    out = []
    while len(out) < count:
        q = tuple(lo + (hi - lo) * rng.random(m.dim))
        if isinstance(m.quotient, geo.ScalingQuotient):
            if not 1.0 <= math.hypot(*q) < m.quotient.factor:
                continue
        if m.domain.contains(q):
            out.append(q)
    return out


def test_criterion_8_geometry_oracles():
    rng = np.random.default_rng(20240811)
    worst_gamma = 0.0
    for name in cat.list_builtins():
        m = cat.builtin(name).manifold
        for q in _random_domain_points(m, 500, rng):
            diff = np.max(np.abs(oracles.christoffel_at(m, q) - _fd_christoffel(m, q)))
            worst_gamma = max(worst_gamma, float(diff))
    gamma_ok = worst_gamma <= 1e-6

    from test_expr import central_difference, random_expr
    frame = ex.CoordinateFrame(("x", "y", "z"))
    checked = 0
    worst_rel = 0.0
    while checked < 1000:
        e = random_expr(rng, frame, depth=4)
        q = tuple(rng.uniform(-2, 2, size=3))
        val = oracles.evaluate(e, q)
        if not math.isfinite(val) or abs(val) > 1e6:
            continue
        i = int(rng.integers(3))
        sym = oracles.evaluate(ex.derive(e, frame.names[i]), q)
        if abs(sym) > 1e6:
            continue
        fd = central_difference(e, frame, q, i, 1e-6 * (1 + abs(q[i])))
        rel = abs(sym - fd) / (1.0 + abs(sym))
        worst_rel = max(worst_rel, rel)
        checked += 1
    deriv_ok = worst_rel <= 1e-5
    ok = gamma_ok and deriv_ok
    report(8, ok, f"Christoffel FD worst {worst_gamma:.3e} on 500 points per "
                  f"manifold; derivative FD worst {worst_rel:.3e} on 1000 "
                  f"random expressions")


def test_criterion_9_deterministic_sweeps(tmp_path):
    dirs = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        code, out = run_cli(["sweep", "--scenario", "clifton-pohl",
                             "-n", "10", "--seed", "7", "--output", str(d)])
        assert code == 0
        dirs.append((d, out))
    (d1, out1), (d2, out2) = dirs
    same_stdout = out1 == out2
    same_csv = (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    same_json = (d1 / "sweep_report.json").read_bytes() == \
                (d2 / "sweep_report.json").read_bytes()
    ok = same_stdout and same_csv and same_json
    report(9, ok, f"stdout identical={same_stdout}, csv identical={same_csv}, "
                  f"json identical={same_json}")
