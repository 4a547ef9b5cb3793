import math
import random

import numpy as np
import pytest

import worldline.catalog as cat
import worldline.expr as ex
import worldline.geometry as geo
import worldline.sampling as sampling
from worldline import cli

from oracles import christoffel_at

XY = ex.CoordinateFrame(("x", "y"))


def flat2(signature=geo.RIEMANNIAN, quotient=None, domain=None, declared=False):
    sign = "-1" if signature == geo.LORENTZIAN else "1"
    return geo.manifold_from_components(
        XY,
        {(0, 0): ex.parse(sign, XY), (1, 1): ex.parse("1", XY)},
        domain or geo.ChartDomain.unbounded(2),
        signature, quotient, declared)


def polar():
    frame = ex.CoordinateFrame(("r", "w"))
    return geo.manifold_from_components(
        frame,
        {(0, 0): ex.parse("1", frame), (1, 1): ex.parse("r^2", frame)},
        geo.ChartDomain((1e-6, -math.inf), (math.inf, math.inf)),
        geo.RIEMANNIAN)


def fd_christoffel(m, q, h=1e-6):
    """Finite-difference Gamma^k_ij from raw metric samples."""
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


def test_manifold_validation_rejects_bad_input():
    with pytest.raises(geo.ValidationError):
        geo.ManifoldSpec(XY, ((ex.ONE,),), geo.ChartDomain.unbounded(2),
                         geo.RIEMANNIAN)  # metric shape != dim
    with pytest.raises(geo.ValidationError):
        geo.manifold_from_components(XY, {(0, 0): ex.ONE},
                                     geo.ChartDomain.unbounded(3), geo.RIEMANNIAN)
    with pytest.raises(geo.ValidationError):
        flat2(signature="euclidean")
    # metric entries may not depend on the ambient time parameter
    xt = ex.CoordinateFrame(("x", "y"), time_dependent=True)
    with pytest.raises(geo.ValidationError):
        geo.manifold_from_components(
            xt, {(0, 0): ex.parse("t", xt), (1, 1): ex.ONE},
            geo.ChartDomain.unbounded(2), geo.RIEMANNIAN)


def test_chart_domain():
    d = geo.ChartDomain((-1.0, -math.inf), (1.0, math.inf),
                        exclude_origin_radius=0.1)
    assert d.contains((0.5, 100.0))
    assert not d.contains((1.5, 0.0))
    assert not d.contains((0.05, 0.05))  # inside the excluded ball
    assert geo.ChartDomain.unbounded(3).contains((1e12, -1e12, 0.0))


def test_quotient_validation():
    with pytest.raises(geo.ValidationError):
        geo.ScalingQuotient(1.0)  # factor must exceed 1
    with pytest.raises(geo.ValidationError):
        geo.LatticeQuotient((0.0, 1.0))
    with pytest.raises(geo.ValidationError):
        flat2(quotient=geo.LatticeQuotient((1.0,)))  # arity mismatch


def test_metric_at_signature_and_degeneracy():
    # declared Lorentzian, actually positive definite
    m_wrong = geo.manifold_from_components(
        XY, {(0, 0): ex.ONE, (1, 1): ex.ONE},
        geo.ChartDomain.unbounded(2), geo.LORENTZIAN)
    with pytest.raises(geo.SignatureError):
        geo.metric_at(m_wrong, (0.0, 0.0))
    frame = XY
    degenerate = geo.manifold_from_components(
        frame, {(0, 0): ex.parse("x", frame), (1, 1): ex.ONE},
        geo.ChartDomain.unbounded(2), geo.RIEMANNIAN)
    with pytest.raises(geo.DegenerateMetricError):
        geo.metric_at(degenerate, (0.0, 1.0))
    with pytest.raises(geo.OutsideDomainError):
        geo.metric_at(flat2(domain=geo.ChartDomain((-1, -1), (1, 1))), (2.0, 0.0))


def test_christoffel_polar_closed_form():
    m = polar()
    r = 1.7
    gam = christoffel_at(m, (r, 0.3))
    want = np.zeros((2, 2, 2))
    want[0, 1, 1] = -r           # Gamma^r_ww
    want[1, 0, 1] = want[1, 1, 0] = 1 / r
    assert np.allclose(gam, want, atol=1e-12)


def test_christoffel_spherical_closed_form():
    frame = ex.CoordinateFrame(("r", "h", "p"))
    m = geo.manifold_from_components(
        frame,
        {(0, 0): ex.ONE,
         (1, 1): ex.parse("r^2", frame),
         (2, 2): ex.parse("r^2 * sin(h)^2", frame)},
        geo.ChartDomain((1e-6, 1e-6, -math.inf),
                        (math.inf, math.pi - 1e-6, math.inf)),
        geo.RIEMANNIAN)
    r, h = 2.0, 0.9
    gam = christoffel_at(m, (r, h, 0.0))
    assert gam[0, 1, 1] == pytest.approx(-r)
    assert gam[0, 2, 2] == pytest.approx(-r * math.sin(h) ** 2)
    assert gam[1, 0, 1] == pytest.approx(1 / r)
    assert gam[1, 2, 2] == pytest.approx(-math.sin(h) * math.cos(h))
    assert gam[2, 1, 2] == pytest.approx(math.cos(h) / math.sin(h))


def test_christoffel_numeric_path_beyond_symbolic_limit():
    # five dimensions forces the finite, non-codegen route
    names = tuple(f"x{i}" for i in range(5))
    frame = ex.CoordinateFrame(names)
    comp = {(i, i): ex.ONE for i in range(5)}
    comp[(0, 0)] = ex.parse("1 + x1^2", frame)
    m = geo.manifold_from_components(frame, comp, geo.ChartDomain.unbounded(5),
                                     geo.RIEMANNIAN)
    q = (0.3, 0.7, -0.2, 0.0, 1.1)
    gam = christoffel_at(m, q)
    assert gam.shape == (5, 5, 5)
    # Gamma^0_01 = x1/(1+x1^2), Gamma^1_00 = -x1
    x1 = q[1]
    assert gam[0, 0, 1] == pytest.approx(x1 / (1 + x1 * x1), rel=1e-6)
    assert gam[1, 0, 0] == pytest.approx(-x1, rel=1e-6)
    assert np.allclose(gam, fd_christoffel(m, q), atol=1e-6)


def test_christoffel_matches_finite_differences_clifton_pohl():
    frame = ex.CoordinateFrame(("u", "v"))
    m = geo.manifold_from_components(
        frame, {(0, 1): ex.parse("1 / (u^2 + v^2)", frame)},
        geo.ChartDomain.unbounded(2, exclude_origin_radius=1e-8),
        geo.LORENTZIAN, geo.ScalingQuotient(2.0))
    gam = christoffel_at(m, (1.0, 0.0))
    assert gam[0, 0, 0] == pytest.approx(-2.0)  # drives u = 1/(1-t)
    rng = np.random.default_rng(5)
    for _ in range(25):
        q = tuple(rng.uniform(-2, 2, size=2))
        if np.hypot(*q) < 0.3:
            continue
        assert np.allclose(christoffel_at(m, q), fd_christoffel(m, q),
                           atol=1e-6)


def test_normalize_lattice():
    m = flat2(quotient=geo.LatticeQuotient((1.0, None)))
    q, v, changed = geo.normalize_qv(m, (2.25, 5.0), (3.0, -1.0))
    assert changed
    assert q == (0.25, 5.0)
    assert v == (3.0, -1.0)  # translations do not touch velocities
    q2, v2, changed2 = geo.normalize_qv(m, (0.25, 5.0), (3.0, -1.0))
    assert not changed2 and q2 == (0.25, 5.0)


def test_normalize_scaling():
    frame = ex.CoordinateFrame(("u", "v"))
    m = geo.manifold_from_components(
        frame, {(0, 1): ex.parse("1 / (u^2 + v^2)", frame)},
        geo.ChartDomain.unbounded(2, exclude_origin_radius=1e-8),
        geo.LORENTZIAN, geo.ScalingQuotient(2.0))
    q, v, changed = geo.normalize_qv(m, (4.4, 0.0), (8.0, 2.0))
    assert changed
    assert q[0] == pytest.approx(1.1)
    assert v == (2.0, 0.5)  # velocity divides by the same power of the factor
    r = math.hypot(*q)
    assert 1.0 <= r < 2.0
    # inward points scale up
    q2, v2, _ = geo.normalize_qv(m, (0.3, 0.0), (1.0, 0.0))
    assert 1.0 <= math.hypot(*q2) < 2.0
    assert q2[0] == pytest.approx(1.2)
    assert v2[0] == pytest.approx(4.0)


def test_deck_isometry_on_builtin_quotients():
    for name in cat.list_builtins():
        geo.validate_manifold(cat.builtin(name).manifold)


def test_deck_isometry_refuses_a_metric_the_lattice_moves():
    # the shift x -> x + 1 takes g_xx = 1 + 0.5 x to 1.5 + 0.5 x
    m = geo.manifold_from_components(
        XY, {(0, 0): ex.parse("1 + 0.5*x", XY), (1, 1): ex.ONE},
        geo.ChartDomain.unbounded(2), geo.RIEMANNIAN, geo.LatticeQuotient((1.0, 1.0)))
    with pytest.raises(geo.ValidationError, match="quotient map is not an isometry"):
        geo.validate_manifold(m)


def test_sample_points_stay_in_fundamental_domain():
    frame = ex.CoordinateFrame(("u", "v"))
    m = geo.manifold_from_components(
        frame, {(0, 1): ex.parse("1 / (u^2 + v^2)", frame)},
        geo.ChartDomain.unbounded(2, exclude_origin_radius=1e-8),
        geo.LORENTZIAN, geo.ScalingQuotient(2.0))
    pts = geo.sample_points(m)
    assert len(pts) == geo.SAMPLE_POINTS
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all((radii >= 1.0) & (radii < 2.0))
    torus = flat2(quotient=geo.LatticeQuotient((1.0, 1.0)))
    pts2 = geo.sample_points(torus)
    assert np.all((pts2 >= 0.0) & (pts2 < 1.0))


def _scalar_in_fundamental_domain(m, q):
    """The fundamental-domain predicate one point at a time: the oracle of
    the mask ``geo.in_fundamental_domain`` computes."""
    r = math.sqrt(sum(x * x for x in q))
    if isinstance(m.quotient, geo.ScalingQuotient) and not 1.0 <= r < m.quotient.factor:
        return False
    if not all(lo <= x <= hi for x, lo, hi in zip(q, m.domain.lower, m.domain.upper)):
        return False
    return m.domain.exclude_origin_radius is None or not r < m.domain.exclude_origin_radius


def test_fundamental_domain_mask_is_the_scalar_predicate():
    import os

    scaled = geo.manifold_from_components(
        ex.CoordinateFrame(("u", "v")), {(0, 0): ex.ONE, (1, 1): ex.ONE},
        geo.ChartDomain((-1.5, -math.inf), (math.inf, 1.5), exclude_origin_radius=1.25),
        geo.RIEMANNIAN, geo.ScalingQuotient(2.0))
    curved = cat.load(os.path.join(os.path.dirname(__file__), "data", "curved-5d.json"))
    rng = np.random.default_rng(3)
    for m in (scaled, curved.manifold, *(cat.builtin(n).manifold for n in cat.list_builtins())):
        lo, hi = geo.sampling_box(m)
        qs = rng.uniform(np.array(lo) - 1.0, np.array(hi) + 1.0, (4000, m.dim))
        # points on the edges of the box, the annulus and the excluded ball,
        # and one float either side of them
        edges = [b for b in (*lo, *hi, *m.domain.lower, *m.domain.upper) if math.isfinite(b)]
        edges += [1.0, 1.25, 2.0, -1.0, -1.25, -2.0]
        for c in range(m.dim):
            for e in edges:
                for x in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf)):
                    q = np.zeros(m.dim)
                    q[c] = x
                    qs = np.vstack([qs, q])
        want = [_scalar_in_fundamental_domain(m, q) for q in qs.tolist()]
        assert geo.in_fundamental_domain(m, qs).tolist() == want
        assert [m.domain.contains(q) for q in qs] == m.domain.contains_rows(qs).tolist()
        # a prefix of the sample is a sample: validation and the run report
        # read prefixes
        small = sampling.sample_predicate(200, lo, hi, lambda qs: geo.in_fundamental_domain(m, qs))
        assert geo.sample_points(m)[:200].tobytes() == small.tobytes()


def test_trajectory_state_is_immutable():
    s = geo.TrajectoryState(0.0, (1.0, 2.0), (0.5, 0.5))
    with pytest.raises(AttributeError):
        s.t = 1.0


def _scalar_van_der_corput(i, base):
    x = 0.0
    denom = 1.0
    while i > 0:
        denom *= base
        i, rem = divmod(i, base)
        x += rem / denom
    return x


def test_halton_matches_the_scalar_digit_loop_bit_for_bit():
    for dim in range(1, 9):
        for skip in (20, 1020, 64020):
            for count in (1, 7, 1000):
                got = sampling.halton(count, dim, skip)
                want = np.array([[_scalar_van_der_corput(k + 1 + skip, sampling._PRIMES[j])
                                  for j in range(dim)] for k in range(count)])
                assert got.shape == (count, dim)
                assert got.tobytes() == want.tobytes(), (dim, skip, count)
    with pytest.raises(ValueError):
        sampling.halton(1, 9)


def test_sample_directions_are_deterministic_unit_rows_and_prefixes():
    for dim in range(1, 9):
        dirs = sampling.sample_directions(8000, dim)
        assert dirs.shape == (8000, dim)
        assert np.all(np.abs(np.einsum("ki,ki->k", dirs, dirs) - 1.0) <= 1e-15)
        assert np.all(np.abs(dirs).max(axis=1) > 0.1)
        # every coordinate takes both signs
        assert np.all((dirs > 0.0).any(axis=0) & (dirs < 0.0).any(axis=0))
        assert dirs.tobytes() == sampling.sample_directions(8000, dim).tobytes()
        for k in (1, 7, 1000, 7999):
            assert sampling.sample_directions(k, dim).tobytes() == dirs[:k].tobytes(), (dim, k)
    with pytest.raises(ValueError):
        sampling.sample_directions(1, 9)


def test_ball_point_is_uniform_in_the_ball():
    # a uniform point lies within half the radius with probability 2^-dim;
    # the share of 4000 draws stays within four standard deviations of it
    rng, draws = random.Random(1), 4000
    for dim in range(1, 6):
        radius = 0.5 * dim
        pts = np.array([sampling.ball_point(rng, dim, radius) for _ in range(draws)])
        r2 = np.einsum("ki,ki->k", pts, pts)
        assert np.all(r2 <= radius * radius * (1.0 + 1e-15)), dim
        p = 0.5 ** dim
        share = np.count_nonzero(r2 <= 0.25 * radius * radius) / draws
        assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / draws), (dim, share)


def test_quadratic_form_ball_point_lies_in_the_form_ball():
    rng = random.Random(2)
    for form in (np.diag([1.0, 4.0, 0.25]), np.array([[3.0, 1.0], [1.0, 2.0]]),
                 np.array([[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, 0.2, 0.0],
                           [0.0, 0.2, 5.0, 1.0], [0.1, 0.0, 1.0, 1.5]])):
        for _ in range(500):
            v = np.array(sampling.quadratic_form_ball_point(rng, form, 1.5))
            assert v @ form @ v <= 1.5 ** 2 * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        sampling.quadratic_form_ball_point(rng, np.diag([1.0, -1.0]), 1.0)


def test_sweep_start_draws_are_plain_floats_in_the_fundamental_domain():
    # clifton-pohl's fundamental domain is the annulus 1 <= |q| < 2
    annulus = cat.builtin("clifton-pohl").manifold
    torus = flat2(quotient=geo.LatticeQuotient((1.0, 1.0)))
    form = np.array([[3.0, 1.0], [1.0, 2.0]])

    def draws(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(200):
            for m in (annulus, torus):
                out.append(cli._sample_initial_point(m, rng))
            out.append(sampling.ball_point(rng, 2, 1.0))
            out.append(sampling.quadratic_form_ball_point(rng, form, 1.0))
        return out

    got = draws(7)
    assert all(type(c) is float for row in got for c in row)
    qs = np.array(got).reshape(200, 4, 2)
    radii = np.hypot(qs[:, 0, 0], qs[:, 0, 1])
    assert np.all((radii >= 1.0) & (radii < 2.0))
    assert np.all((qs[:, 1] >= 0.0) & (qs[:, 1] < 1.0))
    assert geo.in_fundamental_domain(annulus, qs[:, 0]).all()
    assert geo.in_fundamental_domain(torus, qs[:, 1]).all()
    assert got == draws(7) and got != draws(8)
