"""Pointwise pseudo-Riemannian metric machinery.

A manifold is a single coordinate chart with a symbolic metric matrix, an
optional quotient (lattice translations or a scaling map) that encodes
compactness structurally, and a chart domain predicate.  Metric entries and
their derivatives are compiled once into numpy functions over arrays of
points; the pointwise operations apply them to one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from . import sampling

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"

_DEGENERACY_TOL = 1e-12
_NULL_BAND = 1e-12
_MAX_SYMBOLIC_DIM = 4


class GeometryError(ValueError):
    pass


class OutsideDomainError(GeometryError):
    pass


class DegenerateMetricError(GeometryError):
    pass


class SignatureError(GeometryError):
    pass


class ValidationError(GeometryError):
    """A spec or scenario violates a structural invariant."""


@dataclass(frozen=True)
class ChartDomain:
    """Box bounds per coordinate plus an optional excluded ball at the origin."""

    lower: tuple
    upper: tuple
    exclude_origin_radius: float | None = None

    @staticmethod
    def unbounded(n: int, exclude_origin_radius: float | None = None) -> "ChartDomain":
        return ChartDomain((-math.inf,) * n, (math.inf,) * n, exclude_origin_radius)

    def contains(self, q) -> bool:
        for x, lo, hi in zip(q, self.lower, self.upper):
            if not (lo <= x <= hi):
                return False
        if self.exclude_origin_radius is not None:
            if math.sqrt(sum(x * x for x in q)) < self.exclude_origin_radius:
                return False
        return True


@dataclass(frozen=True)
class LatticeQuotient:
    """Translation quotient: period L_i per coordinate, None = not periodic."""

    periods: tuple

    def __post_init__(self):
        if not any(p is not None for p in self.periods):
            raise ValidationError("lattice quotient needs at least one period")
        for p in self.periods:
            if p is not None and not (p > 0):
                raise ValidationError(f"lattice period must be positive, got {p}")


@dataclass(frozen=True)
class ScalingQuotient:
    """Quotient by p -> factor*p; fundamental annulus 1 <= |p| < factor."""

    factor: float

    def __post_init__(self):
        if not (self.factor > 1):
            raise ValidationError(f"scaling factor must exceed 1, got {self.factor}")


@dataclass(frozen=True)
class TrajectoryState:
    """Affine parameter, base point and velocity components."""

    t: float
    q: tuple
    v: tuple


@dataclass(frozen=True)
class ManifoldSpec:
    frame: ex.CoordinateFrame
    metric: tuple  # n x n tuple-of-tuples of Expr, structurally symmetric
    domain: ChartDomain
    signature: str = RIEMANNIAN
    quotient: LatticeQuotient | ScalingQuotient | None = None
    declared_complete: bool = False

    def __post_init__(self):
        n = self.frame.dim
        if len(self.metric) != n or any(len(row) != n for row in self.metric):
            raise ValidationError(f"metric must be {n}x{n} for this frame")
        for i in range(n):
            for j in range(i + 1, n):
                if self.metric[i][j] != self.metric[j][i]:
                    raise ValidationError(
                        f"metric entries g_{i}_{j} and g_{j}_{i} differ structurally")
        for row in self.metric:
            for entry in row:
                if ex.references_time(entry):
                    raise ValidationError("metric components must not depend on the parameter t")
        if self.signature not in (RIEMANNIAN, LORENTZIAN):
            raise ValidationError(f"unknown signature {self.signature!r}")
        if len(self.domain.lower) != n or len(self.domain.upper) != n:
            raise ValidationError("chart domain bounds must match the dimension")
        if isinstance(self.quotient, LatticeQuotient) and len(self.quotient.periods) != n:
            raise ValidationError("lattice periods must match the dimension")

    @property
    def dim(self) -> int:
        return self.frame.dim

    # -- compiled machinery (built once, read-only afterwards) --------------

    @cached_property
    def _sys(self) -> "_CompiledMetric":
        return _CompiledMetric(self)

    def metric_value(self, q) -> np.ndarray:
        """Raw metric matrix at a point, no domain/signature checks."""
        return self._sys.batch(np.asarray(q, dtype=float)[None])[0]

    def metric_batch(self, qs: np.ndarray) -> np.ndarray:
        """Metric matrices at an (m, n) array of points, shape (m, n, n)."""
        return self._sys.batch(qs)


def manifold_from_components(frame, components: dict, domain=None,
                             signature=RIEMANNIAN, quotient=None,
                             declared_complete=False) -> ManifoldSpec:
    """Build a spec from upper-triangle entries {(i, j): Expr}, i <= j."""
    n = frame.dim
    rows = [[ex.ZERO] * n for _ in range(n)]
    for (i, j), e in components.items():
        if not (0 <= i <= j < n):
            raise ValidationError(f"metric key ({i},{j}) out of range for dimension {n}")
        rows[i][j] = e
        rows[j][i] = e
    if domain is None:
        domain = ChartDomain.unbounded(n)
    return ManifoldSpec(frame, tuple(tuple(r) for r in rows), domain,
                        signature, quotient, declared_complete)


class _CompiledMetric:
    """Compiled metric entries and derivatives; symbolic Christoffels for the stepper."""

    def __init__(self, m: ManifoldSpec):
        frame = m.frame
        n = m.dim
        self.n = n
        self.frame = frame
        g = m.metric
        self.entries = {(i, j): ex.compile_batch(g[i][j], frame)
                        for i in range(n) for j in range(i, n)}
        # dg[k][i][j] = d g_ij / d x_k
        self.dg = [[[ex.derive(g[i][j], frame.names[k]) for j in range(n)]
                    for i in range(n)] for k in range(n)]
        if n <= _MAX_SYMBOLIC_DIM:
            self.ginv = _symbolic_inverse(g, _det(g, n), n)
            self.gamma = self._christoffel_exprs()
        else:
            self.ginv = None
            self.gamma = None

    def _christoffel_exprs(self):
        n = self.n
        gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    acc = ex.ZERO
                    for l in range(n):
                        term = ex.sub(ex.add(self.dg[i][j][l], self.dg[j][i][l]),
                                      self.dg[l][i][j])
                        acc = ex.add(acc, ex.mul(self.ginv[k][l], term))
                    e = ex.mul(Half, acc)
                    gamma[k][i][j] = e
                    gamma[k][j][i] = e
        return gamma

    def batch(self, qs: np.ndarray) -> np.ndarray:
        return symmetric_batch(self.entries, qs, (self.n, self.n))

    @cached_property
    def _dg_entries(self):
        n = self.n
        return {(k, i, j): ex.compile_batch(self.dg[k][i][j], self.frame)
                for k in range(n) for i in range(n) for j in range(i, n)}

    def dg_batch(self, qs: np.ndarray) -> np.ndarray:
        """Metric derivatives at an (m, n) array of points, indexed [m, k, i, j]."""
        return symmetric_batch(self._dg_entries, qs, (self.n,) * 3)


def symmetric_batch(entries: dict, qs: np.ndarray, shape: tuple) -> np.ndarray:
    """Array of shape (m, *shape) from {index: compiled entry} at t = 0; the
    last two positions of each index (i <= j) are mirrored to (j, i)."""
    ts = np.zeros(len(qs))
    out = np.empty((len(qs),) + shape)
    for index, f in entries.items():
        mirror = index[:-2] + index[:-3:-1]
        out[(slice(None),) + index] = out[(slice(None),) + mirror] = f(qs, ts)
    return out


Half = ex.Const(0.5)


def _det(g, n) -> ex.Expr:
    if n == 1:
        return g[0][0]
    acc = ex.ZERO
    for j in range(n):
        minor = _minor(g, 0, j, n)
        term = ex.mul(g[0][j], _det(minor, n - 1))
        acc = ex.add(acc, term if j % 2 == 0 else ex.neg(term))
    return acc


def _minor(g, drop_i, drop_j, n):
    return tuple(tuple(g[i][j] for j in range(n) if j != drop_j)
                 for i in range(n) if i != drop_i)


def _symbolic_inverse(g, det, n):
    """Inverse via the adjugate; entries are Expr."""
    if n == 1:
        return ((ex.div(ex.ONE, g[0][0]),),)
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = _det(_minor(g, j, i, n), n - 1)
            if (i + j) % 2 == 1:
                cof = ex.neg(cof)
            inv[i][j] = ex.div(cof, det)
    return tuple(tuple(row) for row in inv)


# --- public operations -----------------------------------------------------

def finite(what: str, qs, fn, *args) -> np.ndarray:
    """``fn(qs, *args)``, its leading axis over the rows of ``qs``, evaluated
    with numpy warnings off; ValidationError names the first point at which
    a value is not finite."""
    with np.errstate(all="ignore"):
        values = np.asarray(fn(qs, *args))
    bad = ~np.isfinite(values.reshape(len(qs), -1)).all(axis=1)
    if bad.any():
        raise ValidationError(
            f"{what} is not finite at {tuple(qs[int(np.argmax(bad))].tolist())}")
    return values


def metrics_at(m: ManifoldSpec, qs) -> np.ndarray:
    """g at each row of an (k, n) array; checks domain membership, finiteness,
    degeneracy and signature, and raises naming the first point that fails."""
    qs = np.asarray(qs, dtype=float)
    for q in qs:
        if not m.domain.contains(q):
            raise OutsideDomainError(f"point {tuple(q.tolist())} is outside the chart domain")
    g = finite("metric", qs, m.metric_batch)
    det = np.linalg.det(g)
    degenerate = np.abs(det) < _DEGENERACY_TOL
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise DegenerateMetricError(
            f"metric is degenerate at {tuple(qs[i].tolist())} (det={det[i]:.3e})")
    negatives = np.sum(np.linalg.eigvalsh(g) < 0.0, axis=-1)
    expected = 1 if m.signature == LORENTZIAN else 0
    wrong = negatives != expected
    if wrong.any():
        i = int(np.argmax(wrong))
        raise SignatureError(
            f"metric at {tuple(qs[i].tolist())} has {negatives[i]} negative eigenvalues, "
            f"expected {expected} for a {m.signature} spec")
    return g


def metric_at(m: ManifoldSpec, p) -> np.ndarray:
    """Evaluate g at p; checks domain membership, degeneracy and signature."""
    return metrics_at(m, np.asarray(p, dtype=float)[None])[0]


def inner(m: ManifoldSpec, p, u, v) -> float:
    """g_p(u, v)."""
    g = metric_at(m, p)
    return float(np.asarray(u) @ g @ np.asarray(v))


def causal_character(m: ManifoldSpec, p, v) -> str:
    """One of 'timelike', 'null', 'spacelike', 'zero'."""
    v = np.asarray(v, dtype=float)
    norm_sq = float(v @ v)
    if norm_sq == 0.0:
        return "zero"
    gvv = inner(m, p, v, v)
    if abs(gvv) <= _NULL_BAND * norm_sq:
        return "null"
    return "timelike" if gvv < 0.0 else "spacelike"


def levi_civita(g: np.ndarray, dg: np.ndarray, qs) -> np.ndarray:
    """Levi-Civita coefficients from g and its derivatives, indexed [k, i, j].

    g has shape (..., n, n) and dg shape (..., n, n, n) with dg[k, i, j] =
    d_k g_ij; one point or a stack of points.  Raises DegenerateMetricError
    naming the first point (row of ``qs``) where det g nearly vanishes.
    """
    degenerate = np.abs(np.linalg.det(g)) < _DEGENERACY_TOL
    if degenerate.any():
        q = np.reshape(qs, (-1, g.shape[-1]))[int(np.argmax(degenerate))]
        raise DegenerateMetricError(f"metric is degenerate at {tuple(q.tolist())}")
    ginv = np.linalg.inv(g)
    # 0.5 * g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), from dg[k, i, j] = d_k g_ij
    dg_ikj = np.swapaxes(dg, -3, -2)
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv,
                           dg + dg_ikj - np.swapaxes(dg_ikj, -2, -1))


def christoffel_at(m: ManifoldSpec, p) -> np.ndarray:
    """Levi-Civita coefficients at p, shape (n, n, n) indexed [k, i, j]."""
    qs = np.asarray(p, dtype=float)[None]
    return levi_civita(m.metric_batch(qs), m._sys.dg_batch(qs), qs)[0]


def auxiliary_riemannian(m: ManifoldSpec, p, z, v) -> float:
    """Positive-definite companion form g(v,v) + 2 g(z,v)^2 for unit timelike z."""
    g = metric_at(m, p)
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    gzz = float(z @ g @ z)
    if abs(gzz + 1.0) > 1e-10:
        raise ValidationError(f"reference vector is not unit timelike: g(z,z)={gzz!r}")
    return float(v @ g @ v) + 2.0 * float(z @ g @ v) ** 2


def normalize_qv(m: ManifoldSpec, q: tuple, v: tuple):
    """Map (q, v) into the fundamental domain by a deck transformation.

    Returns (q', v', changed).  Deck maps are isometries: lattice
    translations leave v untouched; the scaling map divides both by the
    applied power of the factor.
    """
    quot = m.quotient
    if quot is None:
        return q, v, False
    if isinstance(quot, LatticeQuotient):
        q_new = tuple(x if L is None else x % L for x, L in zip(q, quot.periods))
        return (q_new, v, q_new != q)
    lam = quot.factor
    r = math.sqrt(sum(x * x for x in q))
    if r == 0.0:
        return q, v, False
    k = math.floor(math.log(r) / math.log(lam))
    scale = lam ** k
    while r / scale >= lam:
        scale *= lam
    while r / scale < 1.0:
        scale /= lam
    if scale == 1.0:
        return q, v, False
    inv = 1.0 / scale
    return tuple(x * inv for x in q), tuple(x * inv for x in v), True


# --- fundamental domain sampling ------------------------------------------

def fundamental_domain_bounded(m: ManifoldSpec) -> bool:
    """True when quotient plus chart bounds make the fundamental domain bounded."""
    if isinstance(m.quotient, ScalingQuotient):
        return True
    if isinstance(m.quotient, LatticeQuotient):
        pairs = zip(m.quotient.periods, m.domain.lower, m.domain.upper)
        return all(L is not None or (math.isfinite(lo) and math.isfinite(hi))
                   for L, lo, hi in pairs)
    return all(math.isfinite(lo) and math.isfinite(hi)
               for lo, hi in zip(m.domain.lower, m.domain.upper))


def sampling_box(m: ManifoldSpec, fallback_halfwidth: float = 10.0):
    """Box (lo, hi) enclosing the fundamental domain, finite in each coordinate."""
    n = m.dim
    if isinstance(m.quotient, ScalingQuotient):
        lam = m.quotient.factor
        return (-lam,) * n, (lam,) * n
    lo, hi = [], []
    periods = m.quotient.periods if isinstance(m.quotient, LatticeQuotient) else (None,) * n
    for i in range(n):
        if periods[i] is not None:
            lo.append(0.0)
            hi.append(periods[i])
        else:
            a, b = m.domain.lower[i], m.domain.upper[i]
            lo.append(a if math.isfinite(a) else -fallback_halfwidth)
            hi.append(b if math.isfinite(b) else fallback_halfwidth)
    return tuple(lo), tuple(hi)


def sample_points(m: ManifoldSpec, count: int,
                  fallback_halfwidth: float = 10.0) -> np.ndarray:
    """Low-discrepancy points in the fundamental domain (chart domain respected)."""
    lo, hi = sampling_box(m, fallback_halfwidth)

    def keep(q):
        if isinstance(m.quotient, ScalingQuotient):
            r = math.sqrt(sum(x * x for x in q))
            if not (1.0 <= r < m.quotient.factor):
                return False
        return m.domain.contains(q)

    return sampling.sample_predicate(count, lo, hi, keep)


# --- validation ------------------------------------------------------------

def deck_transforms(m: ManifoldSpec):
    """Generator deck maps as (point_map, vector_map) pairs."""
    out = []
    if isinstance(m.quotient, LatticeQuotient):
        for i, L in enumerate(m.quotient.periods):
            if L is None:
                continue
            shift = np.zeros(m.dim)
            shift[i] = L
            out.append((lambda q, s=shift: np.asarray(q) + s, lambda v: np.asarray(v)))
    elif isinstance(m.quotient, ScalingQuotient):
        lam = m.quotient.factor
        out.append((lambda q: np.asarray(q) * lam, lambda v: np.asarray(v) * lam))
    return out


def validate_manifold(m: ManifoldSpec, points: int = 100, seed: int = sampling.DEFAULT_SEED):
    """Sampled structural checks: signature, non-degeneracy, deck isometry.

    Raises ValidationError on failure; silent on success.
    """
    try:
        pts = sample_points(m, points)
    except ValueError as err:
        raise ValidationError(f"cannot sample the fundamental domain: {err}") from err
    try:
        g = metrics_at(m, pts)
    except GeometryError as err:
        raise ValidationError(str(err)) from err
    transforms = deck_transforms(m)
    if not transforms:
        return
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((points, 2, m.dim))
    u, v = dirs[:, 0], dirs[:, 1]
    base = np.einsum("mi,mij,mj->m", u, g, v)
    with np.errstate(all="ignore"):
        moved = np.array([
            np.einsum("mi,mij,mj->m", vector_map(u), m.metric_batch(point_map(pts)),
                      vector_map(v))
            for point_map, vector_map in transforms])
    # not (a <= b) also catches a non-finite moved value
    broken = ~(np.abs(moved - base) <= 1e-10 * (1.0 + np.abs(base)))
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))
        j = int(np.argmax(broken[:, i]))
        raise ValidationError(
            f"quotient map is not an isometry at {tuple(pts[i].tolist())}: "
            f"g(u,v)={float(base[i])!r} vs {float(moved[j, i])!r}")
