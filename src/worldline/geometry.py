"""Pointwise pseudo-Riemannian metric machinery.

A manifold is a single coordinate chart with a symbolic metric matrix, an
optional quotient (lattice translations or a scaling map) that encodes
compactness structurally, and a chart domain predicate.  The metric is
compiled once into one numpy function over arrays of points; its symbolic
derivatives, and up to dimension 4 its symbolic inverse, feed the generated
stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import sampling

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"

_DEGENERACY_TOL = 1e-12
_MAX_SYMBOLIC_DIM = 4

SAMPLE_POINTS = 1000  # of every sampled hypothesis, in check, run and sweep alike
VALIDATION_POINTS = 100  # its prefix, on which a scenario is checked on load


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

    def __post_init__(self):
        r = self.exclude_origin_radius
        if r is not None and not 0.0 <= r < math.inf:
            raise ValidationError(f"exclude_origin_radius must be finite and >= 0, got {r!r}")

    @staticmethod
    def unbounded(n: int, exclude_origin_radius: float | None = None) -> "ChartDomain":
        return ChartDomain((-math.inf,) * n, (math.inf,) * n, exclude_origin_radius)

    def contains(self, q) -> bool:
        return bool(self.contains_rows(np.asarray(q, dtype=float)[None])[0])

    def contains_rows(self, qs: np.ndarray) -> np.ndarray:
        """``contains`` at each row of a (k, n) float array, as a mask."""
        inside = ((np.asarray(self.lower) <= qs) & (qs <= np.asarray(self.upper))).all(axis=1)
        if self.exclude_origin_radius is not None:
            inside &= ~(_radii(qs) < self.exclude_origin_radius)
        return inside


def _radii(qs: np.ndarray) -> np.ndarray:
    """|q| at each row of a (k, n) float array: the sum of squares taken left
    to right, as a scalar loop adds them (``np.sum`` adds pairwise, which
    can change the last bit), under one sqrt."""
    total = qs[:, 0] * qs[:, 0]
    for c in range(1, qs.shape[1]):
        total = total + qs[:, c] * qs[:, c]
    return np.sqrt(total)


@dataclass(frozen=True)
class LatticeQuotient:
    """Translation quotient: period L_i per coordinate, None = not periodic."""

    periods: tuple

    def __post_init__(self):
        if not any(p is not None for p in self.periods):
            raise ValidationError("lattice quotient needs at least one period")
        for p in self.periods:
            if p is not None and not (0 < p < math.inf):
                raise ValidationError(f"lattice period must be positive and finite, got {p}")


@dataclass(frozen=True)
class ScalingQuotient:
    """Quotient by p -> factor*p; fundamental annulus 1 <= |p| < factor."""

    factor: float

    def __post_init__(self):
        if not (1 < self.factor < math.inf):
            raise ValidationError(f"scaling factor must exceed 1 and be finite, got {self.factor}")


class TrajectoryState(NamedTuple):
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


def mirrored(rows):
    """Row-major entries of a symmetric square array of expressions, the upper
    triangle standing for both positions."""
    n = len(rows)
    return [rows[min(i, j)][max(i, j)] for i in range(n) for j in range(n)]


class _CompiledMetric:
    """Compiled metric; the symbolic derivatives of g, and up to dimension 4
    its symbolic inverse, feed the generated stepper."""

    def __init__(self, m: ManifoldSpec):
        frame = m.frame
        n = m.dim
        self.n = n
        g = m.metric
        self.metric_fn = ex.compile_batch(mirrored(g), frame)
        # dg[k][i][j] = d g_ij / d x_k; (i, j) and (j, i) share one expression
        d = {(i, j): [ex.derive(g[i][j], name) for name in frame.names]
             for i in range(n) for j in range(i, n)}
        self.dg = [[[d[min(i, j), max(i, j)][k] for j in range(n)] for i in range(n)]
                   for k in range(n)]
        self.ginv = None  # applied by a plain-float solve above the limit
        if n <= _MAX_SYMBOLIC_DIM:
            self.ginv = _symbolic_inverse(g, _det(g, n), n)

    def batch(self, qs: np.ndarray) -> np.ndarray:
        return self.metric_fn(qs, np.zeros(len(qs))).reshape(len(qs), self.n, self.n)


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
        try:
            values = np.asarray(fn(qs, *args))
        except OverflowError:  # a power of constants beyond the float range
            raise ValidationError(
                f"{what} is not finite at {tuple(qs[0].tolist())}") from None
    bad = ~np.isfinite(values.reshape(len(qs), -1)).all(axis=1)
    if bad.any():
        raise ValidationError(
            f"{what} is not finite at {tuple(qs[int(np.argmax(bad))].tolist())}")
    return values


def metrics_at(m: ManifoldSpec, qs) -> np.ndarray:
    """g at each row of an (k, n) array; checks domain membership, finiteness,
    degeneracy and signature, and raises naming the first point that fails."""
    qs = np.asarray(qs, dtype=float)
    outside = ~m.domain.contains_rows(qs)
    if outside.any():
        q = qs[int(np.argmax(outside))]
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


def in_fundamental_domain(m: ManifoldSpec, qs) -> np.ndarray:
    """Which rows of a (k, n) array lie in the chart domain and, for a
    scaling quotient, in the annulus 1 <= |q| < factor, as a mask."""
    qs = np.asarray(qs, dtype=float)
    keep = m.domain.contains_rows(qs)
    if isinstance(m.quotient, ScalingQuotient):
        r = _radii(qs)
        keep &= (1.0 <= r) & (r < m.quotient.factor)
    return keep


@lru_cache(maxsize=64)
def sample_points(m: ManifoldSpec) -> np.ndarray:
    """Low-discrepancy points in the fundamental domain, drawn once per
    manifold as a read-only array.  Its first k rows are the sample of size
    k, bit for bit, since ``sampling.sample_predicate`` walks one stream."""
    lo, hi = sampling_box(m)
    pts = sampling.sample_predicate(SAMPLE_POINTS, lo, hi, partial(in_fundamental_domain, m))
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=64)
def sample_metrics(m: ManifoldSpec) -> np.ndarray:
    """g at each row of ``sample_points(m)``, checked once by ``metrics_at``
    and read-only: every sampled hypothesis reads these."""
    g = metrics_at(m, sample_points(m))
    g.setflags(write=False)
    return g


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


def validate_manifold(m: ManifoldSpec):
    """Structural checks on the first ``VALIDATION_POINTS`` sample points:
    signature, non-degeneracy, deck isometry (``sample_metrics`` checks the
    metric on the whole sample).

    Raises ValidationError on failure; silent on success.
    """
    try:
        pts = sample_points(m)[:VALIDATION_POINTS]
    except ValueError as err:
        raise ValidationError(f"cannot sample the fundamental domain: {err}") from err
    try:
        g = metrics_at(m, pts)
    except GeometryError as err:
        raise ValidationError(str(err)) from err
    transforms = deck_transforms(m)
    if not transforms:
        return
    # u and v from disjoint index ranges of one direction sequence
    dirs = sampling.sample_directions(2 * len(pts), m.dim)
    u, v = dirs[:len(pts)], dirs[len(pts):]
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
