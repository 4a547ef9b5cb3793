"""Force data attached to a manifold.

Holds the linear force operator F (a (1,1) tensor acting on velocities), an
explicit force vector X or a potential V generating X = -grad V, and an
optional reference vector field K used for conserved-charge monitoring and
the completeness checks.  All components are symbolic expressions over the
manifold's coordinate frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import sampling

_SKEW_TOL = 1e-10
_ANNIHILATE_TOL = 1e-10
_CONFORMAL_TOL = 1e-9
_TIMELIKE_MARGIN = -1e-10

_DIRECTIONS = 8  # of the skew test at each point of geo.sample_points


@dataclass(frozen=True)
class FieldPack:
    frame: ex.CoordinateFrame
    force_operator: tuple | None = None   # rows F^i_j, i = upper index
    force_vector: tuple | None = None     # X components
    potential: ex.Expr | None = None      # V; drives X = -grad V
    reference_field: tuple | None = None  # K components

    def __post_init__(self):
        n = self.frame.dim
        F = self.force_operator
        if F is not None:
            if len(F) != n or any(len(row) != n for row in F):
                raise geo.ValidationError(f"force operator must be {n}x{n}")
        for label, vec in (("X", self.force_vector), ("K", self.reference_field)):
            if vec is not None and len(vec) != n:
                raise geo.ValidationError(f"vector field {label} must have {n} components")

    @property
    def time_dependent(self) -> bool:
        return any(ex.references_time(e) for e in self._all_exprs())

    def _all_exprs(self):
        if self.force_operator is not None:
            for row in self.force_operator:
                yield from row
        for vec in (self.force_vector, self.reference_field):
            if vec is not None:
                yield from vec
        if self.potential is not None:
            yield self.potential

    # -- compiled evaluators -------------------------------------------------

    @cached_property
    def _compiled(self) -> "_CompiledFields":
        return _CompiledFields(self)

    # Batch evaluators take an (m, n) array of points and values of t (zero
    # when omitted).

    def force_batch(self, qs, ts=None) -> np.ndarray:
        """F at each point, shape (m, n, n); zero when F is absent."""
        c = self._compiled
        if c.F is None:
            return np.zeros((len(qs), c.n, c.n))
        return c.F(qs, _times(qs, ts)).reshape(len(qs), c.n, c.n)

    def vector_batch(self, qs, ts=None) -> np.ndarray:
        """The explicit force vector X at each point."""
        return self._compiled.X(qs, _times(qs, ts))

    def reference_batch(self, qs, ts=None) -> np.ndarray:
        if self._compiled.K is None:
            raise geo.ValidationError("no reference field K in this pack")
        return self._compiled.K(qs, _times(qs, ts))

    def potential_batch(self, qs, ts=None) -> np.ndarray:
        if self.potential is None:
            return np.zeros(len(qs))
        return self._compiled.V(qs, _times(qs, ts))[:, 0]

    def potential_derivative_batch(self, qs, ts=None) -> np.ndarray:
        """Partial derivatives dV/dx_i at each point."""
        return self._compiled.dV(qs, _times(qs, ts))

    def reference_value(self, q) -> np.ndarray:
        """K at one point, at t = 0."""
        return self.reference_batch(*_one(q, 0.0))[0]


def _one(q, t):
    """One point and parameter value as batch arguments."""
    return np.asarray(q, dtype=float)[None], np.array([float(t)])


def _times(qs, ts):
    return np.zeros(len(qs)) if ts is None else ts


class _CompiledFields:
    """One batch function per field over all its components, or None."""

    def __init__(self, fp: FieldPack):
        frame = fp.frame
        self.n = frame.dim

        def batch(exprs):
            return None if exprs is None else ex.compile_batch(list(exprs), frame)

        F = fp.force_operator
        self.F = None if F is None else batch(e for row in F for e in row)
        self.X = batch(fp.force_vector)
        self.K = batch(fp.reference_field)
        V = fp.potential
        self.V = None if V is None else batch([V])
        self.dV = None if V is None else batch(ex.derive(V, name) for name in frame.names)


class SampledCheck(NamedTuple):
    """Outcome of a pointwise-everywhere hypothesis tested on finite samples."""

    passed: bool
    worst: float
    points: int
    note: str = "sampled check, not a proof"


def g_adjoint(g: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Adjoint of F with respect to the (possibly indefinite) form g (or stacks)."""
    return np.linalg.solve(g, np.swapaxes(F, -1, -2) @ g)


@lru_cache(maxsize=32)
def is_skew_adjoint(m: geo.ManifoldSpec, fp: FieldPack) -> SampledCheck:
    """Does g(v, Fv) vanish for all sampled points and directions?"""
    if fp.force_operator is None:
        return SampledCheck(True, 0.0, 0)
    pts, g = geo.sample_points(m), geo.sample_metrics(m)
    dirs = sampling.sample_directions(len(pts) * _DIRECTIONS, m.dim).reshape(
        len(pts), _DIRECTIONS, m.dim)
    F = geo.finite("force operator F", pts, fp.force_batch)
    vals = (np.abs(np.einsum("mdi,mij,mdj->md", dirs, g @ F, dirs))
            / (1.0 + np.einsum("mdi,mdi->md", dirs, dirs)))
    worst = float(vals.max())
    return SampledCheck(worst <= _SKEW_TOL, worst, len(pts))


@lru_cache(maxsize=32)
def annihilates(m: geo.ManifoldSpec, fp: FieldPack) -> SampledCheck:
    """Does F send the reference field K to zero at sampled points?"""
    if fp.force_operator is None:
        return SampledCheck(True, 0.0, 0)
    pts = geo.sample_points(m)  # reference_batch refuses a pack without K
    F = geo.finite("force operator F", pts, fp.force_batch)
    k = geo.finite("reference field K", pts, fp.reference_batch)
    fk = np.einsum("mij,mj->mi", F, k)
    worst = float(np.sqrt(np.einsum("mi,mi->m", fk, fk)).max())
    return SampledCheck(worst <= _ANNIHILATE_TOL, worst, len(pts))


def drive_vectors(m: geo.ManifoldSpec, fp: FieldPack, qs, ts=None) -> np.ndarray:
    """The X that enters the equation at each row of an (k, n) array of
    points: -grad V if a potential is given, else the explicit force vector,
    else zero.  The metric is checked as by metrics_at."""
    if fp.potential is not None:
        dv = fp.potential_derivative_batch(qs, ts)
        return -np.linalg.solve(geo.metrics_at(m, qs), dv[..., None])[..., 0]
    if fp.force_vector is not None:
        return fp.vector_batch(qs, ts)
    return np.zeros((len(qs), m.dim))


# -- conformal structure of K ----------------------------------------------

@lru_cache(maxsize=32)
def _lie_system(m: geo.ManifoldSpec, K: tuple):
    """Compiled Lie derivative of g along K, its n x n entries row-major."""
    frame = m.frame
    n = m.dim
    g, dg = m.metric, m._sys.dg  # dg[l][i][j] = d_l g_ij, the stepper's table
    if len(K) != n:
        raise geo.ValidationError(f"vector field K must have {n} components")
    dK = [[ex.derive(K[l], frame.names[i]) for l in range(n)] for i in range(n)]
    lie = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = ex.ZERO
            for l in range(n):
                acc = ex.add(acc, ex.mul(K[l], dg[l][i][j]))
                acc = ex.add(acc, ex.mul(g[l][j], dK[i][l]))
                acc = ex.add(acc, ex.mul(g[i][l], dK[j][l]))
            lie[i][j] = acc
    return ex.compile_batch(geo.mirrored(lie), frame)


def conformal_factors(m: geo.ManifoldSpec, K: tuple, qs, g):
    """(sigma, residual) of L_K g = 2 sigma g at each row of qs, g the metric there.

    sigma is extracted by trace even when K is not conformal; the residual
    (max-abs entry of L_K g - 2 sigma g) quantifies the failure.
    """
    qs = np.asarray(qs, dtype=float)
    n = m.dim
    L = _lie_system(m, K)(qs, np.zeros(len(qs))).reshape(len(qs), n, n)
    sigma = np.trace(np.linalg.solve(g, L), axis1=-2, axis2=-1) / (2 * n)
    residual = np.max(np.abs(L - 2.0 * sigma[:, None, None] * g), axis=(-2, -1))
    return sigma, residual


@lru_cache(maxsize=32)
def conformal_report(m: geo.ManifoldSpec, fp: FieldPack):
    """Sampled conformal diagnostics of K.

    Returns (max residual, max |sigma|).  K is conformal on the sample iff
    residual <= 1e-9, Killing iff also the sigma bound is <= 1e-9.
    """
    if fp.reference_field is None:
        raise geo.ValidationError("no reference field K in this pack")
    sigma, residual = geo.finite(
        "conformal factor of K", geo.sample_points(m),
        lambda qs, g: np.column_stack(conformal_factors(m, fp.reference_field, qs, g)),
        geo.sample_metrics(m)).T
    return float(residual.max()), float(np.abs(sigma).max())


@lru_cache(maxsize=32)
def is_timelike_everywhere(m: geo.ManifoldSpec, fp: FieldPack) -> SampledCheck:
    """g(K,K) < -1e-10 at every sampled point; worst is the largest value seen."""
    if fp.reference_field is None:
        raise geo.ValidationError("no reference field K in this pack")
    pts, g = geo.sample_points(m), geo.sample_metrics(m)
    k = geo.finite("reference field K", pts, fp.reference_batch)
    worst = float(np.einsum("mi,mij,mj->m", k, g, k).max())
    return SampledCheck(worst < _TIMELIKE_MARGIN, worst, len(pts))


def invariant_norms(m: geo.ManifoldSpec, fp: FieldPack, qs) -> dict:
    """Size diagnostics under both the metric and plain sums at an (k, n)
    array of points, at t = 0; each value is an array over the points.

    Metric contractions can vanish on null data, so the Euclidean figures are
    reported alongside rather than folded into one number.
    """
    qs = np.asarray(qs, dtype=float)
    g = geo.metrics_at(m, qs)
    out = {}
    if fp.force_vector is not None or fp.potential is not None:
        x = geo.finite("force vector X", qs, lambda q: drive_vectors(m, fp, q))
        out["g_XX"] = np.einsum("mi,mij,mj->m", x, g, x)
        out["euclid_XX"] = np.einsum("mi,mi->m", x, x)
    if fp.force_operator is not None:
        F = geo.finite("force operator F", qs, fp.force_batch)
        # full contraction F^{mu nu} F_{mu nu} = F^i_j F^k_l g_{ik} g^{jl}
        ginv = np.linalg.inv(g)
        out["F_full_contraction"] = np.einsum("mij,mkl,mik,mjl->m", F, F, g, ginv)
        out["F_frobenius_sq"] = np.sum(F * F, axis=(1, 2))
    return out


def validate_fields(m: geo.ManifoldSpec, fp: FieldPack):
    """Sampled structural checks: finite evaluation, X vs -grad V agreement."""
    if fp.frame != m.frame:
        raise geo.ValidationError("field pack and manifold use different frames")
    pts = geo.sample_points(m)[:geo.VALIDATION_POINTS]
    if fp.force_operator is not None:
        geo.finite("force operator F", pts, fp.force_batch)
    if fp.potential is not None:
        geo.finite("potential V", pts, fp.potential_batch)
    if fp.reference_field is not None:
        geo.finite("reference field K", pts, fp.reference_batch)
    if fp.force_vector is not None:
        explicit = geo.finite("force vector X", pts, fp.vector_batch)
        if fp.potential is not None:
            derived = geo.finite("gradient of V", pts, lambda q: drive_vectors(m, fp, q))
            close = np.isclose(explicit, derived, rtol=1e-8, atol=1e-8).all(axis=1)
            if not close.all():
                i = int(np.argmin(close))
                raise geo.ValidationError(
                    f"X and -grad V disagree at {tuple(pts[i].tolist())}: "
                    f"{explicit[i]} vs {derived[i]}")
