"""Deterministic point and direction sampling used by the global checkers.

Global claims ("skew-adjoint everywhere", "timelike everywhere", ...) are
decided by sampling: low-discrepancy Halton points in the fundamental
domain plus seeded random directions.  Everything here is deterministic for
fixed inputs, so reports and sweeps reproduce bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

DEFAULT_SEED = 20240811


def halton(count: int, dim: int, skip: int = 20) -> np.ndarray:
    """First ``count`` points of the unscrambled Halton sequence in [0,1)^dim."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton sampling supports at most {len(_PRIMES)} dimensions")
    out = np.empty((count, dim))
    for j in range(dim):
        base = _PRIMES[j]
        for i in range(count):
            out[i, j] = _van_der_corput(i + 1 + skip, base)
    return out


def _van_der_corput(i: int, base: int) -> float:
    x = 0.0
    denom = 1.0
    while i > 0:
        denom *= base
        i, rem = divmod(i, base)
        x += rem / denom
    return x


def sample_predicate(count: int, lo, hi, keep, max_batches: int = 64) -> np.ndarray:
    """Halton points in the box filtered by ``keep(point) -> bool``.

    Walks the Halton stream until ``count`` points satisfy the predicate, so
    a prefix of a larger sample is always a sample with the same points.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = []
    skip = 20
    for _ in range(max_batches):
        batch = halton(count, lo.size, skip=skip)
        skip += count
        for row in lo + batch * (hi - lo):
            if keep(row):
                out.append(row)
                if len(out) == count:
                    return np.array(out)
    raise ValueError("predicate rejected too many sample points")


def sample_directions(count: int, dim: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Seeded unit vectors, uniform on the Euclidean sphere."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


def ball_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """One point uniform in the Euclidean ball of the given radius."""
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    if n == 0.0:
        return np.zeros(dim)
    r = radius * rng.random() ** (1.0 / dim)
    return v * (r / n)


def quadratic_form_ball_point(rng: np.random.Generator, form: np.ndarray,
                              radius: float) -> np.ndarray:
    """One point uniform in {v : v^T A v <= radius^2} for positive definite A."""
    w = np.linalg.eigh(form)
    vals, vecs = w.eigenvalues, w.eigenvectors
    if np.any(vals <= 0.0):
        raise ValueError("quadratic form is not positive definite")
    u = ball_point(rng, form.shape[0], radius)
    # map the unit-form ball through A^{-1/2}
    return vecs @ (u / np.sqrt(vals))


def log_bin_envelope(d: np.ndarray, y: np.ndarray, bins: int = 64):
    """Upper envelope of (d, y) on a log-d grid: per-bin max of y.

    Returns (d_mid, y_max) for the non-empty bins with positive d and y.
    """
    mask = (d > 0.0) & (y > 0.0) & np.isfinite(y)
    if not np.any(mask):
        return np.empty(0), np.empty(0)
    d, y = d[mask], y[mask]
    ld = np.log(d)
    lo, hi = ld.min(), ld.max()
    if hi - lo < 1e-12:
        return np.array([math.exp(lo)]), np.array([y.max()])
    idx = np.minimum(((ld - lo) / (hi - lo) * bins).astype(int), bins - 1)
    d_mid, y_max = [], []
    for b in range(bins):
        sel = idx == b
        if np.any(sel):
            d_mid.append(math.exp(lo + (b + 0.5) * (hi - lo) / bins))
            y_max.append(y[sel].max())
    return np.array(d_mid), np.array(y_max)
