"""Deterministic point and direction sampling used by the global checkers.

Global claims ("skew-adjoint everywhere", "timelike everywhere", ...) are
decided by sampling: low-discrepancy Halton points in the fundamental
domain and low-discrepancy directions, neither of them seeded.  Only a
sweep's start points (``ball_point``, ``quadratic_form_ball_point``) come
from a seeded stdlib ``random.Random``, which the caller makes.  They call
only its ``random()``, whose stream Python keeps the same across versions for
a given seed, and no numpy generator is loaded.  Everything here is
deterministic for fixed inputs, so reports and sweeps reproduce bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

DEFAULT_SEED = 20240811
_MAX_BATCHES = 64  # Halton batches sample_predicate walks before it gives up
_ENVELOPE_BINS = 64  # log-d bins of log_bin_envelope


def halton(count: int, dim: int, skip: int = 20) -> np.ndarray:
    """First ``count`` points of the unscrambled Halton sequence in [0,1)^dim.

    Coordinate j of point k is the radical inverse of k + 1 + skip in the
    j-th prime base, built digit by digit for all points at once: ``denom
    *= base; i, rem = divmod(i, base); x += rem / denom``.  Each element sees
    the operations of the scalar digit loop in the same order, and a point
    whose digits have run out adds +0.0, so the points are the same bit for
    bit as one scalar loop per element.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton sampling supports at most {len(_PRIMES)} dimensions")
    out = np.zeros((count, dim))
    index = np.arange(skip + 1, skip + 1 + count)
    for j in range(dim):
        base = _PRIMES[j]
        i = index
        x = out[:, j]
        denom = 1.0
        while i.any():
            denom *= base
            i, rem = np.divmod(i, base)
            x += rem / denom
    return out


def sample_predicate(count: int, lo, hi, keep) -> np.ndarray:
    """Halton points in the box filtered by ``keep(points) -> mask``, a
    boolean per row of a (k, n) array.

    Walks the Halton stream, ``count`` points at a time, until ``count``
    points satisfy the predicate and keeps them in stream order, so a prefix
    of a larger sample is always a sample with the same points.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = []
    need = count
    skip = 20
    for _ in range(_MAX_BATCHES):
        batch = lo + halton(count, lo.size, skip=skip) * (hi - lo)
        skip += count
        out.append(batch[keep(batch)][:need])
        need -= len(out[-1])
        if not need:
            return np.concatenate(out)
    raise ValueError("predicate rejected too many sample points")


def sample_directions(count: int, dim: int) -> np.ndarray:
    """First ``count`` unit vectors of a low-discrepancy direction sequence.

    Row k = 1, 2, ... is the point frac(k a_j) of the additive recurrence
    with a_j = frac(sqrt(p_j)) for the j-th prime, mapped to [-1, 1)^dim and
    normalised.  No coordinate is 0 in exact arithmetic (a_j is irrational),
    and the first rows of a larger draw are a smaller draw.  The rows are
    built in place in one array, with one column of scratch for the floor;
    no seed enters.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"direction sampling supports at most {len(_PRIMES)} dimensions")
    step = np.sqrt(_PRIMES[:dim])
    step -= np.floor(step)
    out = np.empty((count, dim))
    np.multiply.outer(np.arange(1.0, count + 1.0), step, out=out)
    col = np.empty(count)
    for j in range(dim):
        out[:, j] -= np.floor(out[:, j], out=col)
    out *= 2.0
    out -= 1.0
    out /= np.sqrt(np.einsum("ki,ki->k", out, out))[:, None]
    return out


def ball_point(rng, dim: int, radius: float) -> tuple:
    """One point uniform in the Euclidean ball of the given radius, as plain
    floats: points of the cube [-1, 1)^dim drawn from ``rng.random()`` until
    one lies in the unit ball, scaled by the radius."""
    while True:
        u = [2.0 * rng.random() - 1.0 for _ in range(dim)]
        if sum(x * x for x in u) <= 1.0:
            return tuple(radius * x for x in u)


def quadratic_form_ball_point(rng, form: np.ndarray, radius: float) -> tuple:
    """One point uniform in {v : v^T A v <= radius^2} for positive definite A."""
    w = np.linalg.eigh(form)
    vals, vecs = w.eigenvalues, w.eigenvectors
    if np.any(vals <= 0.0):
        raise ValueError("quadratic form is not positive definite")
    u = np.array(ball_point(rng, form.shape[0], radius))
    # map the unit-form ball through A^{-1/2}
    return tuple((vecs @ (u / np.sqrt(vals))).tolist())


def log_bin_envelope(d: np.ndarray, y: np.ndarray):
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
    idx = np.minimum(((ld - lo) / (hi - lo) * _ENVELOPE_BINS).astype(int), _ENVELOPE_BINS - 1)
    d_mid, y_max = [], []
    for b in range(_ENVELOPE_BINS):
        sel = idx == b
        if np.any(sel):
            d_mid.append(math.exp(lo + (b + 0.5) * (hi - lo) / _ENVELOPE_BINS))
            y_max.append(y[sel].max())
    return np.array(d_mid), np.array(y_max)
