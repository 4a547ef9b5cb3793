"""Sampled checkers for the sufficient completeness conditions.

Two families: the Lorentzian route (compact quotient, skew force operator,
timelike conformal reference field annihilated by F, potential-only extra
force) and the Riemannian growth route (bounded symmetric part of F plus
linear growth of the force, or quadratic growth of -V and |dV/dt|).

Every verdict is a finite-sample proxy for a pointwise-everywhere statement
and is labeled as such; enlarging the sample set can only flip pass to fail.
The pointwise hypotheses read the one sample of ``geometry`` and its checked
metric; the growth envelopes read one checked ball, drawn once per manifold.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import fields as fl
from . import geometry as geo
from . import sampling

COMPLETE = "Complete"
NO_PREDICTION = "NoPrediction"

_PROVENANCE = "sampled check, not a proof"

# growth is sampled in a ball of this radius about the base point, and a
# time-dependent field on this many parameter values in [-window, window]
_REGION_HALFWIDTH = 100.0
_T_WINDOW = 10.0
_T_GRID = 11


class Hypothesis(NamedTuple):
    name: str
    verdict: str  # "pass" | "fail" | "not-applicable"
    measured: float | None = None
    samples: int = 0
    note: str = ""


class HypothesisReport(NamedTuple):
    theorem: str
    hypotheses: tuple
    prediction: str
    note: str = _PROVENANCE

    def hypothesis(self, name: str) -> Hypothesis:
        for h in self.hypotheses:
            if h.name == name:
                return h
        raise KeyError(name)


def _hypothesis(name: str, check: fl.SampledCheck, note: str = "") -> Hypothesis:
    return Hypothesis(name, "pass" if check.passed else "fail", measured=check.worst,
                      samples=check.points, note=note)


def _conclude(theorem, hyps) -> HypothesisReport:
    ok = all(h.verdict == "pass" for h in hyps)
    return HypothesisReport(theorem, tuple(hyps),
                            COMPLETE if ok else NO_PREDICTION)


def _compact(m: geo.ManifoldSpec) -> bool:
    return m.quotient is not None and geo.fundamental_domain_bounded(m)


def check_growth_ball(m: geo.ManifoldSpec) -> None:
    """Refuse, as ``check`` does, a metric that is degenerate or of the wrong
    signature in the growth ball.  ``check`` reads the ball exactly when it
    decides a growth route: for a declared-complete Riemannian spec without
    a compact quotient."""
    if m.signature != geo.LORENTZIAN and m.declared_complete and not _compact(m):
        _region_points(m)


# --- Lorentzian route ------------------------------------------------------

def check_lorentzian_theorem(m: geo.ManifoldSpec, fp: fl.FieldPack) -> HypothesisReport:
    """Compactness, autonomy, skew F, conformal timelike K with F(K) = 0,
    and a potential-only extra force, for a Lorentzian spec."""
    hyps = []
    compact = _compact(m)
    hyps.append(Hypothesis("compact-quotient", "pass" if compact else "fail",
                           note="quotient with bounded fundamental domain"
                           if compact else "no quotient or unbounded domain"))

    autonomous = not fp.time_dependent  # the metric is autonomous by construction
    hyps.append(Hypothesis("autonomous", "pass" if autonomous else "fail"))

    hyps.append(_hypothesis("force-operator-skew", fl.is_skew_adjoint(m, fp)))

    if fp.reference_field is None:
        for name in ("reference-conformal", "reference-timelike", "force-annihilates-reference"):
            hyps.append(Hypothesis(name, "not-applicable", note="no reference field"))
    else:
        res, _ = fl.conformal_report(m, fp)
        hyps.append(_hypothesis("reference-conformal", fl.SampledCheck(
            res <= fl._CONFORMAL_TOL, res, geo.SAMPLE_POINTS)))
        hyps.append(_hypothesis("reference-timelike", fl.is_timelike_everywhere(m, fp),
                                "largest sampled g(K,K)"))
        hyps.append(_hypothesis("force-annihilates-reference", fl.annihilates(m, fp)))

    potential_only = fp.force_vector is None
    hyps.append(Hypothesis("potential-force", "pass" if potential_only else "fail",
                           note="extra force must come from a potential"))
    return _conclude("lorentzian-conformastationary", hyps)


# --- Riemannian growth route ----------------------------------------------

def _time_grid(time_dependent: bool) -> np.ndarray:
    if not time_dependent:
        return np.zeros(1)
    return np.linspace(-_T_WINDOW, _T_WINDOW, _T_GRID)


def estimate_S_bounds(m: geo.ManifoldSpec, fp: fl.FieldPack):
    """(S_sup, S_inf, |S|) of the symmetric part over points and a t window.

    Extremes of g(v, Sv) over unit vectors are generalized eigenvalues of
    g S against g, found via a Cholesky reduction (g is positive definite).
    """
    if m.signature != geo.RIEMANNIAN:
        raise geo.SignatureError("unit-sphere bounds need a Riemannian metric")
    if fp.force_operator is None:
        return 0.0, 0.0, 0.0
    pts = geo.sample_points(m)
    g = geo.sample_metrics(m)  # positive definite at every point, for Cholesky
    L = np.linalg.cholesky(g)
    s_sup = -math.inf
    s_inf = math.inf
    for t in _time_grid(fp.time_dependent):
        F = geo.finite(f"force operator F at t={float(t)!r}", pts, fp.force_batch,
                       np.full(len(pts), float(t)))
        S = 0.5 * (F + fl.g_adjoint(g, F))
        gs = g @ S
        sym = 0.5 * (gs + np.swapaxes(gs, 1, 2))  # exact symmetry for the eigensolver
        half = np.linalg.solve(L, np.swapaxes(sym, 1, 2))
        C = np.linalg.solve(L, np.swapaxes(half, 1, 2))
        w = np.linalg.eigvalsh(C)
        s_sup = max(s_sup, float(w[:, -1].max()))
        s_inf = min(s_inf, float(w[:, 0].min()))
    return s_sup, s_inf, max(abs(s_sup), abs(s_inf))


class GrowthReport(NamedTuple):
    quantity: str
    bound_rate: float       # A_T
    bound_offset: float     # C_T
    growth_class: str
    slope: float | None
    samples: int
    note: str = "distances use the chart Euclidean proxy"


@lru_cache(maxsize=32)
def _region_points(m: geo.ManifoldSpec):
    """(p0, points, g), read-only: the growth ball about p0, p0 first, and
    the metric checked at each point.  p0 is the origin, else the centre of
    the sampling box, else the first point of the sample, all in the chart."""
    p0 = (0.0,) * m.dim
    if not m.domain.contains(p0):
        lo, hi = geo.sampling_box(m, _REGION_HALFWIDTH)
        p0 = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
    if not m.domain.contains(p0):
        p0 = tuple(geo.sample_points(m)[0].tolist())
    h = _REGION_HALFWIDTH
    lo = tuple(max(c - h, b) for c, b in zip(p0, m.domain.lower))
    hi = tuple(min(c + h, b) for c, b in zip(p0, m.domain.upper))

    def keep(qs):
        # the ball, not the box: box corners reach distance sqrt(n) h and
        # would flatten the fitted log-log slope of axis-aligned growth.
        # Point by point: (a - b) ** 2 is pow, not a numpy square
        ball = [sum((a - b) ** 2 for a, b in zip(q, p0)) <= h * h for q in qs]
        return np.array(ball, dtype=bool) & m.domain.contains_rows(qs)

    pts = sampling.sample_predicate(geo.SAMPLE_POINTS, lo, hi, keep)
    # the base point itself anchors the envelope at distance zero
    p0 = np.asarray(p0, dtype=float)
    pts = np.vstack([p0[None, :], pts])
    g = geo.metrics_at(m, pts)
    for a in (p0, pts, g):
        a.setflags(write=False)
    return p0, pts, g


def _envelope_fit(d: np.ndarray, y: np.ndarray, axis_power: int):
    """Smallest covering bound y <= A d^p + C, anchored at the innermost sample."""
    x = d ** axis_power
    anchor = int(np.argmin(x))
    xa, ya = x[anchor], y[anchor]
    away = x > xa + 1e-12
    if np.any(away):
        A = float(max(np.max((y[away] - ya) / (x[away] - xa)), 0.0))
    else:
        A = 0.0
    C = float(np.max(y - A * x)) + 0.0  # normalizes -0.0
    return A, C


def _loglog_slope(d: np.ndarray, y: np.ndarray):
    """Top-decile slope of the binned upper envelope in log-log axes."""
    mask = (d > 1e-12) & (y > 1e-12)
    if np.count_nonzero(mask) < 8:
        return None
    bd, by = sampling.log_bin_envelope(d[mask], y[mask])
    if len(bd) < 4:
        return None
    ld, ly = np.log(bd), np.log(by)
    span = ld[-1] - ld[0]
    cut = ld[-1] - max(0.1 * span, math.log(2.0))
    top = ld >= cut
    if np.count_nonzero(top) < 3:
        top = ld >= ld[-1] - 0.25 * span
    if np.count_nonzero(top) < 2:
        return None
    return float(np.polyfit(ld[top], ly[top], 1)[0])


def _growth(m: geo.ManifoldSpec, quantity: str, y: np.ndarray, power: int, order: str,
            flat_note: str) -> GrowthReport:
    """Envelope y <= A d^power + C over the growth ball, d the distance to p0,
    classed by the log-log slope of y's positive part: "sub" + order below
    power - 0.2, "super" + order above power + 0.2, else (or y <= 1e-12) order."""
    p0, pts, _ = _region_points(m)
    d = np.sqrt(((pts - p0) ** 2).sum(axis=1))
    A, C = _envelope_fit(d, y, power)
    if np.max(y) <= 1e-12:
        return GrowthReport(quantity, max(A, 0.0), C, order, None, len(pts),
                            note=flat_note)
    slope = _loglog_slope(d, np.maximum(y, 0.0))
    if slope is not None and slope > power + 0.2:
        order = "super" + order
    elif slope is not None and slope < power - 0.2:
        order = "sub" + order
    return GrowthReport(quantity, A, C, order, slope, len(pts))


def check_linear_growth(m: geo.ManifoldSpec, fp: fl.FieldPack,
                        quantity: str = "force") -> GrowthReport:
    """Envelope of the metric norm of the driving force against distance.

    quantity "force" measures the explicit X (or -grad V when only a
    potential is given); "gradient" forces the -grad V route.
    """
    _, pts, g = _region_points(m)
    use_gradient = quantity == "gradient" or fp.force_vector is None
    y = np.zeros(len(pts))
    for t in _time_grid(fp.time_dependent):
        ts = np.full(len(pts), float(t))
        if not use_gradient:
            X = geo.finite(f"force vector X at t={float(t)!r}", pts, fp.vector_batch, ts)
            vals = np.einsum("mi,mij,mj->m", X, g, X)
        elif fp.potential is not None:
            dv = geo.finite(f"derivative of V at t={float(t)!r}", pts,
                            fp.potential_derivative_batch, ts)
            vals = np.einsum("mi,mij,mj->m", dv, np.linalg.inv(g), dv)
        else:  # no force at all: y stays zero
            continue
        y = np.maximum(y, np.sqrt(np.maximum(vals, 0.0)))
    return _growth(m, "|X|_g", y, 1, "linear", "force vanishes on samples")


def check_quadratic_growth(m: geo.ManifoldSpec, u: ex.Expr,
                           quantity: str = "U") -> GrowthReport:
    """Envelope of a scalar against squared distance (upper bound only).

    Negative values are trivially covered; the log-log class looks at the
    positive part.
    """
    _, pts, _ = _region_points(m)
    f = ex.compile_batch([u], m.frame)
    y = np.full(len(pts), -math.inf)
    for t in _time_grid(ex.references_time(u)):
        y = np.maximum(y, geo.finite(f"{quantity} at t={float(t)!r}", pts, f,
                                     np.full(len(pts), float(t)))[:, 0])
    return _growth(m, quantity, y, 2, "quadratic", "bounded above by zero on samples")


def _growth_hypothesis(name, rep: GrowthReport, note: str = "") -> Hypothesis:
    """Passes unless the growth is above the order the theorem allows."""
    return _hypothesis(
        name, fl.SampledCheck(not rep.growth_class.startswith("super"), rep.slope, rep.samples),
        f"{rep.growth_class}; A={rep.bound_rate:.6g} C={rep.bound_offset:.6g}{note}")


def check_riemannian_theorems(m: geo.ManifoldSpec, fp: fl.FieldPack) -> HypothesisReport:
    """Dispatch among the growth criteria for a Riemannian spec with a complete base."""
    hyps = []
    compact = _compact(m)
    complete_base = compact or m.declared_complete
    hyps.append(Hypothesis("complete-base", "pass" if complete_base else "fail",
                           note="compact quotient" if compact else
                           ("declared complete" if complete_base else
                            "base completeness not established")))
    if not complete_base:
        return _conclude("riemannian-growth", hyps)
    if compact:
        hyps.append(Hypothesis("compact-clause", "pass",
                               note="compact base: complete for any F and X"))
        return _conclude("riemannian-compact", hyps)

    s_sup, s_inf, s_norm = estimate_S_bounds(m, fp)
    hyps.append(_hypothesis("symmetric-part-bounded",
                            fl.SampledCheck(True, s_norm, geo.SAMPLE_POINTS),
                            f"S_sup={s_sup:.6g} S_inf={s_inf:.6g} on sampled region"))

    if fp.potential is not None:
        grad_h = _growth_hypothesis("gradient-linear-growth",
                                    check_linear_growth(m, fp, quantity="gradient"))
        if grad_h.verdict == "pass":
            hyps.append(grad_h)
            return _conclude("riemannian-gradient-linear", hyps)
        hyps.append(_growth_hypothesis(
            "minus-potential-quadratic-growth",
            check_quadratic_growth(m, ex.neg(fp.potential), quantity="-V"),
            "; gradient growth was not linear, fell back to the quadratic route"))
        dV_dt = ex.derive(fp.potential, ex.TIME_NAME)
        for label, e in (("dV/dt", dV_dt), ("-dV/dt", ex.neg(dV_dt))):
            hyps.append(_growth_hypothesis(f"time-derivative-quadratic ({label})",
                                           check_quadratic_growth(m, e, quantity=label)))
        return _conclude("riemannian-potential-quadratic", hyps)

    hyps.append(_growth_hypothesis("force-linear-growth",
                                   check_linear_growth(m, fp, quantity="force")))
    return _conclude("riemannian-force-linear", hyps)


def evaluate(m: geo.ManifoldSpec, fp: fl.FieldPack) -> HypothesisReport:
    """Route to the checker matching the metric signature."""
    if m.signature == geo.LORENTZIAN:
        return check_lorentzian_theorem(m, fp)
    return check_riemannian_theorems(m, fp)
