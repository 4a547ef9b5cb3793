"""Sampled checkers for the sufficient completeness conditions.

Two families: the Lorentzian route (compact quotient, skew force operator,
timelike conformal reference field annihilated by F, potential-only extra
force) and the Riemannian growth route (bounded symmetric part of F plus
linear growth of the force, or quadratic growth of -V and |dV/dt|).

Every verdict is a finite-sample proxy for a pointwise-everywhere statement
and is labeled as such; enlarging the sample set can only flip pass to fail.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import fields as fl
from . import geometry as geo
from . import sampling

COMPLETE = "Complete"
NO_PREDICTION = "NoPrediction"

_PROVENANCE = "sampled check, not a proof"


@dataclass(frozen=True)
class CriteriaConfig:
    points: int = 1000
    directions: int = 8
    region_halfwidth: float = 100.0
    t_window: float = 10.0
    t_grid: int = 11
    base_point: tuple | None = None

    def __post_init__(self):
        if self.points < 1 or self.directions < 1 or self.t_grid < 1:
            raise geo.ValidationError("sample counts must be positive")
        if not (self.region_halfwidth > 0 and self.t_window > 0):
            raise geo.ValidationError("region and window sizes must be positive")


@dataclass(frozen=True)
class Hypothesis:
    name: str
    verdict: str  # "pass" | "fail" | "not-applicable"
    measured: float | None = None
    samples: int = 0
    note: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    hypotheses: tuple
    prediction: str
    note: str = _PROVENANCE

    def hypothesis(self, name: str) -> Hypothesis:
        for h in self.hypotheses:
            if h.name == name:
                return h
        raise KeyError(name)


def _conclude(theorem, hyps) -> HypothesisReport:
    ok = all(h.verdict == "pass" for h in hyps)
    return HypothesisReport(theorem, tuple(hyps),
                            COMPLETE if ok else NO_PREDICTION)


# --- Lorentzian route ------------------------------------------------------

def check_lorentzian_theorem(m: geo.ManifoldSpec, fp: fl.FieldPack,
                             cfg: CriteriaConfig = CriteriaConfig()) -> HypothesisReport:
    """Compactness, autonomy, skew F, conformal timelike K with F(K) = 0,
    and a potential-only extra force."""
    hyps = []
    if m.signature != geo.LORENTZIAN:
        hyps.append(Hypothesis("lorentzian-signature", "fail",
                               note="metric is not Lorentzian"))
        return _conclude("lorentzian-conformastationary", hyps)

    compact = m.quotient is not None and geo.fundamental_domain_bounded(m)
    hyps.append(Hypothesis("compact-quotient", "pass" if compact else "fail",
                           note="quotient with bounded fundamental domain"
                           if compact else "no quotient or unbounded domain"))

    autonomous = not fp.time_dependent  # the metric is autonomous by construction
    hyps.append(Hypothesis("autonomous", "pass" if autonomous else "fail"))

    skew = fl.is_skew_adjoint(m, fp, count=cfg.points, directions=cfg.directions)
    hyps.append(Hypothesis("force-operator-skew", "pass" if skew.passed else "fail",
                           measured=skew.worst, samples=skew.points))

    if fp.reference_field is None:
        hyps.append(Hypothesis("reference-conformal", "not-applicable",
                               note="no reference field"))
        hyps.append(Hypothesis("reference-timelike", "not-applicable",
                               note="no reference field"))
        hyps.append(Hypothesis("force-annihilates-reference", "not-applicable",
                               note="no reference field"))
    else:
        res, _, _ = fl.conformal_report(m, fp, count=cfg.points)
        hyps.append(Hypothesis("reference-conformal",
                               "pass" if res <= 1e-9 else "fail",
                               measured=res, samples=cfg.points))
        tl = fl.is_timelike_everywhere(m, fp, count=cfg.points)
        hyps.append(Hypothesis("reference-timelike",
                               "pass" if tl.passed else "fail",
                               measured=tl.worst, samples=tl.points,
                               note="largest sampled g(K,K)"))
        ann = fl.annihilates(m, fp, count=cfg.points)
        hyps.append(Hypothesis("force-annihilates-reference",
                               "pass" if ann.passed else "fail",
                               measured=ann.worst, samples=ann.points))

    potential_only = fp.force_vector is None
    hyps.append(Hypothesis("potential-force", "pass" if potential_only else "fail",
                           note="extra force must come from a potential"))
    return _conclude("lorentzian-conformastationary", hyps)


# --- Riemannian growth route ----------------------------------------------

def _time_grid(cfg: CriteriaConfig, time_dependent: bool) -> np.ndarray:
    if not time_dependent:
        return np.zeros(1)
    return np.linspace(-cfg.t_window, cfg.t_window, cfg.t_grid)


def estimate_S_bounds(m: geo.ManifoldSpec, fp: fl.FieldPack,
                      cfg: CriteriaConfig = CriteriaConfig()):
    """(S_sup, S_inf, |S|) of the symmetric part over points and a t window.

    Extremes of g(v, Sv) over unit vectors are generalized eigenvalues of
    g S against g, found via a Cholesky reduction (g is positive definite).
    """
    if m.signature != geo.RIEMANNIAN:
        raise geo.SignatureError("unit-sphere bounds need a Riemannian metric")
    if fp.force_operator is None:
        return 0.0, 0.0, 0.0
    pts = geo.sample_points(m, cfg.points)
    g = geo.metrics_at(m, pts)  # positive definite at every point, for Cholesky
    L = np.linalg.cholesky(g)
    s_sup = -math.inf
    s_inf = math.inf
    for t in _time_grid(cfg, fp.time_dependent):
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


@dataclass(frozen=True)
class GrowthReport:
    quantity: str
    bound_rate: float       # A_T
    bound_offset: float     # C_T
    growth_class: str
    slope: float | None
    base_point: tuple
    region_halfwidth: float
    samples: int
    note: str = "distances use the chart Euclidean proxy"


def _region_points(m: geo.ManifoldSpec, cfg: CriteriaConfig):
    p0 = cfg.base_point
    if p0 is None:
        n = m.dim
        origin = (0.0,) * n
        if m.domain.contains(origin):
            p0 = origin
        else:
            lo, hi = geo.sampling_box(m, cfg.region_halfwidth)
            p0 = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
    h = cfg.region_halfwidth
    lo = tuple(max(c - h, b) for c, b in zip(p0, m.domain.lower))
    hi = tuple(min(c + h, b) for c, b in zip(p0, m.domain.upper))

    def keep(q):
        # the ball, not the box: box corners reach distance sqrt(n) h and
        # would flatten the fitted log-log slope of axis-aligned growth
        if sum((a - b) ** 2 for a, b in zip(q, p0)) > h * h:
            return False
        return m.domain.contains(q)

    pts = sampling.sample_predicate(cfg.points, lo, hi, keep)
    # the base point itself anchors the envelope at distance zero
    p0 = np.asarray(p0, dtype=float)
    return p0, np.vstack([p0[None, :], pts])


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


def _classify(slope, lower, upper, labels):
    if slope is None:
        return labels[1]
    if slope > upper:
        return labels[2]
    if slope < lower:
        return labels[0]
    return labels[1]


def check_linear_growth(m: geo.ManifoldSpec, fp: fl.FieldPack,
                        cfg: CriteriaConfig = CriteriaConfig(),
                        quantity: str = "force") -> GrowthReport:
    """Envelope of the metric norm of the driving force against distance.

    quantity "force" measures the explicit X (or -grad V when only a
    potential is given); "gradient" forces the -grad V route.
    """
    p0, pts = _region_points(m, cfg)
    g = geo.finite("metric", pts, m.metric_batch)
    use_gradient = quantity == "gradient" or fp.force_vector is None
    y = np.zeros(len(pts))
    for t in _time_grid(cfg, fp.time_dependent):
        ts = np.full(len(pts), float(t))
        if use_gradient:
            if fp.potential is None:
                vals = np.zeros(len(pts))
            else:
                dv = geo.finite(f"derivative of V at t={float(t)!r}", pts,
                                fp.potential_derivative_batch, ts)
                vals = np.einsum("mi,mij,mj->m", dv, np.linalg.inv(g), dv)
        else:
            X = geo.finite(f"force vector X at t={float(t)!r}", pts, fp.vector_batch, ts)
            vals = np.einsum("mi,mij,mj->m", X, g, X)
        y = np.maximum(y, np.sqrt(np.maximum(vals, 0.0)))
    d = np.sqrt(((pts - p0) ** 2).sum(axis=1))
    A, C = _envelope_fit(d, y, 1)
    if np.max(y) <= 1e-12:
        return GrowthReport("|X|_g", 0.0, 0.0, "linear", None, tuple(p0),
                            cfg.region_halfwidth, len(pts),
                            note="force vanishes on samples")
    slope = _loglog_slope(d, y)
    cls = _classify(slope, 0.8, 1.2, ("sublinear", "linear", "superlinear"))
    return GrowthReport("|X|_g", A, C, cls, slope, tuple(p0),
                        cfg.region_halfwidth, len(pts))


def check_quadratic_growth(m: geo.ManifoldSpec, u: ex.Expr,
                           cfg: CriteriaConfig = CriteriaConfig(),
                           quantity: str = "U") -> GrowthReport:
    """Envelope of a scalar against squared distance (upper bound only).

    Negative values are trivially covered; the log-log class looks at the
    positive part.
    """
    p0, pts = _region_points(m, cfg)
    times = _time_grid(cfg, ex.references_time(u))
    f = ex.compile_batch(u, m.frame)
    y = np.full(len(pts), -math.inf)
    for t in times:
        y = np.maximum(y, geo.finite(f"{quantity} at t={float(t)!r}", pts, f,
                                     np.full(len(pts), float(t))))
    d = np.sqrt(((pts - p0) ** 2).sum(axis=1))
    A, C = _envelope_fit(d, y, 2)
    if np.max(y) <= 1e-12:
        return GrowthReport(quantity, max(A, 0.0), C, "quadratic", None, tuple(p0),
                            cfg.region_halfwidth, len(pts),
                            note="bounded above by zero on samples")
    slope = _loglog_slope(d, np.maximum(y, 0.0))
    cls = _classify(slope, 1.8, 2.2, ("subquadratic", "quadratic", "superquadratic"))
    return GrowthReport(quantity, A, C, cls, slope, tuple(p0),
                        cfg.region_halfwidth, len(pts))


def _growth_hypothesis(name, rep: GrowthReport, bad: str) -> Hypothesis:
    ok = rep.growth_class != bad
    return Hypothesis(name, "pass" if ok else "fail", measured=rep.slope,
                      samples=rep.samples,
                      note=f"{rep.growth_class}; A={rep.bound_rate:.6g} C={rep.bound_offset:.6g}")


def check_riemannian_theorems(m: geo.ManifoldSpec, fp: fl.FieldPack,
                              cfg: CriteriaConfig = CriteriaConfig()) -> HypothesisReport:
    """Dispatch among the growth criteria for a complete Riemannian base."""
    hyps = []
    if m.signature != geo.RIEMANNIAN:
        hyps.append(Hypothesis("riemannian-signature", "fail",
                               note="growth criteria need a Riemannian metric"))
        return _conclude("riemannian-growth", hyps)
    compact = m.quotient is not None and geo.fundamental_domain_bounded(m)
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

    s_sup, s_inf, s_norm = estimate_S_bounds(m, fp, cfg)
    hyps.append(Hypothesis("symmetric-part-bounded", "pass", measured=s_norm,
                           samples=cfg.points,
                           note=f"S_sup={s_sup:.6g} S_inf={s_inf:.6g} on sampled region"))

    if fp.potential is not None:
        grad_rep = check_linear_growth(m, fp, cfg, quantity="gradient")
        grad_h = _growth_hypothesis("gradient-linear-growth", grad_rep, "superlinear")
        if grad_h.verdict == "pass":
            hyps.append(grad_h)
            return _conclude("riemannian-gradient-linear", hyps)
        neg_v = check_quadratic_growth(m, ex.neg(fp.potential), cfg, quantity="-V")
        nv_h = _growth_hypothesis("minus-potential-quadratic-growth",
                                  neg_v, "superquadratic")
        hyps.append(dataclasses.replace(
            nv_h, note=nv_h.note + "; gradient growth was not linear, "
                                   "fell back to the quadratic route"))
        dV_dt = ex.derive(fp.potential, ex.TIME_NAME)
        for label, e in (("dV/dt", dV_dt), ("-dV/dt", ex.neg(dV_dt))):
            rep = check_quadratic_growth(m, e, cfg, quantity=label)
            hyps.append(_growth_hypothesis(f"time-derivative-quadratic ({label})",
                                           rep, "superquadratic"))
        return _conclude("riemannian-potential-quadratic", hyps)

    force_rep = check_linear_growth(m, fp, cfg, quantity="force")
    hyps.append(_growth_hypothesis("force-linear-growth", force_rep, "superlinear"))
    return _conclude("riemannian-force-linear", hyps)


def evaluate(m: geo.ManifoldSpec, fp: fl.FieldPack,
             cfg: CriteriaConfig = CriteriaConfig()) -> HypothesisReport:
    """Route to the checker matching the metric signature."""
    if m.signature == geo.LORENTZIAN:
        return check_lorentzian_theorem(m, fp, cfg)
    return check_riemannian_theorems(m, fp, cfg)
