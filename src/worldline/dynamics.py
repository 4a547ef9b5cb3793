"""Trajectory integration and inextendibility classification.

The second-order equation is integrated as a first-order system on
(position, velocity) pairs with an embedded Dormand-Prince 5(4) pair and PI
step control.  The right-hand side and the speed are generated as flat Python
functions in every dimension.  Up to dimension 4 the Christoffel symbols are
symbolic and the whole step is one generated kernel; above it the right-hand
side hands g, its derivatives and the forces to one numeric contraction, and
a generic kernel, also a cross-check in the tests, steps it.

A run never raises on dynamical failure: divergence, domain exit and step
collapse become classifications with a bracketed escape time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import expr as ex
from . import fields as fl
from . import geometry as geo
from .geometry import TrajectoryState

COMPLETE = "CompleteToHorizon"
BLOWUP = "BlowupAt"
LEFT_DOMAIN = "LeftDomainAt"
STALLED = "StalledAt"

_EVAL_ERRORS = (ZeroDivisionError, OverflowError, ValueError)
_CONFIRM_STEPS = 200

# Dormand-Prince 5(4) tableau.  Rows 2..6 feed the stages, _B is the 5th
# order combination (stage 7 is evaluated there: first-same-as-last).
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
      11.0 / 84.0)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0


@dataclass(frozen=True)
class IntegrationConfig:
    t_max: float = 10.0
    rtol: float = 1e-10
    atol: float = 1e-12
    v_max: float = 1e8
    h_min: float = 1e-12
    stride: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_max, self.rtol, self.atol,
                                       self.v_max, self.h_min))):
            raise geo.ValidationError("integration parameters must be finite")
        if not (self.t_max > 0 and self.atol > 0 and self.v_max > 0
                and self.h_min > 0):
            raise geo.ValidationError("integration parameters must be positive")
        if self.rtol < 1e-14:
            raise geo.ValidationError("relative tolerance below 1e-14 is not resolvable")
        if self.stride < 1:
            raise geo.ValidationError("monitor stride must be >= 1")


@dataclass(frozen=True)
class Classification:
    kind: str
    t_star: float | None = None
    t_star_halfwidth: float | None = None
    marginal: bool = False
    detail: str = ""


@dataclass(frozen=True)
class DirectionReport:
    classification: Classification
    max_speed: float
    min_step: float
    accepted: int
    rejected: int


class TrajectoryResult:
    """Normalized samples (strictly increasing t) plus both direction verdicts."""

    def __init__(self, states, forward: DirectionReport, backward: DirectionReport,
                 cfg: IntegrationConfig, speed_mode: str):
        self.states = states
        self.forward = forward
        self.backward = backward
        self.cfg = cfg
        self.speed_mode = speed_mode  # "reference" or "euclidean"
        self._arrays = None

    @property
    def classification(self) -> Classification:
        if self.forward.classification.kind != COMPLETE:
            return self.forward.classification
        if self.backward.classification.kind != COMPLETE:
            return self.backward.classification
        fwd = self.forward.classification
        return replace(fwd, marginal=fwd.marginal or self.backward.classification.marginal)

    def arrays(self):
        """(ts, qs, vs) as numpy arrays, cached."""
        if self._arrays is None:
            ts = np.array([s.t for s in self.states])
            qs = np.array([s.q for s in self.states])
            vs = np.array([s.v for s in self.states])
            self._arrays = (ts, qs, vs)
        return self._arrays


# --- right-hand side -------------------------------------------------------

def rhs(m: geo.ManifoldSpec, fp: fl.FieldPack, s: TrajectoryState):
    """(dq, dv) at a state, evaluated through the numeric tensor path.

    dq = v and dv^k = -Gamma^k_ij v^i v^j + F^k_j v^j + X^k, with Gamma from
    the numeric formula in g and its derivatives.  The generated right-hand
    sides must agree with this to roundoff.
    """
    gam = geo.christoffel_at(m, s.q)
    v = np.asarray(s.v, dtype=float)
    dv = -np.einsum("kij,i,j->k", gam, v, v)
    if fp.force_operator is not None:
        dv += fp.force_matrix(s.q, s.t) @ v
    dv += fl.drive_vector(m, fp, s.q, s.t)
    return v, dv


# --- compiled system -------------------------------------------------------

class _System:
    """Everything integrate_maximal needs, compiled once per (manifold, fields)."""

    def __init__(self, m: geo.ManifoldSpec, fp: fl.FieldPack):
        self.m = m
        self.fp = fp
        self.n = m.dim
        self.use_reference_speed = _reference_speed_usable(m, fp)
        self.rhs_source, self.kernel_source, self.speed_source = _generate_sources(
            m, fp, self.use_reference_speed)
        ns = dict(ex._SCALAR_NS, sqrt=math.sqrt, _numeric_accel=_numeric_accel)
        self.rhs_flat = ex.compile_source(self.rhs_source, "_rhs", ns)
        self.speed_sq = ex.compile_source(self.speed_source, "_speed_sq", ns)
        if self.kernel_source is not None:
            self.kernel = ex.compile_source(self.kernel_source, "_kernel", ns)
        else:
            self.kernel = _generic_kernel(self.rhs_flat)


@lru_cache(maxsize=16)
def compiled_system(m: geo.ManifoldSpec, fp: fl.FieldPack) -> _System:
    return _System(m, fp)


@lru_cache(maxsize=32)
def _reference_speed_usable(m: geo.ManifoldSpec, fp: fl.FieldPack) -> bool:
    """Use the K-based positive form only when K is timelike on samples."""
    if fp.reference_field is None:
        return False
    try:
        return fl.is_timelike_everywhere(m, fp, count=200).passed
    except geo.ValidationError:
        return False


def _numeric_accel(q, v, g, dg, F, dV, X):
    """dv above the symbolic limit, from tuples of floats: flattened g and
    dg[k][i][j], F or None, and dV/dx or X or neither.  Same numpy operations
    in the same order as ``rhs``."""
    n = len(v)
    g = np.array(g).reshape(n, n)
    v = np.array(v)
    gam = geo.levi_civita(g, np.array(dg).reshape(n, n, n), q)
    dv = -np.einsum("kij,i,j->k", gam, v, v)
    if F is not None:
        dv += np.array(F) @ v
    if dV is not None:
        dv += -np.linalg.solve(g, np.array(dV))
    else:
        dv += np.zeros(n) if X is None else np.array(X)
    out = tuple(float(c) for c in dv)
    if not all(map(math.isfinite, tuple(float(c) for c in v) + out)):
        raise OverflowError("non-finite right-hand side")
    return out


# --- code generation -------------------------------------------------------

def _drive_exprs(m, fp):
    """Symbolic components of the X that enters the equation, or None."""
    n = m.dim
    if fp.potential is not None:
        ginv = m._sys.ginv
        dv = [ex.derive(fp.potential, m.frame.names[j]) for j in range(n)]
        out = []
        for k in range(n):
            acc = ex.ZERO
            for j in range(n):
                acc = ex.add(acc, ex.mul(ginv[k][j], dv[j]))
            out.append(ex.neg(acc))
        return out
    if fp.force_vector is not None:
        return list(fp.force_vector)
    return None


def _emit_accel(m, fp, lines, state, t_name, out, tag):
    """Append lines computing the 2n components of the RHS at a stage.

    state: 2n local variable names holding the stage point; out: names to
    bind the RHS components to.
    """
    n = m.dim

    def rename_for(v: ex.Var) -> str:
        return t_name if v.index == ex.TIME_INDEX else state[v.index]

    for c in range(n):
        lines.append(f"    {out[c]} = {state[n + c]}")
    counter = [0]

    def local(e):
        name = f"_{tag}_{counter[0]}"
        counter[0] += 1
        lines.append(f"    {name} = {ex.emit(e, rename_for)}")
        return name

    if m._sys.gamma is None:
        _emit_numeric_accel(m, fp, lines, state, out, local)
        return
    gamma = m._sys.gamma
    drive = _drive_exprs(m, fp)

    for k in range(n):
        terms = []
        gamma_terms = []
        for i in range(n):
            for j in range(i, n):
                e = gamma[k][i][j]
                if e == ex.ZERO:
                    continue
                name = local(e)
                factor = "2.0*" if i < j else ""
                gamma_terms.append(f"{factor}{name}*{state[n + i]}*{state[n + j]}")
        if gamma_terms:
            terms.append("-(" + " + ".join(gamma_terms) + ")")
        if fp.force_operator is not None:
            for j in range(n):
                e = fp.force_operator[k][j]
                if e == ex.ZERO:
                    continue
                terms.append(f"{local(e)}*{state[n + j]}")
        if drive is not None and drive[k] != ex.ZERO:
            terms.append(local(drive[k]))
        lines.append(f"    {out[n + k]} = " + (" + ".join(terms) if terms else "0.0"))


def _emit_numeric_accel(m, fp, lines, state, out, local):
    """Acceleration above the symbolic limit: bind g, dg, F and dV (or X) to
    locals and pass them to _numeric_accel."""
    n = m.dim
    dg = m._sys.dg
    names = {}  # one local per distinct expression: g and dg are symmetric

    def val(e):
        if isinstance(e, ex.Const):
            return repr(e.value)
        if e not in names:
            names[e] = local(e)
        return names[e]

    def tup(items):
        return "(" + "".join(f"{x}, " for x in items) + ")"

    g_src = tup(val(m.metric[i][j]) for i in range(n) for j in range(n))
    dg_src = tup(val(dg[k][i][j]) for k in range(n) for i in range(n) for j in range(n))
    F = dV = X = "None"
    if fp.force_operator is not None:
        F = tup(tup(val(e) for e in row) for row in fp.force_operator)
    if fp.potential is not None:
        dV = tup(val(ex.derive(fp.potential, name)) for name in m.frame.names)
    elif fp.force_vector is not None:
        X = tup(val(e) for e in fp.force_vector)
    lines.append(f"    {tup(out[n:])} = _numeric_accel({tup(state[:n])}, "
                 f"{tup(state[n:])}, {g_src}, {dg_src}, {F}, {dV}, {X})")


def _generate_sources(m, fp, use_reference):
    n = m.dim
    N = 2 * n

    # flat RHS: used for the first stage and after renormalization
    lines = ["def _rhs(t, y):"]
    names = [f"y_{c}" for c in range(N)]
    for c in range(N):
        lines.append(f"    {names[c]} = y[{c}]")
    out = [f"f_{c}" for c in range(N)]
    _emit_accel(m, fp, lines, names, "t", out, "r")
    lines.append("    return (" + ", ".join(out) + ")")
    rhs_source = "\n".join(lines) + "\n"

    # fused step kernel, where the Christoffel symbols are symbolic
    if m._sys.gamma is None:
        return rhs_source, None, _speed_source(m, fp, use_reference)
    lines = ["def _kernel(t, h, y, k1, atol, rtol):"]
    for c in range(N):
        lines.append(f"    y_{c} = y[{c}]")
        lines.append(f"    k1_{c} = k1[{c}]")
    ks = ["k1"]
    for s, (cs, row) in enumerate(zip(_C, _A), start=2):
        for c in range(N):
            combo = " + ".join(f"{a!r}*{kn}_{c}" for a, kn in zip(row, ks) if a != 0.0)
            lines.append(f"    s{s}_{c} = y_{c} + h*({combo})")
        lines.append(f"    t{s} = t + {cs!r}*h")
        kn = f"k{s}"
        _emit_accel(m, fp, lines, [f"s{s}_{c}" for c in range(N)], f"t{s}",
                    [f"{kn}_{c}" for c in range(N)], f"a{s}")
        ks.append(kn)
    for c in range(N):
        combo = " + ".join(f"{b!r}*{kn}_{c}" for b, kn in zip(_B, ks) if b != 0.0)
        lines.append(f"    y5_{c} = y_{c} + h*({combo})")
    lines.append("    t7 = t + h")
    _emit_accel(m, fp, lines, [f"y5_{c}" for c in range(N)], "t7",
                [f"k7_{c}" for c in range(N)], "a7")
    ks.append("k7")
    for c in range(N):
        combo = " + ".join(f"{e!r}*{kn}_{c}" for e, kn in zip(_E, ks) if e != 0.0)
        lines.append(f"    e_{c} = h*({combo})")
        lines.append(f"    sc_{c} = atol + rtol*max(abs(y_{c}), abs(y5_{c}))")
    norm = " + ".join(f"(e_{c}/sc_{c})**2" for c in range(N))
    lines.append(f"    err = sqrt(({norm})/{float(N)!r})")
    lines.append("    return err, (" + ", ".join(f"y5_{c}" for c in range(N))
                 + "), (" + ", ".join(f"k7_{c}" for c in range(N)) + ")")
    kernel_source = "\n".join(lines) + "\n"
    return rhs_source, kernel_source, _speed_source(m, fp, use_reference)


def _speed_source(m, fp, use_reference):
    """The classification speed squared as a function of the state."""
    n = m.dim
    lines = ["def _speed_sq(y):"]
    qn = [f"y[{c}]" for c in range(n)]

    def rename_q(v: ex.Var) -> str:
        if v.index == ex.TIME_INDEX:
            raise geo.ValidationError("speed normalization cannot depend on t")
        return qn[v.index]

    if not use_reference:
        total = " + ".join(f"y[{n + c}]*y[{n + c}]" for c in range(n))
        lines.append(f"    return {total}")
    else:
        g = m.metric
        K = fp.reference_field
        for i in range(n):
            for j in range(i, n):
                if g[i][j] != ex.ZERO:
                    lines.append(f"    g_{i}_{j} = {ex.emit(g[i][j], rename_q)}")
        for i in range(n):
            lines.append(f"    K_{i} = {ex.emit(K[i], rename_q)}")

        def form(left):  # contraction of g with `left` components and v
            terms = []
            for i in range(n):
                for j in range(n):
                    if g[min(i, j)][max(i, j)] == ex.ZERO:
                        continue
                    terms.append(f"g_{min(i, j)}_{max(i, j)}*{left[i]}*y[{n + j}]")
            return " + ".join(terms) if terms else "0.0"

        v_names = [f"y[{n + i}]" for i in range(n)]
        k_names = [f"K_{i}" for i in range(n)]
        lines.append(f"    gvv = {form(v_names)}")
        lines.append(f"    gkv = {form(k_names)}")
        kk = []
        for i in range(n):
            for j in range(n):
                if g[min(i, j)][max(i, j)] != ex.ZERO:
                    kk.append(f"g_{min(i, j)}_{max(i, j)}*K_{i}*K_{j}")
        lines.append("    gkk = " + (" + ".join(kk) if kk else "0.0"))
        lines.append("    return gvv + 2.0*gkv*gkv/(-gkk)")
    return "\n".join(lines) + "\n"


def _generic_kernel(rhs_flat):
    """Reference Dormand-Prince step over tuples; works in any dimension."""

    def kernel(t, h, y, k1, atol, rtol):
        ks = [k1]
        for cs, row in zip(_C, _A):
            stage = tuple(
                yc + h * sum(a * k[c] for a, k in zip(row, ks))
                for c, yc in enumerate(y))
            ks.append(rhs_flat(t + cs * h, stage))
        y5 = tuple(
            yc + h * sum(b * k[c] for b, k in zip(_B, ks))
            for c, yc in enumerate(y))
        k7 = rhs_flat(t + h, y5)
        ks.append(k7)
        acc = 0.0
        for c, yc in enumerate(y):
            e = h * sum(w * k[c] for w, k in zip(_E, ks))
            sc = atol + rtol * max(abs(yc), abs(y5[c]))
            acc += (e / sc) ** 2
        return math.sqrt(acc / len(y)), y5, k7

    return kernel


# --- the integrator --------------------------------------------------------

def _initial_step(y, k1, cfg, h_max):
    sc = [cfg.atol + cfg.rtol * abs(c) for c in y]
    d0 = math.sqrt(sum((c / s) ** 2 for c, s in zip(y, sc)) / len(y))
    d1 = math.sqrt(sum((c / s) ** 2 for c, s in zip(k1, sc)) / len(y))
    if d0 < 1e-8 or d1 < 1e-8:
        h = 1e-3
    else:
        h = 0.01 * d0 / d1
    return max(cfg.h_min * 10.0, min(h, h_max))


def _run_direction(sysd: _System, s0: TrajectoryState, cfg: IntegrationConfig,
                   sign: float):
    m = sysd.m
    n = sysd.n
    kernel = sysd.kernel
    speed_sq = sysd.speed_sq
    contains = m.domain.contains
    h_max = cfg.t_max / 10.0
    scaling = isinstance(m.quotient, geo.ScalingQuotient)

    q, v, _ = geo.normalize_qv(m, s0.q, s0.v)
    if not contains(q):
        raise geo.OutsideDomainError(f"initial point {q} is outside the chart domain")
    y = q + v
    try:
        k1 = sysd.rhs_flat(s0.t, y)
        spd = math.sqrt(max(speed_sq(y), 0.0))
    except _EVAL_ERRORS as err:
        raise geo.ValidationError(
            f"cannot evaluate the equation at the initial state: {err}") from err
    if spd > cfg.v_max:
        raise geo.ValidationError("initial speed already exceeds the blowup threshold")

    samples = [TrajectoryState(s0.t, q, v)]
    tau = 0.0  # progress toward the horizon, always >= 0
    T = cfg.t_max
    h = _initial_step(y, k1, cfg, h_max)
    err_old = 1e-4
    max_speed = spd
    min_h = math.inf
    accepted = rejected = 0
    since_sample = 0
    pending = None  # (t_lo, t_hi) bracket after a speed crossing
    pending_accepted = 0
    verdict = None

    def finish(kind, t_star=None, half=None, marginal=False, detail=""):
        return Classification(kind, t_star, half, marginal, detail)

    while True:
        if T - tau <= max(cfg.h_min, 1e-12 * T):
            if pending is not None:
                verdict = finish(BLOWUP, *_mid(pending), marginal=True,
                                 detail="speed crossed threshold; horizon before confirmation")
            else:
                verdict = finish(COMPLETE)
            break
        h = min(h, T - tau, h_max)
        hs = sign * h
        t = sign * tau
        try:
            err, y_new, k_new = kernel(t, hs, y, k1, cfg.atol, cfg.rtol)
            ok = math.isfinite(err) and all(map(math.isfinite, y_new))
        except _EVAL_ERRORS:
            ok = False
        if not ok:
            rejected += 1
            h *= 0.5
            if h < cfg.h_min:
                if pending is not None:
                    verdict = finish(BLOWUP, *_mid(pending),
                                     detail="speed crossed threshold; step collapse confirmed")
                else:
                    verdict = finish(STALLED, t, h,
                                     detail="evaluation failure at minimum step")
                break
            continue
        if err > 1.0:
            rejected += 1
            h = h / min(1.0 / _FAC_MIN, err ** _EXPO / _SAFETY)
            if h < cfg.h_min:
                if pending is not None:
                    verdict = finish(BLOWUP, *_mid(pending),
                                     detail="speed crossed threshold; step collapse confirmed")
                else:
                    verdict = finish(BLOWUP, t, max(h, cfg.h_min),
                                     detail="step collapse under error control")
                break
            continue
        # accepted
        t_prev = t
        tau += h
        t = sign * tau
        accepted += 1
        min_h = min(min_h, h)
        qn, vn, changed = geo.normalize_qv(m, tuple(y_new[:n]), tuple(y_new[n:]))
        y = qn + vn
        if changed and scaling:
            try:
                k_new = sysd.rhs_flat(t, y)
            except _EVAL_ERRORS:
                verdict = finish(STALLED, t, h, detail="evaluation failure after renormalization")
                break
        k1 = k_new
        try:
            spd = math.sqrt(max(speed_sq(y), 0.0))
        except _EVAL_ERRORS:
            spd = math.inf
        max_speed = max(max_speed, spd)
        if not contains(qn):
            if pending is not None:
                verdict = finish(BLOWUP, *_mid(pending), marginal=True,
                                 detail="speed crossed threshold; left domain during confirmation")
            else:
                verdict = finish(LEFT_DOMAIN, *_mid((t_prev, t)),
                                 detail="left chart domain")
            break
        since_sample += 1
        if since_sample >= cfg.stride:
            samples.append(TrajectoryState(t, qn, vn))
            since_sample = 0
        if spd > cfg.v_max:
            if pending is None:
                pending = (t_prev, t)
                pending_accepted = accepted
            if spd >= 10.0 * cfg.v_max:
                if since_sample:
                    samples.append(TrajectoryState(t, qn, vn))
                verdict = finish(BLOWUP, *_mid(pending),
                                 detail="speed crossed threshold, confirmed at 10x")
                break
            if accepted - pending_accepted >= _CONFIRM_STEPS:
                if since_sample:
                    samples.append(TrajectoryState(t, qn, vn))
                verdict = finish(BLOWUP, *_mid(pending), marginal=True,
                                 detail="speed crossed threshold without 10x confirmation")
                break
        elif pending is not None:
            # dropped back below the threshold; treat the crossing as noise
            pending = None
        fac11 = err ** _EXPO
        fac = fac11 / (err_old ** _BETA)
        fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
        h = h / fac
        err_old = max(err, 1e-4)
    if since_sample and verdict is not None and verdict.kind == COMPLETE:
        samples.append(TrajectoryState(sign * tau, tuple(y[:n]), tuple(y[n:])))
    marginal = verdict.marginal
    if verdict.kind == COMPLETE and (max_speed >= cfg.v_max / 10.0
                                     or min_h <= 10.0 * cfg.h_min):
        marginal = True
    verdict = replace(verdict, marginal=marginal)
    return samples, DirectionReport(verdict, max_speed,
                                    min_h if accepted else 0.0, accepted, rejected)


def _mid(bracket):
    lo, hi = bracket
    return 0.5 * (lo + hi), 0.5 * abs(hi - lo)


def integrate_maximal(m: geo.ManifoldSpec, fp: fl.FieldPack, s0: TrajectoryState,
                      cfg: IntegrationConfig) -> TrajectoryResult:
    """Integrate both directions to the horizon and classify inextendibility."""
    sysd = compiled_system(m, fp)
    fwd_samples, fwd = _run_direction(sysd, s0, cfg, +1.0)
    back_samples, back = _run_direction(sysd, s0, cfg, -1.0)
    merged = list(reversed(back_samples[1:])) + fwd_samples
    mode = "reference" if sysd.use_reference_speed else "euclidean"
    return TrajectoryResult(merged, fwd, back, cfg, mode)


# --- monitors --------------------------------------------------------------

@dataclass(frozen=True)
class EnergyRecord:
    applicable: bool
    reference: float
    max_drift: float
    note: str = ""


@dataclass(frozen=True)
class KillingRecord:
    present: bool
    constant_case: bool
    reference: float
    max_drift: float
    rate_residual: float | None
    charge_bound: float
    note: str = ""


@dataclass(frozen=True)
class Certificates:
    refused: bool
    reason: str
    c1: float = math.nan
    c2: float = math.nan
    m: float = math.nan
    mc2: float = math.nan
    g_vv_max: float = math.nan
    gr_form_max: float = math.nan
    bound: float = math.nan
    consistent: bool = False


@lru_cache(maxsize=32)
def _skew_cached(m, fp):
    return fl.is_skew_adjoint(m, fp, count=200)


@lru_cache(maxsize=32)
def _conformal_cached(m, fp):
    return fl.conformal_report(m, fp, count=200)


@lru_cache(maxsize=32)
def _annihilates_cached(m, fp):
    return fl.annihilates(m, fp, count=200)


@lru_cache(maxsize=32)
def _inverse_norm_bound(m, fp):
    """max over fundamental-domain samples of 1/|K| (K timelike), or None."""
    pts = geo.sample_points(m, 1000)
    with np.errstate(all="ignore"):
        k = fp.reference_batch(pts, np.zeros(len(pts)))
        gkk = np.einsum("mi,mij,mj->m", k, m.metric_batch(pts), k)
    if not np.all(gkk < -1e-10):  # also refuses non-finite values
        return None
    return float(np.max(1.0 / np.sqrt(-gkk)))


def _zero_grid(ts):
    return int(np.argmin(np.abs(ts)))


def energy_monitor(m: geo.ManifoldSpec, fp: fl.FieldPack,
                   result: TrajectoryResult) -> EnergyRecord:
    """Drift of g(v,v) + 2V along the samples.

    The quantity is a constant of motion when F is skew-adjoint and the only
    extra force is -grad V; otherwise the record is informational.
    """
    ts, qs, vs = result.arrays()
    g = m.metric_batch(qs)
    gvv = np.einsum("mij,mi,mj->m", g, vs, vs)
    energy = gvv + 2.0 * fp.potential_batch(qs, ts)
    c = float(energy[_zero_grid(ts)])
    drift = float(np.max(np.abs(energy - c)))
    skew = _skew_cached(m, fp)
    gradient_force = fp.force_vector is None  # potential or nothing
    applicable = bool(skew.passed and gradient_force)
    note = "" if applicable else "not conserved - informational"
    return EnergyRecord(applicable, c, drift, note)


def _charge_series(m, fp, result):
    ts, qs, vs = result.arrays()
    g = m.metric_batch(qs)
    k = fp.reference_batch(qs, ts)
    return ts, qs, vs, g, np.einsum("mij,mi,mj->m", g, k, vs)


def _nonuniform_derivative(ts, ys):
    """Second-order three-point derivative on an uneven grid (interior only)."""
    h1 = ts[1:-1] - ts[:-2]
    h2 = ts[2:] - ts[1:-1]
    return (-h2 / (h1 * (h1 + h2)) * ys[:-2]
            + (h2 - h1) / (h1 * h2) * ys[1:-1]
            + h1 / (h2 * (h1 + h2)) * ys[2:])


def _rate_identity(m, fp, ts, qs, k, gvv):
    """d/dt g(K, v) = -dV(K) + sigma g(v, v) along the samples."""
    if fp.potential is not None:
        dv = fp.potential_derivative_batch(qs, ts)
        k_dot_grad = np.einsum("mi,mi->m", k, dv)  # g(K, grad V) = dV(K)
    else:
        k_dot_grad = np.zeros(len(ts))
    if _conformal_cached(m, fp)[1] <= 1e-9:
        sigma = np.zeros(len(ts))
    else:
        sigma = fl.conformal_factors(m, fp.reference_field, qs)[0]
    return -k_dot_grad + sigma * gvv


def killing_charge_monitor(m: geo.ManifoldSpec, fp: fl.FieldPack,
                           result: TrajectoryResult) -> KillingRecord:
    """Conservation or rate identity for the charge g(K, v) along the run."""
    if fp.reference_field is None:
        return KillingRecord(False, False, 0.0, 0.0, None, 0.0, "no reference field")
    ts, qs, vs, g, charge = _charge_series(m, fp, result)
    q0 = float(charge[_zero_grid(ts)])
    drift = float(np.max(np.abs(charge - q0)))
    bound = float(np.max(np.abs(charge)))
    res, max_sigma, _ = _conformal_cached(m, fp)
    killing = res <= 1e-9 and max_sigma <= 1e-9
    annihilated = (fp.force_operator is None or _annihilates_cached(m, fp).passed)
    no_potential = fp.potential is None and fp.force_vector is None
    constant_case = bool(killing and annihilated and no_potential)
    rate_residual = None
    if len(ts) >= 3:
        dq_num = _nonuniform_derivative(ts, charge)
        k = fp.reference_batch(qs, ts)
        gvv = np.einsum("mij,mi,mj->m", g, vs, vs)
        ident = _rate_identity(m, fp, ts, qs, k, gvv)
        rate_residual = float(np.max(np.abs(dq_num - ident[1:-1])))
    return KillingRecord(True, constant_case, q0, drift, rate_residual, bound)


def certificate(m: geo.ManifoldSpec, fp: fl.FieldPack,
                result: TrajectoryResult) -> Certificates:
    """Empirical constants of the bound chain for a timelike reference field.

    c2 bounds |g(K,v)|, m bounds 1/|K| over the fundamental domain, and the
    positive-form speed must then stay below g(v,v)_max + 2 (m c2)^2.
    """
    if fp.reference_field is None:
        return Certificates(True, "no reference field")
    inv_norm = _inverse_norm_bound(m, fp)
    if inv_norm is None:
        return Certificates(True, "reference field is not timelike everywhere sampled")
    ts, qs, vs, g, charge = _charge_series(m, fp, result)
    k = fp.reference_batch(qs, ts)
    gkk = np.einsum("mij,mi,mj->m", g, k, k)
    if np.max(gkk) >= -1e-10:
        return Certificates(True, "reference field not timelike along the trajectory")
    gvv = np.einsum("mij,mi,mj->m", g, vs, vs)
    gkv = charge
    gr_form = gvv + 2.0 * gkv * gkv / (-gkk)
    c2 = float(np.max(np.abs(charge)))
    mc2 = inv_norm * c2
    # c1 from the smooth side of the rate identity
    c1 = float(np.max(np.abs(_rate_identity(m, fp, ts, qs, k, gvv))))
    g_vv_max = float(np.max(gvv))
    gr_max = float(np.max(gr_form))
    bound = g_vv_max + 2.0 * mc2 * mc2
    return Certificates(False, "", c1, c2, inv_norm, mc2, g_vv_max, gr_max,
                        bound, bool(gr_max <= bound + 1e-6))


def speed_series(m: geo.ManifoldSpec, fp: fl.FieldPack,
                 result: TrajectoryResult) -> np.ndarray:
    """The classification speed (not squared) at every sample."""
    ts, qs, vs = result.arrays()
    if result.speed_mode == "euclidean":
        return np.sqrt(np.einsum("mi,mi->m", vs, vs))
    g = m.metric_batch(qs)
    k = fp.reference_batch(qs, ts)
    gkk = np.einsum("mij,mi,mj->m", g, k, k)
    gkv = np.einsum("mij,mi,mj->m", g, k, vs)
    gvv = np.einsum("mij,mi,mj->m", g, vs, vs)
    return np.sqrt(np.maximum(gvv + 2.0 * gkv * gkv / (-gkk), 0.0))
