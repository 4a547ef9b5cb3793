"""Trajectory integration and inextendibility classification.

The second-order equation is integrated as a first-order system on
(position, velocity) pairs with an embedded Dormand-Prince 5(4) pair and PI
step control.  The right-hand side, the speed and the step loop are
generated as flat Python functions in every dimension, each stage one block
printed by ``expr.emit_block`` from trees that ``expr.simplify`` has
rewritten exactly.  In every dimension the acceleration is one formula,
dv = g^-1 r + F v + X with r_l = -(w_l + d_l V), where w contracts the
symbolic derivatives of g with the velocity (``_accel_parts``).  Up to
dimension 4 g^-1 is the symbolic inverse; above it each stage calls one
generated helper, ``_accel``, which applies the inverse metric on plain
floats: by division when every off-diagonal entry of g is structurally
zero, with what ``_solve`` does on such a metric, else with ``_solve``, a
Gaussian elimination with partial pivoting.  No numpy call runs inside a
stage.  The step emits only the arithmetic it reads (see
``_generate_sources``) and wraps the state into the fundamental domain of a
lattice chart.

Its lines are printed once, into the step loop ``_advance``
(``compiled_system(...).kernel``, see ``_loop_source``), which runs one
direction to a verdict on local floats: accept and reject, the PI
controller, the finiteness test, the speed form, the domain test, the
scaling renormalization and the kept rows.  ``_run_direction`` only starts
it and reads its verdict.

The step loop hands the samples it keeps to a sink in blocks of at most
``_BLOCK`` rows.  The sink is a ``SampleSeries``, a fold that evaluates each
block once and keeps only the running values the monitors, the certificate
and a sweep row read, so the memory of a run does not grow with the
horizon.  A run that asks for the sample table has the fold hand each block
on, with its energy, charge and speed columns, to a block consumer; ``run``
spools them as the text of its CSV or of its JSON report, and the table is
never held in full.

A run never raises on dynamical failure: divergence, domain exit and step
collapse become classifications with a bracketed time.  For a blow-up the
bracket is the accepted step in which the speed crossed v_max; the escape
time itself comes later, and in general outside the bracket.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

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
_BLOCK = 4096  # kept rows per block handed from the step loop to its sink

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
_FAC_LO = 1.0 / _FAC_MAX
_FAC_HI = 1.0 / _FAC_MIN


@dataclass(frozen=True)
class IntegrationConfig:
    t_max: float = 10.0
    rtol: float = 1e-10
    atol: float = 1e-12
    v_max: float = 1e8
    h_min: float = 1e-12
    stride: int = 1

    def __post_init__(self):
        for name in ("t_max", "rtol", "atol", "v_max", "h_min"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
                raise geo.ValidationError(f"{name} must be a finite number, got {x!r}")
        if not (self.t_max > 0 and self.atol > 0 and self.v_max > 0
                and self.h_min > 0):
            raise geo.ValidationError("integration parameters must be positive")
        if self.rtol < 1e-14:
            raise geo.ValidationError("relative tolerance below 1e-14 is not resolvable")
        if type(self.stride) is not int or self.stride < 1:
            raise geo.ValidationError(
                f"monitor stride must be an integer >= 1, got {self.stride!r}")


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
    accepted: int
    rejected: int


class TrajectoryResult:
    """Both direction verdicts and the fold of the samples.

    ``series`` is the ``SampleSeries`` made during the integration, under
    the (m, fp) of the run; the monitors and the certificate read it.
    """

    # no result keeps samples; the traced bench run counts
    # dynamics.samples_kept as len(result.states) (bench/layers.py)
    states = ()

    def __init__(self, series: SampleSeries, forward: DirectionReport,
                 backward: DirectionReport, speed_mode: str):
        self.series = series
        self.forward = forward
        self.backward = backward
        self.speed_mode = speed_mode  # "reference" or "euclidean"

    @property
    def classification(self) -> Classification:
        if self.forward.classification.kind != COMPLETE:
            return self.forward.classification
        if self.backward.classification.kind != COMPLETE:
            return self.backward.classification
        fwd = self.forward.classification
        return replace(fwd, marginal=fwd.marginal or self.backward.classification.marginal)


# --- compiled system -------------------------------------------------------

class _System:
    """Everything integrate_maximal needs, compiled once per (manifold, fields)."""

    def __init__(self, m: geo.ManifoldSpec, fp: fl.FieldPack):
        self.m = m
        self.fp = fp
        self.n = m.dim
        # the K-based positive form only where the certificate accepts K
        self.use_reference_speed = _inverse_norm_bound(m, fp) is not None
        ns = dict(ex._SCALAR_NS, sqrt=math.sqrt, _solve=_solve, _check_det=_check_det,
                  _finite=_finite)
        self.rhs_source, step, accel_source = _generate_sources(m, fp)
        if accel_source is not None:
            ns["_accel"] = ex.compile_source(accel_source, "_accel", ns)
        speed = _speed_lines(m, fp, self.use_reference_speed)
        self.speed_source = _speed_source(speed, 2 * self.n)
        self.rhs_flat = ex.compile_source(self.rhs_source, "_rhs", ns)
        self.speed_sq = ex.compile_source(self.speed_source, "_speed_sq", ns)
        self.kernel_source = _loop_source(m, step, speed)
        self.kernel = ex.compile_source(self.kernel_source, "_advance", dict(
            ns, _rhs=self.rhs_flat, geo=geo, _m=m, isfinite=math.isfinite,
            _EVAL_ERRORS=_EVAL_ERRORS))


@lru_cache(maxsize=16)
def compiled_system(m: geo.ManifoldSpec, fp: fl.FieldPack) -> _System:
    return _System(m, fp)


def _solve(g, r, q):
    """x with g x = r, for g flattened row-major and r of length n, by
    Gaussian elimination with partial pivoting (a Lorentzian chart may have
    g_00 = 0).  Raises DegenerateMetricError naming the point q when det g,
    the product of the pivots, nearly vanishes, and OverflowError when it is
    not finite."""
    n = len(r)
    rows = [[*g[i * n:i * n + n], r[i]] for i in range(n)]
    det = 1.0
    for c in range(n):
        p, big = c, abs(rows[c][c])
        for i in range(c + 1, n):
            a = abs(rows[i][c])
            if a > big:
                p, big = i, a
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        det *= pivot[c]
        if not big:  # a zero column: det is 0 (or nan), refused below
            continue
        tail = pivot[c + 1:]
        for row in rows[c + 1:]:
            if row[c]:
                f = row[c] / pivot[c]
                row[c + 1:] = [a - f * b for a, b in zip(row[c + 1:], tail)]
    _check_det(det, q)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = row[n]
        for j in range(i + 1, n):
            if row[j]:
                s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def _check_det(det, q):
    """Refuse a metric by its determinant: DegenerateMetricError naming the
    point q when det nearly vanishes, then OverflowError when it is not
    finite."""
    if abs(det) < geo._DEGENERACY_TOL:
        raise geo.DegenerateMetricError(f"metric is degenerate at {q}")
    if not math.isfinite(det):
        raise OverflowError("non-finite metric")


def _finite(dv, v):
    """dv, once it and the velocity v are checked finite: a nan raises
    ValueError, an evaluation failure, and an infinity OverflowError, which
    the step counts as an infinite slope."""
    xs = v + dv
    if not all(map(math.isfinite, xs)):
        if any(map(math.isnan, xs)):
            raise ValueError("right-hand side is not a number")
        raise OverflowError("infinite right-hand side")
    return dv


# --- code generation -------------------------------------------------------

def _chain(terms):
    """Left-to-right sum of a non-empty list, as Python adds a + b + c."""
    return reduce(ex.Add, terms)


def _velocities(n):
    """Variables for the velocity half of the state: index n + c."""
    return [ex.Var(f"v{c}", n + c) for c in range(n)]


def _force_terms(fp, v, k):
    """F^k_j v^j for each nonzero F^k_j."""
    if fp.force_operator is None:
        return []
    return [ex.Mul(e, v[j]) for j, e in enumerate(fp.force_operator[k]) if e != ex.ZERO]


def _accel_parts(m, fp, v):
    """``(r, rest)`` with dv = g^-1 r + rest: r_l = -(w_l + d_l V), w from
    ``_contraction_exprs``, and rest^k = F^k_j v^j + X^k.  Zero terms are
    dropped; an empty r_l is ZERO and an empty rest^k None."""
    n = m.dim
    dV = [ex.ZERO] * n
    if fp.potential is not None:  # a potential takes the place of X
        dV = [ex.derive(fp.potential, name) for name in m.frame.names]
    r = []
    for pair in zip(_contraction_exprs(m, v), dV):
        parts = [e for e in pair if e != ex.ZERO]
        r.append(ex.Neg(_chain(parts)) if parts else ex.ZERO)
    rest = []
    for k in range(n):
        terms = _force_terms(fp, v, k)
        if (fp.potential is None and fp.force_vector is not None
                and fp.force_vector[k] != ex.ZERO):
            terms.append(fp.force_vector[k])
        rest.append(_chain(terms) if terms else None)
    return r, rest


def _accel_exprs(m, fp, v):
    """dv^k = rest^k + g^kl r_l with the symbolic inverse g^kl, as trees in
    the order of operations of the generated code."""
    ginv = m._sys.ginv
    r, rest = _accel_parts(m, fp, v)
    out = []
    for k, first in enumerate(rest):
        terms = [] if first is None else [first]
        terms += [ex.Mul(ginv[k][l], e) for l, e in enumerate(r)
                  if e != ex.ZERO and ginv[k][l] != ex.ZERO]
        out.append(_chain(terms) if terms else ex.ZERO)
    return out


def _accel_template(m, fp):
    """The RHS at one stage point as ``(lines, reads, timed, helper)``.

    The format fields are {0}..{2n-1}, the stage point, {2n}..{4n-1}, the
    names of the outputs, and {t}, the time.  ``lines`` compute the stage.
    ``reads[c]`` is the text of component c when it is one name or literal,
    which is read in place (a velocity copy, or the literal 0.0 of a
    structurally zero slope); it is None when ``lines`` assign output
    {2n+c}.  ``timed`` tells whether the stage reads {t}.  Both branches
    compute dv = g^-1 r + F v + X from ``_accel_parts``.  Up to the symbolic
    limit g^-1 is the symbolic inverse, the lines are one block of shared
    subexpressions and ``helper`` is None; above it the lines are one call
    of ``_accel`` (see ``_accel_source``), and ``helper`` is the source of
    that function."""
    n = m.dim
    state = [f"{{{c}}}" for c in range(2 * n)]
    out = [f"{{{c}}}" for c in range(2 * n, 4 * n)]
    if m._sys.ginv is None:
        helper, timed = _accel_source(m, fp)
        args = ", ".join(["{t}"] * timed + state)
        return [f"{_tuple(out[n:])} = _accel({args})"], state[n:] + [None] * n, timed, helper
    v = _velocities(n)
    trees = ex.simplify(v + _accel_exprs(m, fp, v))

    def rename(var: ex.Var) -> str:
        return "{t}" if var.index == ex.TIME_INDEX else f"{{{var.index}}}"

    lines, results = ex.emit_block(trees, rename, "_a")
    reads = [r if isinstance(e, (ex.Var, ex.Const)) else None for e, r in zip(trees, results)]
    lines += [f"{o} = {r}" for o, r, read in zip(out, results, reads) if read is None]
    return lines, reads, any(map(ex.references_time, trees)), None


def _contraction_exprs(m, v):
    """w_l = sum_ij (d_i g_jl - 1/2 d_l g_ij) v^i v^j, so that
    Gamma^k_ij v^i v^j = g^kl w_l; zero derivatives are dropped and each
    product v^i v^j is one tree, whichever order its factors come in."""
    n = m.dim
    dg = m._sys.dg  # dg[k][i][j] = d_k g_ij

    def vv(i, j):
        return ex.Mul(v[min(i, j)], v[max(i, j)])

    out = []
    for l in range(n):
        terms = [ex.Mul(dg[i][j][l], vv(i, j))
                 for i in range(n) for j in range(n) if dg[i][j][l] != ex.ZERO]
        half = [ex.Mul(dg[l][i][j] if i == j else ex.Mul(ex.Const(2.0), dg[l][i][j]),
                       vv(i, j))
                for i in range(n) for j in range(i, n) if dg[l][i][j] != ex.ZERO]
        if half:
            terms.append(ex.Neg(ex.Mul(ex.Const(0.5), _chain(half))))
        out.append(_chain(terms) if terms else ex.ZERO)
    return out


def _accel_source(m, fp):
    """``_accel(t, y_0, ..., y_{2n-1})`` above the symbolic limit, in plain
    floats: one block computing g and the parts r and F v + X of
    ``_accel_parts``, then dv = g^-1 r + F v + X.  When every off-diagonal
    entry of g simplifies to zero, g^-1 r is r_k / g_kk after the refusals
    of ``_check_det`` on the product of the diagonal, bit for bit what
    ``_solve`` computes and raises on such a metric (it swaps no row and
    eliminates nothing); otherwise ``_solve`` applies it.  Returns the
    source and whether it reads t; when it does not, the function takes no
    t."""
    n = m.dim
    r, rest = _accel_parts(m, fp, _velocities(n))

    def rename(var: ex.Var) -> str:
        return "t" if var.index == ex.TIME_INDEX else f"y_{var.index}"

    trees = ex.simplify(geo.mirrored(m.metric) + r + [e for e in rest if e is not None])
    lines, results = ex.emit_block(trees, rename, "_a")
    names = [f"y_{c}" for c in range(2 * n)]
    g, rhs = results[:n * n], results[n * n:n * n + n]
    if all(trees[i * n + j] == ex.ZERO for i in range(n) for j in range(n) if i != j):
        diag = [g[k * n + k] for k in range(n)]
        lines.append(f"_check_det({' * '.join(diag)}, {_tuple(names[:n])})")
        x = [f"{r} / {d}" for r, d in zip(rhs, diag)]
    else:
        lines.append(f"_x = _solve({_tuple(g)}, {_tuple(rhs)}, {_tuple(names[:n])})")
        x = [f"_x[{k}]" for k in range(n)]
    extra = iter(results[n * n + n:])
    dv = [x[k] if e is None else f"{x[k]} + {next(extra)}" for k, e in enumerate(rest)]
    timed = any(map(ex.references_time, trees))
    source = "".join([f"def _accel({', '.join(['t'] * timed + names)}):\n",
                      *(f"    {line}\n" for line in lines),
                      f"    return _finite({_tuple(dv)}, {_tuple(names[n:])})\n"])
    return source, timed


def _tuple(items):
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _indent(lines, depth):
    """Source lines at ``depth`` levels of indentation, each ended."""
    pad = "    " * depth
    return "".join(f"{pad}{line}\n" for line in lines)


def _combo(weights, slopes, c):
    """a1*k1_c + a2*k2_c + ... over the nonzero weights, summed left to right."""
    return " + ".join(f"{a!r}*{k[c]}" for a, k in zip(weights, slopes) if a != 0.0)


def _generate_sources(m, fp):
    """The source of ``_rhs(t, y)``, the Dormand-Prince step as ``(lines,
    zero, y5, k7)`` and, above the symbolic limit, the source of the
    ``_accel`` helper the two call (else None).

    ``lines`` compute the step from the locals t, h, atol, rtol, y_c and
    k1_c (c = 0..2n-1) into ``err``, which is inf when a scaled square
    overflows (``x ** 2`` raises where ``x * x`` gives inf); ``y5[c]`` is
    the text of the new state and ``k7[c]`` that of its slope; ``zero[c]``
    tells a structurally zero component, whose k1_c is never read.  The
    step loop ``_advance`` (``_loop_source``) wraps the lines.

    The step is written out for the work it needs; each omission keeps
    every bit:
    - a stage time t_s is computed only when the right-hand side reads t;
    - a structurally zero component, whose right-hand side is the literal
      0.0 in ``_rhs`` and in the step alike, has every slope +0.0, k1
      included.  Each row of _A and _B starts with a positive weight, so its
      sum over the slopes is +0.0, and every stage value of the component is
      y_c + h*0.0, computed once with the sign of zero it always had.  Its
      error term is (h*0.0/sc)**2 = +0.0 for finite y and h, and adding +0.0
      to a sum of squares, which is >= +0.0, changes nothing; a non-finite
      y_c makes y5_c non-finite, which the step loop rejects whatever err is;
    - a slope that is one name or literal (a velocity copy) is read in place;
    - max(a, b) is ``b if b > a else a``: max returns b only when b > a,
      so it keeps the first of equal values and a nan in either place.
    On lattice charts y5 takes each periodic coordinate modulo its period,
    the operation of ``geometry.normalize_qv``, while k7, the first slope of
    the next step, is evaluated at y5 itself.
    """
    n = m.dim
    N = 2 * n
    template, reads, timed, helper = _accel_template(m, fp)

    def stage(state, k, t_name):
        """The lines of the RHS at one stage point and the text of its slopes."""
        outs = [f"{k}_{c}" for c in range(N)]
        lines = [line.format(*state, *outs, t=t_name) for line in template]
        return lines, [o if r is None else r.format(*state, t=t_name)
                       for o, r in zip(outs, reads)]

    names = [f"y_{c}" for c in range(N)]
    body, f = stage(names, "f", "t")
    rhs_source = "".join(["def _rhs(t, y):\n",
                          _indent([f"{_tuple(names)} = y", *body, f"return {_tuple(f)}"], 1)])

    zero = [r == "0.0" for r in reads]
    assert all(row[0] > 0.0 for row in (*_A, _B))  # the zero sums are +0.0
    lines = ["hz = h*0.0"] if any(zero) else []
    lines += [f"y5_{c} = y_{c} + hz" for c in range(N) if zero[c]]
    slopes = [[f"k1_{c}" for c in range(N)]]
    for s, (cs, row) in enumerate(zip((*_C, 1.0), (*_A, _B)), start=2):
        point = [f"y5_{c}" if s == 7 or zero[c] else f"s{s}_{c}" for c in range(N)]
        lines += [f"{point[c]} = y_{c} + h*({_combo(row, slopes, c)})"
                  for c in range(N) if not zero[c]]
        if timed:
            lines.append(f"t{s} = t + {cs!r}*h" if cs != 1.0 else f"t{s} = t + h")
        body, k = stage(point, f"k{s}", f"t{s}")
        lines += body
        slopes.append(k)
    terms = []
    for c in range(N):
        if zero[c]:
            continue
        lines += [f"e_{c} = h*({_combo(_E, slopes, c)})",
                  f"a_{c} = abs(y_{c})", f"b_{c} = abs(y5_{c})",
                  f"sc_{c} = atol + rtol*(b_{c} if b_{c} > a_{c} else a_{c})"]
        terms.append(f"(e_{c}/sc_{c})**2")
    # a square that overflows raises in x ** 2: its error is infinite
    lines += ["try:", f"    err = sqrt(({' + '.join(terms)})/{float(N)!r})",
              "except OverflowError:", "    err = inf"]
    periods = m.quotient.periods if isinstance(m.quotient, geo.LatticeQuotient) else ()
    y5 = [f"y5_{c}" if c >= len(periods) or periods[c] is None else f"y5_{c} % {periods[c]!r}"
          for c in range(N)]
    return rhs_source, (lines, zero, y5, slopes[-1]), helper


def _slope_targets(zero):
    """The names a slope tuple unpacks into: ``_`` for a zero component."""
    return _tuple("_" if z else f"k1_{c}" for c, z in enumerate(zero))


def _speed_lines(m, fp, use_reference):
    """The classification speed squared over the locals y_c, as ``(lines,
    result)``: g(v,v) + 2 g(K,v)^2 / -g(K,K) with ``use_reference``, else
    the Euclidean square of v."""
    n = m.dim
    if not use_reference:
        return [], " + ".join(f"y_{n + c}*y_{n + c}" for c in range(n))
    g = m.metric
    K = fp.reference_field
    v = _velocities(n)

    def form(left, right):  # sum of g_ij left_i right_j over the nonzero g_ij
        terms = [ex.Mul(ex.Mul(g[min(i, j)][max(i, j)], left[i]), right[j])
                 for i in range(n) for j in range(n) if g[min(i, j)][max(i, j)] != ex.ZERO]
        return _chain(terms) if terms else ex.ZERO

    gkv = form(K, v)
    # g(v,v) + 2 g(K,v)^2 / -g(K,K)
    speed = ex.Add(form(v, v), ex.Div(ex.Mul(ex.Mul(ex.Const(2.0), gkv), gkv),
                                      ex.Neg(form(K, K))))

    def rename(var: ex.Var) -> str:
        if var.index == ex.TIME_INDEX:
            raise geo.ValidationError("speed normalization cannot depend on t")
        return f"y_{var.index}"

    lines, (result,) = ex.emit_block(ex.simplify([speed]), rename, "_s")
    return lines, result


def _speed_source(speed, N):
    """``_speed_sq(y)``: the speed lines over a state tuple of length N."""
    lines, result = speed
    names = _tuple(f"y_{c}" for c in range(N))
    return "".join(["def _speed_sq(y):\n",
                    _indent([f"{names} = y", *lines, f"return {result}"], 1)])


def _domain_exit(m):
    """The test that a state y_c has left the chart, or None on all of R^n.

    Accepted states are finite, so a bound of -inf below or +inf above holds
    every one of them and is left out; the rest is ``ChartDomain.contains``
    negated, with the excluded ball as the same left-to-right sum of squares
    under one sqrt."""
    d = m.domain
    tests = []
    for c, (lo, hi) in enumerate(zip(d.lower, d.upper)):
        if lo != -math.inf and hi != math.inf:
            tests.append(f"not {float(lo)!r} <= y_{c} <= {float(hi)!r}")
        elif lo != -math.inf:
            tests.append(f"not {float(lo)!r} <= y_{c}")
        elif hi != math.inf:
            tests.append(f"not y_{c} <= {float(hi)!r}")
    if d.exclude_origin_radius is not None:
        squares = " + ".join(f"y_{c}*y_{c}" for c in range(m.dim))
        tests.append(f"sqrt({squares}) < {float(d.exclude_origin_radius)!r}")
    return " or ".join(tests) or None


# How the step loop ends: its first return value names one of these
# (kind, marginal, detail, bracketed); the next two are a bracket (t_lo,
# t_hi) when ``bracketed``, else t_star and its halfwidth.
_ENDS = {
    "complete": (COMPLETE, False, "", False),
    "horizon-pending": (BLOWUP, True, "speed crossed threshold; horizon before confirmation",
                        True),
    "collapse-pending": (BLOWUP, False, "speed crossed threshold; step collapse confirmed",
                         True),
    "stall": (STALLED, False, "evaluation failure at minimum step", False),
    "collapse": (BLOWUP, False, "step collapse under error control", False),
    "renormalization-stall": (STALLED, False, "evaluation failure after renormalization",
                              False),
    "left-pending": (BLOWUP, True, "speed crossed threshold; left domain during confirmation",
                     True),
    "left": (LEFT_DOMAIN, False, "left chart domain", True),
    "tenfold": (BLOWUP, False, "speed crossed threshold, confirmed at 10x", True),
    "unconfirmed": (BLOWUP, True, "speed crossed threshold without 10x confirmation", True),
}


def _loop_source(m, step, speed):
    """``_advance``: the step loop of one direction, from the start state to
    a verdict, on local floats.

    It takes the state ``y`` with its slope ``k1``, the first step length,
    the start speed, the time base and sign, the horizon T and the
    tolerances; the stride and ``full``, the length of a full block of kept
    rows; and ``rows``, the array of kept rows, which ``hand(rows)`` passes
    on when it is full, returning the empty array that follows.  It returns
    ``(end, a, b, max_speed, min_h, accepted, rejected, rows)``, ``end`` a
    key of ``_ENDS``; the row kept on the way out may fill ``rows``, which
    the caller hands on.  Around the lines of the step it runs accept and
    reject, the PI controller, the finiteness test, the speed form, the
    domain test, the scaling renormalization and the kept rows, each float
    operation as ``normalize_qv`` and the handwritten loop of the tests do it:
    - the new state is finite when x - x == 0.0 for its sum x with err: a
      sum with an infinity or a nan is not finite.  Otherwise (an overflowing
      sum too) err must not be nan and each component is tested.  An
      infinite err (a scaled square that overflows, or an infinite slope at
      a finite new state) is left to error control, which rejects the step;
      so is a stage line that raises OverflowError (a ``**`` or an ``exp``
      beyond the float range): its slope is infinite, and err is inf;
    - on a scaling chart with factor L, ``normalize_qv`` leaves a state with
      1 <= |q| < L as it is, |q| the same left-to-right sum of squares under
      one sqrt; any other state goes to it.
    """
    lines, zero, y5, k7 = step
    n = m.dim
    N = len(zero)
    ys = [f"y_{c}" for c in range(N)]
    Y = _tuple(ys)
    K = _slope_targets(zero)
    new = [f"w_{c}" if text != f"y5_{c}" else text for c, text in enumerate(y5)]
    row = f"rows.extend(({', '.join(['t_new', *ys])}))"

    def end(key, a, b):
        return f"return {key!r}, {a}, {b}, max_speed, min_h, accepted, rejected, rows"

    out = [f"{Y} = y", f"{K} = k1", "v_ten = 10.0 * v_max", "tau = 0.0",
           f"err_old = {1e-4!r}", "min_h = inf", "accepted = rejected = since = 0",
           "pending = False", "p_lo = p_hi = 0.0", "p_at = 0", "while True:"]
    head = [
        "rest = T - tau",
        "if rest <= end_gap:",
        "    if pending:",
        f"        {end('horizon-pending', 'p_lo', 'p_hi')}",
        "    if since:",
        f"        rows.extend(({', '.join(['base + sign * tau', *ys])}))",
        f"    {end('complete', 'None', 'None')}",
        "if rest < step:", "    step = rest",
        "if h_max < step:", "    step = h_max",
        "h = sign * step",
        "t = base + sign * tau",
        "try:",
    ]
    wraps = [f"{w} = {text}" for w, text in zip(new, y5) if w != text]
    guarded = [*lines, *wraps,
               f"x = err + {' + '.join(new)}",
               f"ok = x - x == 0.0 or (err == err and all(map(isfinite, {_tuple(new)})))"]
    reject = [
        "except OverflowError:", "    err = inf", "    ok = True",
        "except _EVAL_ERRORS:", "    ok = False",
        "if not ok:",
        "    rejected += 1",
        "    step *= 0.5",
        "    if step < h_min:",
        "        if pending:",
        f"            {end('collapse-pending', 'p_lo', 'p_hi')}",
        f"        {end('stall', 't', 'step')}",
        "    continue",
        "if err > 1.0:",
        "    rejected += 1",
        f"    fac = err ** {_EXPO!r} / {_SAFETY!r}",
        f"    step = step / (fac if fac < {_FAC_HI!r} else {_FAC_HI!r})",
        "    if step < h_min:",
        "        if pending:",
        f"            {end('collapse-pending', 'p_lo', 'p_hi')}",
        f"        {end('collapse', 't', 'h_min if h_min > step else step')}",
        "    continue",
        "tau += step",
        "t_new = base + sign * tau",
        "accepted += 1",
        "if step < min_h:", "    min_h = step",
    ]
    accept = [f"{y} = {w}" for y, w in zip(ys, new)]
    accept += [f"k1_{c} = {k}" for c, k in enumerate(k7) if not zero[c]]
    if isinstance(m.quotient, geo.ScalingQuotient):
        accept += [
            f"r = sqrt({' + '.join(f'y_{c}*y_{c}' for c in range(n))})",
            f"if not 1.0 <= r < {m.quotient.factor!r}:",
            f"    q, v, changed = geo.normalize_qv(_m, {_tuple(ys[:n])}, {_tuple(ys[n:])})",
            f"    {Y} = q + v",
            "    if changed:",
            "        try:",
            f"            {K} = _rhs(t_new, {Y})",
            "        except _EVAL_ERRORS:",
            f"            {end('renormalization-stall', 't_new', 'step')}",
        ]
    speed_lines, speed_result = speed
    accept += ["try:", *(f"    {line}" for line in speed_lines),
               f"    spd = {speed_result}",
               "    spd = sqrt(0.0 if spd < 0.0 else spd)",
               "except _EVAL_ERRORS:", "    spd = inf",
               "if spd > max_speed:", "    max_speed = spd"]
    exit_test = _domain_exit(m)
    if exit_test is not None:
        accept += [f"if {exit_test}:",
                   "    if pending:",
                   f"        {end('left-pending', 'p_lo', 'p_hi')}",
                   f"    {end('left', 't', 't_new')}"]
    accept += [
        "since += 1",
        "if since >= stride:",
        f"    {row}",
        "    if len(rows) == full:", "        rows = hand(rows)",
        "    since = 0",
        "if spd > v_max:",
        "    if not pending:",
        "        pending = True", "        p_lo = t", "        p_hi = t_new",
        "        p_at = accepted",
        "    if spd >= v_ten:",
        "        if since:", f"            {row}",
        f"        {end('tenfold', 'p_lo', 'p_hi')}",
        f"    if accepted - p_at >= {_CONFIRM_STEPS!r}:",
        "        if since:", f"            {row}",
        f"        {end('unconfirmed', 'p_lo', 'p_hi')}",
        "elif pending:", "    pending = False",
        f"fac = err ** {_EXPO!r} / err_old ** {_BETA!r} / {_SAFETY!r}",
        f"if fac > {_FAC_HI!r}:", f"    fac = {_FAC_HI!r}",
        f"elif fac < {_FAC_LO!r}:", f"    fac = {_FAC_LO!r}",
        "step = step / fac",
        f"err_old = err if err > {1e-4!r} else {1e-4!r}",
    ]
    return "".join(["def _advance(y, k1, step, max_speed, base, sign, T, atol, rtol, v_max, "
                    "h_min, h_max, end_gap, stride, full, rows, hand):\n", _indent(out, 1),
                    _indent(head, 2), _indent(guarded, 3), _indent(reject + accept, 2)])


# --- the integrator --------------------------------------------------------

def _scaled_rms(xs, sc):
    """Root mean square of xs / sc; inf when a square overflows, as
    ``x ** 2`` raises where ``x * x`` would give inf."""
    try:
        return math.sqrt(sum((c / s) ** 2 for c, s in zip(xs, sc)) / len(xs))
    except OverflowError:
        return math.inf


def _initial_step(y, k1, cfg, h_max):
    sc = [cfg.atol + cfg.rtol * abs(c) for c in y]
    d0 = _scaled_rms(y, sc)
    d1 = _scaled_rms(k1, sc)
    if d0 < 1e-8 or d1 < 1e-8:
        h = 1e-3
    else:
        h = 0.01 * d0 / d1
    return max(cfg.h_min * 10.0, min(h, h_max))


def _hand(sink, rows, n, backward):
    """Pass the flat rows ``t, q..., v...`` to ``sink`` as contiguous
    columns, so that numpy picks the loops, and so the rounding, that the
    monitors have always seen."""
    block = np.frombuffer(rows).reshape(-1, 1 + 2 * n)
    sink(block[:, 0].copy(), block[:, 1:1 + n].copy(), block[:, 1 + n:].copy(), backward)


def _run_direction(sysd: _System, s0: TrajectoryState, cfg: IntegrationConfig,
                   sign: float, sink):
    """Integrate one direction to the horizon or to a verdict, from the time
    ``s0.t``, with the generated step loop ``sysd.kernel``.  The kept
    samples go to ``sink(ts, qs, vs, backward)`` in the order they are
    taken, in blocks of at most ``_BLOCK`` rows; the start row goes with the
    forward direction only.  Returns the direction's report."""
    m = sysd.m
    n = sysd.n
    T, v_max, h_min = float(cfg.t_max), float(cfg.v_max), float(cfg.h_min)
    h_max = T / 10.0

    # Plain floats from here on: sampled start points arrive as numpy
    # scalars, and every operation of the loop would run on them.
    t0 = float(s0.t)
    q, v = tuple(map(float, s0.q)), tuple(map(float, s0.v))
    if not all(map(math.isfinite, q + v)):
        raise geo.ValidationError(f"initial state is not finite: q = {q}, v = {v}")
    q, v, _ = geo.normalize_qv(m, q, v)
    if not m.domain.contains(q):
        raise geo.OutsideDomainError(f"initial point {q} is outside the chart domain")
    y = q + v
    try:
        k1 = sysd.rhs_flat(t0, y)
        spd = math.sqrt(max(sysd.speed_sq(y), 0.0))
    except _EVAL_ERRORS as err:
        raise geo.ValidationError(
            f"cannot evaluate the equation at the initial state: {err}") from err
    if not spd <= v_max:  # a nan speed too
        raise geo.ValidationError(
            f"initial speed {spd!r} is not within the blowup threshold {v_max!r}")

    backward = sign < 0.0
    full = _BLOCK * (1 + 2 * n)

    def hand(rows):
        _hand(sink, rows, n, backward)
        return array("d")

    rows = array("d") if backward else array("d", (t0, *y))
    if len(rows) == full:  # blocks of one row
        rows = hand(rows)
    end, a, b, max_speed, min_h, accepted, rejected, rows = sysd.kernel(
        y, k1, _initial_step(y, k1, cfg, h_max), spd,
        t0 if t0 else -0.0,  # x + -0.0 is x for every x, -0.0 included
        sign, T, float(cfg.atol), float(cfg.rtol), v_max, h_min, h_max,
        max(h_min, 1e-12 * T), cfg.stride, full, rows, hand)
    if rows:
        _hand(sink, rows, n, backward)
    kind, marginal, detail, bracketed = _ENDS[end]
    t_star, half = _mid((a, b)) if bracketed else (a, b)
    if kind == COMPLETE and (max_speed >= v_max / 10.0 or min_h <= 10.0 * h_min):
        marginal = True
    return DirectionReport(Classification(kind, t_star, half, marginal, detail), max_speed,
                           accepted, rejected)


def _mid(bracket):
    lo, hi = bracket
    return 0.5 * (lo + hi), 0.5 * abs(hi - lo)


def integrate_maximal(m: geo.ManifoldSpec, fp: fl.FieldPack, s0: TrajectoryState,
                      cfg: IntegrationConfig, table=None) -> TrajectoryResult:
    """Integrate both directions to the horizon and classify inextendibility.

    Every kept sample is folded into the result's ``series`` under (m, fp),
    which keeps no sample, so the memory of the run does not grow with the
    horizon.  A ``table`` is a block consumer that the fold also hands the
    rows of the sample table to (see ``SampleSeries``)."""
    sysd = compiled_system(m, fp)
    series = SampleSeries(m, fp, table)
    fwd = _run_direction(sysd, s0, cfg, +1.0, series.add)
    back = _run_direction(sysd, s0, cfg, -1.0, series.add)
    mode = "reference" if sysd.use_reference_speed else "euclidean"
    return TrajectoryResult(series, fwd, back, mode)


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
    gr_form_max: float = math.nan
    bound: float = math.nan
    consistent: bool = False


@lru_cache(maxsize=32)
def _inverse_norm_bound(m, fp):
    """max over fundamental-domain samples of 1/|K| (K timelike), or None;
    a sample the checks refuse raises as it does in ``check``."""
    if fp.reference_field is None:
        return None
    timelike = fl.is_timelike_everywhere(m, fp)
    # 1/sqrt(-x) rises with x, so its maximum is at the largest g(K,K)
    return 1.0 / math.sqrt(-timelike.worst) if timelike.passed else None


def _evaluate(m: geo.ManifoldSpec, fp: fl.FieldPack, ts, qs, vs):
    """``(gvv, energy, gkv, gkk, rate)`` at each row of a block: g(v,v), the
    energy g(v,v) + 2V and, with a reference field K, the charge g(K,v),
    g(K,K) and the rate d/dt g(K,v) = -dV(K) + sigma g(v,v); the last three
    are None without K.  The per-block evaluator of the fold and so of the
    sample table; a row's values do not depend on the rows it comes with,
    and only (m,) series are made, never more than one block's metric
    stack."""
    g = m.metric_batch(qs)
    gvv = np.einsum("mij,mi,mj->m", g, vs, vs)
    energy = gvv + 2.0 * fp.potential_batch(qs, ts)
    if fp.reference_field is None:
        return gvv, energy, None, None, None
    k = fp.reference_batch(qs, ts)
    gkv = np.einsum("mij,mi,mj->m", g, k, vs)
    gkk = np.einsum("mij,mi,mj->m", g, k, k)
    if fp.potential is not None:  # g(K, grad V) = dV(K)
        k_dot_grad = np.einsum("mi,mi->m", k, fp.potential_derivative_batch(qs, ts))
    else:
        k_dot_grad = np.zeros(len(ts))
    if fl.conformal_report(m, fp)[1] <= fl._CONFORMAL_TOL:
        sigma = np.zeros(len(ts))
    else:
        sigma = fl.conformal_factors(m, fp.reference_field, qs, g)[0]
    return gvv, energy, gkv, gkk, -k_dot_grad + sigma * gvv


def _fold_max(running, values):
    """The running maximum after one more block; np.max and np.maximum
    propagate a nan."""
    top = np.max(values)
    return top if running is None else np.maximum(running, top)


class SampleSeries:
    """A fold over the sample blocks of one result under (m, fp).

    ``add`` evaluates each block once with ``_evaluate`` and keeps running
    values only:
    - ``energy_ref`` c and ``charge_ref`` q0, from the start row, which
      comes first;
    - the maxima ``energy_drift`` |E - c| and ``gvv_max`` g(v,v);
    - with a reference field K, the maxima ``charge_drift`` |g(K,v) - q0|,
      ``charge_bound`` |g(K,v)|, ``gkk_max`` g(K,K) and ``rate_max`` |rate|;
      where the certificate takes K, ``gr_form_max`` of
      g(v,v) + 2 g(K,v)^2 / -g(K,K); and ``rate_residual``, the largest
      |d/dt g(K,v) - rate| with the three-point derivative over consecutive
      rows, None below three rows.
    A maximum over blocks is the maximum over all rows, so no value depends
    on the block size.  Values a fold does not make are None.

    With a ``table``, the fold also hands each block on as rows of the
    sample table: ``table.add(columns, backward)`` with the columns ``(ts,
    qs, vs, energy, charge, speed)`` in the order the step loop took the
    rows, ``charge`` g(K,v) (nan without K) and ``speed`` the
    classification speed, from the positive form where the certificate
    takes K, else Euclidean.  Each is an elementwise formula, so a row's
    values do not depend on its block.  ``run`` spools the blocks as the
    text of its CSV or of its JSON report.
    """

    def __init__(self, m: geo.ManifoldSpec, fp: fl.FieldPack, table=None):
        self.m, self.fp = m, fp
        self._table = table
        self._gr_form = fp.reference_field is not None and _inverse_norm_bound(m, fp) is not None
        self.energy_ref = self.energy_drift = self.gvv_max = None
        self.charge_ref = self.charge_drift = self.charge_bound = None
        self.gkk_max = self.rate_max = self.gr_form_max = self.rate_residual = None
        # (t, g(K,v), rate) of the first two forward rows and the last two
        # rows folded: the overlap of the three-point derivative
        self._head = self._tail = (np.empty(0),) * 3
        self._turned = False

    def add(self, ts, qs, vs, backward: bool = False):
        """Fold one block of contiguous rows, in the order the step loop took
        them: the forward rows from the start row on, then the backward rows
        in decreasing t."""
        gvv, energy, gkv, gkk, rate = _evaluate(self.m, self.fp, ts, qs, vs)
        if self.energy_ref is None:  # the start row
            self.energy_ref = float(energy[0])
            if gkv is not None:
                self.charge_ref = float(gkv[0])
        self.energy_drift = _fold_max(self.energy_drift, np.abs(energy - self.energy_ref))
        self.gvv_max = _fold_max(self.gvv_max, gvv)
        form = None
        if gkv is not None:
            self.charge_drift = _fold_max(self.charge_drift, np.abs(gkv - self.charge_ref))
            self.charge_bound = _fold_max(self.charge_bound, np.abs(gkv))
            self.gkk_max = _fold_max(self.gkk_max, gkk)
            self.rate_max = _fold_max(self.rate_max, np.abs(rate))
            if self._gr_form:
                # a g(K,K) that is not negative makes the certificate refuse
                with np.errstate(divide="ignore", invalid="ignore"):
                    form = gvv + 2.0 * gkv * gkv / (-gkk)
                self.gr_form_max = _fold_max(self.gr_form_max, form)
            self._fold_residual(ts, gkv, rate, backward)
        if self._table is not None:
            charge = np.full(len(ts), math.nan) if gkv is None else gkv
            if form is None:
                speed = np.sqrt(np.einsum("mi,mi->m", vs, vs))
            else:
                speed = np.sqrt(np.maximum(form, 0.0))
            self._table.add((ts, qs, vs, energy, charge, speed), backward)

    def _fold_residual(self, ts, gkv, rate, backward):
        """Fold the residual over the triples of rows this block completes."""
        if backward and not self._turned:
            # the backward stream goes on from the start row, in decreasing t
            self._turned = True
            self._tail = tuple(a[1::-1] for a in self._head)
        t, q, r = (np.concatenate(pair) for pair in zip(self._tail, (ts, gkv, rate)))
        if not backward and len(self._head[0]) < 2:
            self._head = tuple(a[:2].copy() for a in (t, q, r))
        self._tail = tuple(a[-2:].copy() for a in (t, q, r))
        if len(t) >= 3:
            if backward:  # each triple in time order: its sum is not symmetric
                t, q, r = t[::-1], q[::-1], r[::-1]
            self.rate_residual = _fold_max(
                self.rate_residual, np.abs(_nonuniform_derivative(t, q) - r[1:-1]))


def energy_monitor(result: TrajectoryResult) -> EnergyRecord:
    """Drift of g(v,v) + 2V along the samples.

    The quantity is a constant of motion when F is skew-adjoint and the only
    extra force is -grad V; otherwise the record is informational.
    """
    series = result.series
    skew = fl.is_skew_adjoint(series.m, series.fp)
    gradient_force = series.fp.force_vector is None  # potential or nothing
    applicable = bool(skew.passed and gradient_force)
    note = "" if applicable else "not conserved - informational"
    return EnergyRecord(applicable, series.energy_ref, float(series.energy_drift), note)


def _nonuniform_derivative(ts, ys):
    """Second-order three-point derivative on an uneven grid (interior only)."""
    h1 = ts[1:-1] - ts[:-2]
    h2 = ts[2:] - ts[1:-1]
    return (-h2 / (h1 * (h1 + h2)) * ys[:-2]
            + (h2 - h1) / (h1 * h2) * ys[1:-1]
            + h1 / (h2 * (h1 + h2)) * ys[2:])


def killing_charge_monitor(result: TrajectoryResult) -> KillingRecord:
    """Conservation or rate identity for the charge g(K, v) along the run."""
    series = result.series
    m, fp = series.m, series.fp
    if fp.reference_field is None:
        return KillingRecord(False, False, 0.0, 0.0, None, 0.0, "no reference field")
    res, max_sigma = fl.conformal_report(m, fp)
    killing = res <= fl._CONFORMAL_TOL and max_sigma <= fl._CONFORMAL_TOL
    annihilated = (fp.force_operator is None or fl.annihilates(m, fp).passed)
    no_potential = fp.potential is None and fp.force_vector is None
    constant_case = bool(killing and annihilated and no_potential)
    residual = series.rate_residual
    return KillingRecord(True, constant_case, series.charge_ref, float(series.charge_drift),
                         None if residual is None else float(residual),
                         float(series.charge_bound))


def certificate(result: TrajectoryResult) -> Certificates:
    """Empirical constants of the bound chain for a timelike reference field.

    c2 bounds |g(K,v)|, m bounds 1/|K| over the fundamental domain, and the
    positive-form speed must then stay below g(v,v)_max + 2 (m c2)^2.
    """
    series = result.series
    if series.fp.reference_field is None:
        return Certificates(True, "no reference field")
    inv_norm = _inverse_norm_bound(series.m, series.fp)
    if inv_norm is None:
        return Certificates(True, "reference field is not timelike everywhere sampled")
    if series.gkk_max >= fl._TIMELIKE_MARGIN:
        return Certificates(True, "reference field not timelike along the trajectory")
    c2 = float(series.charge_bound)
    mc2 = inv_norm * c2
    # c1 from the smooth side of the rate identity
    c1 = float(series.rate_max)
    gr_max = float(series.gr_form_max)
    bound = float(series.gvv_max) + 2.0 * mc2 * mc2
    return Certificates(False, "", c1, c2, inv_norm, gr_max, bound,
                        bool(gr_max <= bound + 1e-6))
