"""Test oracles, which no command runs.

``evaluate`` walks the trees that the emitter prints, and ``to_text``
prints them recursively, one frame per level; ``christoffel_at`` and
``rhs`` form the equation numerically from g and its derivatives, not from
the generated contraction; ``decompose`` splits F at one point; and
``single_step`` is one step of the generated stage lines, for the
handwritten loop that checks the generated step loop; ``SampleTable``
keeps the sample table of a run in memory, which no command does; and
``SequentialSeries`` folds both directions as one stream, in one series."""

import collections
import functools
import math

import numpy as np

import worldline.dynamics as dy
import worldline.expr as ex
import worldline.fields as fl
import worldline.geometry as geo


def evaluate(e, point, t=0.0):
    """Walk the tree at a coordinate tuple (and parameter value ``t``).
    Raises EvaluationDomainError on division by zero, log of a non-positive
    number, or overflow."""
    try:
        v = _eval(e, point, t)
    except ZeroDivisionError:
        raise ex.EvaluationDomainError("division by zero") from None
    except OverflowError:
        raise ex.EvaluationDomainError("overflow") from None
    if not math.isfinite(v):
        raise ex.EvaluationDomainError(f"non-finite value {v!r}")
    return v


def _eval(e, point, t):
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return t if e.index == ex.TIME_INDEX else point[e.index]
    if isinstance(e, ex.Add):
        return _eval(e.a, point, t) + _eval(e.b, point, t)
    if isinstance(e, ex.Mul):
        return _eval(e.a, point, t) * _eval(e.b, point, t)
    if isinstance(e, ex.Div):
        return _eval(e.a, point, t) / _eval(e.b, point, t)
    if isinstance(e, ex.Neg):
        return -_eval(e.a, point, t)
    if isinstance(e, ex.Pow):
        return _eval(e.base, point, t) ** e.exponent
    if isinstance(e, ex.Fun):
        return ex.FUNCTIONS[e.name].scalar(_eval(e.arg, point, t))
    raise TypeError(f"not an expression node: {e!r}")


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW = 1, 2, 3, 4


def _prec(e):
    if isinstance(e, ex.Add):
        return _PREC_ADD
    if isinstance(e, (ex.Mul, ex.Div)):
        return _PREC_MUL
    if isinstance(e, ex.Neg) or isinstance(e, ex.Const) and e.value < 0:
        return _PREC_UNARY
    if isinstance(e, ex.Pow):
        return _PREC_POW
    return 5


def to_text(e):
    """The canonical text form that ``expr.to_text`` prints, by recursion."""
    if isinstance(e, ex.Const):
        v = e.value
        if math.isinf(v):
            return "1e999" if v > 0 else "-1e999"
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, ex.Var):
        return e.name
    if isinstance(e, ex.Add):
        left = _wrap(to_text(e.a), e.a, _PREC_ADD)
        if isinstance(e.b, ex.Neg):
            return f"{left} - {_wrap(to_text(e.b.a), e.b.a, _PREC_MUL)}"
        if isinstance(e.b, ex.Const) and e.b.value < 0:
            return f"{left} - {to_text(ex.Const(-e.b.value))}"
        return f"{left} + {_wrap(to_text(e.b), e.b, _PREC_ADD + 1)}"
    if isinstance(e, (ex.Mul, ex.Div)):
        op = "*" if isinstance(e, ex.Mul) else "/"
        return (f"{_wrap(to_text(e.a), e.a, _PREC_MUL)}{op}"
                f"{_wrap(to_text(e.b), e.b, _PREC_MUL + 1)}")
    if isinstance(e, ex.Neg):
        return f"-{_wrap(to_text(e.a), e.a, _PREC_UNARY)}"
    if isinstance(e, ex.Pow):
        return f"{_wrap(to_text(e.base), e.base, 5)}^{e.exponent}"
    if isinstance(e, ex.Fun):
        return f"{e.name}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(text, e, minimum):
    # takes the text of ``e`` so that to_text recurses one frame per level
    return f"({text})" if _prec(e) < minimum else text


@functools.lru_cache(maxsize=32)
def _dg_fn(m):
    """The symbolic d_k g_ij of the stepper as one batch function."""
    return ex.compile_batch([e for plane in m._sys.dg for row in plane for e in row], m.frame)


def christoffel_at(m, p):
    """Levi-Civita coefficients at p, indexed [k, i, j], formed numerically
    from g and its derivatives; DegenerateMetricError where det g nearly
    vanishes."""
    qs = np.asarray(p, dtype=float)[None]
    g = m.metric_batch(qs)[0]
    if abs(np.linalg.det(g)) < geo._DEGENERACY_TOL:
        raise geo.DegenerateMetricError(f"metric is degenerate at {tuple(qs[0].tolist())}")
    dg = _dg_fn(m)(qs, np.zeros(1)).reshape((m.dim,) * 3)
    # 0.5 * g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), from dg[k, i, j] = d_k g_ij
    dg_ikj = np.swapaxes(dg, 0, 1)
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(g),
                           dg + dg_ikj - np.swapaxes(dg_ikj, 1, 2))


Decomposition = collections.namedtuple("Decomposition", "S H")


def decompose(m, fp, p, t=0.0):
    """F at p split into its g-symmetric part S and its g-skew part H."""
    g = geo.metric_at(m, p)
    F = fp.force_batch(*fl._one(p, t))[0]
    Fstar = fl.g_adjoint(g, F)
    return Decomposition(0.5 * (F + Fstar), 0.5 * (F - Fstar))


def rhs(m, fp, s):
    """(dq, dv) at a state through the numeric Christoffels: dq = v and
    dv^k = -Gamma^k_ij v^i v^j + F^k_j v^j + X^k."""
    gam = christoffel_at(m, s.q)
    v = np.asarray(s.v, dtype=float)
    qs, ts = fl._one(s.q, s.t)
    dv = -np.einsum("kij,i,j->k", gam, v, v)
    if fp.force_operator is not None:
        dv += fp.force_batch(qs, ts)[0] @ v
    dv += fl.drive_vectors(m, fp, qs, ts)[0]
    return v, dv


@functools.lru_cache(maxsize=32)
def single_step(sysd):
    """``step(t, h, y, k1, atol, rtol) -> (err, y5, k7)``: one step of the
    stage lines the step loop of ``sysd`` runs, compiled once in the loop's
    namespace; y5 is in the fundamental domain of a lattice chart, and a
    stage line that overflows returns ``(inf, None, None)``."""
    _, (lines, zero, y5, k7), _ = dy._generate_sources(sysd.m, sysd.fp)
    names = dy._tuple(f"y_{c}" for c in range(len(zero)))
    source = "".join([
        "def _kernel(t, h, y, k1, atol, rtol):\n",
        dy._indent([f"{names} = y", f"{dy._slope_targets(zero)} = k1", "try:"], 1),
        dy._indent(lines, 2),
        dy._indent(["except OverflowError:", "    return inf, None, None",
                    f"return err, {dy._tuple(y5)}, {dy._tuple(k7)}"], 1)])
    return ex.compile_source(source, "_kernel", sysd.kernel.__globals__)


class SampleTable:
    """A block consumer for ``integrate_maximal(table=...)`` that keeps every
    block of the sample table in memory.

    ``columns`` joins the blocks in increasing t, the backward blocks last
    to first, each reversed, then the forward ones: ``(ts, qs, vs, energy,
    charge, speed)``.  ``arrays()`` is ``(ts, qs, vs)`` and ``states`` holds
    one TrajectoryState of plain floats per row.  Read them once the
    integration has returned.
    """

    def __init__(self):
        self._blocks = ([], [])  # forward, backward

    def add(self, columns, backward):
        self._blocks[backward].append(columns)

    @functools.cached_property
    def columns(self):
        forward, backward = self._blocks
        blocks = [[c[::-1] for c in b] for b in reversed(backward)] + forward
        return tuple(map(np.concatenate, zip(*blocks)))

    charge = property(lambda self: self.columns[4])
    speed = property(lambda self: self.columns[5])

    def arrays(self):
        return self.columns[:3]

    @functools.cached_property
    def states(self):
        return [geo.TrajectoryState(t, tuple(q), tuple(v))
                for t, q, v in zip(*(c.tolist() for c in self.arrays()))]


def integrate_kept(m, fp, s0, cfg):
    """``integrate_maximal`` with its sample table kept: (result, table)."""
    table = SampleTable()
    return dy.integrate_maximal(m, fp, s0, cfg, table=table), table


class SequentialSeries:
    """The fold of ``dynamics.SampleSeries`` over both directions as one
    stream in one series: the forward rows from the start row on, then the
    backward rows in decreasing t, the residual's triples running on from
    the start row.  The oracle of the per-direction folds and their merge;
    ``add(ts, qs, vs, backward)`` takes the blocks in that order, without the
    start row that the backward direction hands on alone."""

    def __init__(self, sysd):
        self.m, self.fp = sysd.m, sysd.fp
        self._gr_form = sysd.use_reference_speed
        self.energy_ref = self.charge_ref = None
        for name in dy._MAXIMA:
            setattr(self, name, None)
        # (t, g(K,v), rate) of the first two forward rows and the last two
        # rows folded: the overlap of the three-point derivative
        self._head = self._tail = (np.empty(0),) * 3
        self._turned = False

    def add(self, ts, qs, vs, backward):
        gvv, energy, gkv, gkk, rate = dy._evaluate(self.m, self.fp, ts, qs, vs)
        if self.energy_ref is None:  # the start row
            self.energy_ref = float(energy[0])
            if gkv is not None:
                self.charge_ref = float(gkv[0])
        self.energy_drift = dy._fold_max(self.energy_drift, np.abs(energy - self.energy_ref))
        self.gvv_max = dy._fold_max(self.gvv_max, gvv)
        if gkv is None:
            return
        self.charge_drift = dy._fold_max(self.charge_drift, np.abs(gkv - self.charge_ref))
        self.charge_bound = dy._fold_max(self.charge_bound, np.abs(gkv))
        self.gkk_max = dy._fold_max(self.gkk_max, gkk)
        self.rate_max = dy._fold_max(self.rate_max, np.abs(rate))
        if self._gr_form:
            with np.errstate(divide="ignore", invalid="ignore"):
                self.gr_form_max = dy._fold_max(self.gr_form_max, gvv + 2.0 * gkv * gkv / (-gkk))
        if backward and not self._turned:
            # the backward stream goes on from the start row, in decreasing t
            self._turned = True
            self._tail = tuple(a[1::-1] for a in self._head)
        t, q, r = (np.concatenate(pair) for pair in zip(self._tail, (ts, gkv, rate)))
        if not backward and len(self._head[0]) < 2:
            self._head = tuple(a[:2].copy() for a in (t, q, r))
        self._tail = tuple(a[-2:].copy() for a in (t, q, r))
        if len(t) >= 3:
            if backward:  # each triple in time order
                t, q, r = t[::-1], q[::-1], r[::-1]
            self.rate_residual = dy._fold_max(
                self.rate_residual, np.abs(dy._nonuniform_derivative(t, q) - r[1:-1]))
