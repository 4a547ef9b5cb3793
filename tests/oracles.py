"""Test oracles, which no command runs.

``evaluate`` walks the trees that the emitter prints; ``christoffel_at`` and
``rhs`` form the equation numerically from g and its derivatives, not from
the generated contraction; ``decompose`` splits F at one point; and
``single_step`` is one step of the generated stage lines, for the
handwritten loop that checks the generated step loop; and ``SampleTable``
keeps the sample table of a run in memory, which no command does."""

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
