import copy
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest

import worldline.expr as ex

import oracles
from oracles import evaluate

XY = ex.CoordinateFrame(("x", "y"))
XT = ex.CoordinateFrame(("x",), time_dependent=True)


def test_parse_numbers_and_constants():
    assert evaluate(ex.parse("2.5", XY), (0, 0)) == 2.5
    assert evaluate(ex.parse("1e-3", XY), (0, 0)) == 1e-3
    assert evaluate(ex.parse("pi", XY), (0, 0)) == math.pi


def test_precedence_and_unary_minus():
    e = ex.parse("2*x + 3*y^2", XY)
    assert evaluate(e, (5.0, 2.0)) == 22.0
    # unary minus binds looser than the power
    assert evaluate(ex.parse("-x^2", XY), (3.0, 0.0)) == -9.0
    assert evaluate(ex.parse("(-x)^2", XY), (3.0, 0.0)) == 9.0
    assert evaluate(ex.parse("x^-2", XY), (2.0, 0.0)) == 0.25
    assert evaluate(ex.parse("2 - -3", XY), (0, 0)) == 5.0


def test_functions():
    e = ex.parse("sin(x)^2 + cos(x)^2", XY)
    for v in (0.0, 0.7, -2.0):
        assert evaluate(e, (v, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(ex.parse("exp(log(x))", XY), (3.0, 0.0)) == pytest.approx(3.0)


def test_parse_errors():
    with pytest.raises(ex.ParseError):
        ex.parse("2 +", XY)
    with pytest.raises(ex.ParseError):
        ex.parse("x ^ y", XY)  # exponent must be an integer literal
    with pytest.raises(ex.ParseError):
        ex.parse("(x", XY)
    with pytest.raises(ex.ParseError):
        ex.parse("", XY)
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("x + z", XY)


def test_time_handling():
    # 't' is the ambient parameter only for time-dependent frames
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("t", XY)
    e = ex.parse("x * t", XT)
    assert ex.references_time(e)
    assert evaluate(e, (3.0,), t=2.0) == 6.0
    # a coordinate named 't' in a static frame stays a coordinate
    frame_t = ex.CoordinateFrame(("t", "x"))
    e2 = ex.parse("t + x", frame_t)
    assert not ex.references_time(e2)
    assert evaluate(e2, (1.0, 2.0), t=99.0) == 3.0


def test_to_text_round_trip():
    cases = [
        "x + y",
        "x * (y + 1)",
        "-(x + y)",
        "1 / (x^2 + y^2)",
        "sin(2 * pi * x)",
        "x^-3",
        "x - y - 1",
        # an infinite literal prints as 1e999, which parses back to it
        "x/1e999",
        "exp(-1e999)*x",
        "x - 1e999",
    ]
    for text in cases:
        e = ex.parse(text, XY)
        printed = ex.to_text(e)
        again = ex.parse(printed, XY)
        assert again == e, text
        assert ex.to_text(again) == printed, text


def test_derive_polynomial():
    e = ex.parse("x^3 + 2*x*y", XY)
    dx = ex.derive(e, "x")
    assert evaluate(dx, (2.0, 5.0)) == pytest.approx(3 * 4 + 2 * 5)
    dy = ex.derive(e, "y")
    assert evaluate(dy, (2.0, 5.0)) == pytest.approx(4.0)


def test_derive_chain_and_quotient():
    e = ex.parse("sin(x^2) / (1 + y^2)", XY)
    dx = ex.derive(e, "x")
    x, y = 0.8, -0.4
    want = 2 * x * math.cos(x * x) / (1 + y * y)
    assert evaluate(dx, (x, y)) == pytest.approx(want, rel=1e-12)


def test_derive_time():
    e = ex.parse("x * sin(t)", XT)
    dt = ex.derive(e, ex.TIME_NAME)
    assert evaluate(dt, (2.0,), t=0.0) == pytest.approx(2.0)
    assert ex.derive(ex.parse("x^2", XT), ex.TIME_NAME) == ex.ZERO


def test_constant_folding_keeps_zero_detectable():
    # smart constructors drop structural zeros so codegen can skip terms
    z = ex.mul(ex.ZERO, ex.parse("sin(x)", XY))
    assert z == ex.ZERO
    assert ex.add(ex.ZERO, ex.parse("x", XY)) == ex.parse("x", XY)
    assert ex.derive(ex.parse("y", XY), "x") == ex.ZERO


def test_constant_power_overflow_folds_to_signed_infinity():
    # Python's float ** raises OverflowError where IEEE arithmetic gives inf
    assert ex.power(ex.Const(1e200), 2) == ex.Const(math.inf)
    assert ex.power(ex.Const(-1e200), 2) == ex.Const(math.inf)
    assert ex.power(ex.Const(-1e200), 3) == ex.Const(-math.inf)
    assert ex.power(ex.Const(-1e-200), -3) == ex.Const(-math.inf)
    assert ex.derive(ex.parse("x*(1e200)^3", XY), "y") == ex.ZERO


def _scalar_function(exprs, args):
    """emit_block + compile_source over _SCALAR_NS: the path of the stepper."""
    lines, results = ex.emit_block(exprs, lambda v: v.name)
    source = "".join([f"def _f({', '.join(args)}):\n",
                      *(f"    {line}\n" for line in lines),
                      f"    return ({''.join(r + ', ' for r in results)})\n"])
    return ex.compile_source(source, "_f", ex._SCALAR_NS), lines


def test_scalar_source_matches_evaluate():
    rng = np.random.default_rng(11)
    e = ex.parse("exp(x / (1 + x^2)) * cos(y) - y^3 + log(1 + x^2)", XY)
    f, _ = _scalar_function([e], ("x", "y"))
    for _ in range(50):
        q = tuple(rng.uniform(-3, 3, size=2))
        assert f(*q)[0] == pytest.approx(evaluate(e, q), rel=1e-15)
    g, _ = _scalar_function([ex.parse("log(x)", XY)], ("x",))
    with pytest.raises(ex.EvaluationDomainError):
        g(0.0)


def test_emitter_shares_nodes_but_not_signed_zeros():
    x = ex.Var("x", 0)
    shared = ex.Fun("sin", ex.Mul(x, x))
    plus, minus = ex.Add(x, ex.Const(0.0)), ex.Add(x, ex.Const(-0.0))
    assert plus == minus  # node equality cannot tell 0.0 from -0.0
    f, lines = _scalar_function(
        [ex.Add(shared, ex.Fun("sin", ex.Mul(x, x))), plus, minus], ("x",))
    assert lines == ["_e0 = sin((x * x))"]  # one local, for the repeated node
    total, p, m = f(-0.0)
    assert total == 0.0
    assert math.copysign(1.0, p) == 1.0 and math.copysign(1.0, m) == -1.0
    # a negative literal raised to a power keeps its sign inside the power
    f, _ = _scalar_function([ex.Pow(ex.Const(-2.0), 2)], ())
    assert f() == (4.0,) == (evaluate(ex.Pow(ex.Const(-2.0), 2), ()),)
    # x^(2^60) as 61 distinct nodes and 2^60 paths: each walk visits a node once
    e = x
    for _ in range(60):
        e = ex.Mul(e, e)
    assert not ex.references_time(e)
    f, _ = _scalar_function([ex.derive(e, "x")], ("x",))
    assert f(1.0) == (2.0 ** 60,)


def test_nodes_are_slotted_immutable_and_compare_past_the_recursion_limit():
    x = ex.Var("x", 0)
    node = ex.Add(x, ex.Const(1.0))
    assert not hasattr(node, "__dict__")
    for name in ("a", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(node, name, x)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node == ex.Add(ex.Var("x", 0), ex.Const(1.0))
    assert copy.deepcopy(node) == node and pickle.loads(pickle.dumps(node)) == node
    assert repr(node) == "Add(a=Var(name='x', index=0), b=Const(value=1.0))"
    with pytest.raises(TypeError):
        ex.Add(x)
    # x/(x/(...)) 400 deep: each level adds four to the depth of its derivative
    e = x
    for _ in range(400):
        e = ex.Div(x, e)
    d, again = ex.derive(e, "x"), ex.derive(e, "x")
    with pytest.raises(RecursionError):
        oracles.to_text(d)  # the recursive printer, one frame per level
    tracemalloc.start()
    try:
        text = ex.to_text(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each node's text is dropped once read; the naive fold holds ~540 times the text
    assert peak <= 4 * len(text)
    assert text == ex.to_text(again)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4000)
    try:
        assert text == oracles.to_text(d)
    finally:
        sys.setrecursionlimit(limit)
    assert d is not again and d == again and hash(d) == hash(again)
    assert {d: 1}[again] == 1
    assert d != ex.derive(ex.Div(ex.Const(2.0), e), "x")


def test_emitter_splits_deep_trees():
    # far deeper than Python's recursion limit and its 200 nested parentheses
    x = ex.Var("x", 0)
    e = x
    for k in range(5000):
        e = ex.Add(ex.Mul(e, ex.Const(0.5)), x) if k % 2 else ex.Fun("cos", e)
    f, lines = _scalar_function([e, ex.derive(e, "x")], ("x",))
    want, slope, text = 0.3, 1.0, "x"
    for k in range(5000):
        if k % 2:
            want, slope, text = want * 0.5 + 0.3, slope * 0.5 + 1.0, f"{text}*0.5 + x"
        else:
            want, slope, text = math.cos(want), -math.sin(want) * slope, f"cos({text})"
    assert f(0.3) == (want, slope)
    assert max(line.count("(") for line in lines) <= 2 * ex._INLINE_DEPTH
    assert ex.to_text(e) == text
    assert not ex.references_time(e)
    assert ex.simplify([e])[0] is e  # nothing to rewrite: the tree comes back
    batch = ex.compile_batch([e], ex.CoordinateFrame(("x",)))
    assert batch(np.array([[0.3]]), np.zeros(1))[0, 0] == pytest.approx(want, rel=1e-12)


def test_compile_batch_matches_scalar():
    # the batch compiler against the scalar interpreter ``evaluate``
    e = ex.parse("x * t + sin(x) - exp(cos(x)) / log(2 + x^2)", XT)
    rng = np.random.default_rng(3)
    qs = rng.uniform(-2, 2, size=(40, 1))
    ts = rng.uniform(-2, 2, size=40)
    got = ex.compile_batch([e, ex.parse("2", XT)], XT)(qs, ts)
    want = np.array([evaluate(e, tuple(q), t) for q, t in zip(qs, ts)])
    assert got.shape == (40, 2)
    assert np.allclose(got[:, 0], want, rtol=1e-14, atol=0)
    # constants broadcast to one value per point
    assert np.array_equal(got[:, 1], np.full(40, 2.0))


def test_function_table_drives_parser_and_derivatives():
    # every function of the table parses, evaluates and differentiates
    for name, fn in ex.FUNCTIONS.items():
        e = ex.parse(f"{name}(x)", XY)
        assert evaluate(e, (0.7, 0.0)) == fn.scalar(0.7)
        d = evaluate(ex.derive(e, "x"), (0.7, 0.0))
        fd = (fn.scalar(0.7 + 1e-6) - fn.scalar(0.7 - 1e-6)) / 2e-6
        assert d == pytest.approx(fd, rel=1e-8), name
    for unsupported in ("tan(x)", "sqrt(x)", "abs(x)"):
        with pytest.raises(ex.UnknownIdentifierError):
            ex.parse(unsupported, XY)
    with pytest.raises(ex.EvaluationDomainError):
        evaluate(ex.parse("log(x)", XY), (-1.0, 0.0))


# --- randomized derivative oracle -----------------------------------------

def random_expr(rng, frame, depth):
    """Total on all of R^n by construction: divisions and logs are shielded."""
    names = frame.names
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            i = int(rng.integers(len(names)))
            return ex.Var(names[i], i)
        return ex.Const(round(float(rng.uniform(-2.5, 2.5)), 3))
    pick = rng.integers(9)
    a = random_expr(rng, frame, depth - 1)
    if pick == 0:
        return ex.add(a, random_expr(rng, frame, depth - 1))
    if pick == 1:
        return ex.sub(a, random_expr(rng, frame, depth - 1))
    if pick == 2:
        return ex.mul(a, random_expr(rng, frame, depth - 1))
    if pick == 3:
        # denominator bounded away from zero
        b = random_expr(rng, frame, depth - 1)
        return ex.div(a, ex.add(ex.ONE, ex.power(b, 2)))
    if pick == 4:
        return ex.power(a, int(rng.integers(2, 4)))
    if pick == 5:
        return ex.Fun("sin", a)
    if pick == 6:
        return ex.Fun("cos", a)
    if pick == 7:
        # |u/(1+u^2)| <= 1/2 keeps exp tame
        return ex.Fun("exp", ex.div(a, ex.add(ex.ONE, ex.power(a, 2))))
    return ex.Fun("log", ex.add(ex.ONE, ex.power(a, 2)))


def central_difference(e, frame, q, i, h):
    lo = list(q)
    hi = list(q)
    lo[i] -= h
    hi[i] += h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)


def test_random_derivatives_match_finite_differences():
    frame = ex.CoordinateFrame(("x", "y", "z"))
    rng = np.random.default_rng(20240811)
    checked = 0
    while checked < 300:
        e = random_expr(rng, frame, depth=4)
        q = tuple(rng.uniform(-2, 2, size=3))
        val = evaluate(e, q)
        if not math.isfinite(val) or abs(val) > 1e6:
            continue
        i = int(rng.integers(3))
        sym = evaluate(ex.derive(e, frame.names[i]), q)
        if abs(sym) > 1e6:
            continue
        fd = central_difference(e, frame, q, i, 1e-6 * (1 + abs(q[i])))
        scale = 1.0 + abs(sym)
        assert abs(sym - fd) <= 1e-5 * scale, ex.to_text(e)
        checked += 1


# --- property tests of the emitter and the printer --------------------------

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

XYT = ex.CoordinateFrame(("x", "y"), time_dependent=True)
_VARS = (ex.Var("x", 0), ex.Var("y", 1), ex.Var("t", ex.TIME_INDEX))
_BINARY = (ex.Add, ex.Mul, ex.Div)

_consts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5]),
                    st.floats(-4, 4).map(lambda v: round(v, 3))).map(ex.Const)
_leaves = st.one_of(st.sampled_from(_VARS), _consts)


def _binary(op, a, b):
    # divide by 1 + b^2, so that most examples stay defined
    return op(a, ex.Add(ex.ONE, ex.Pow(b, 2)) if op is ex.Div else b)


def _power(a, k):
    # negative powers of 1 + a^2 only
    return ex.Pow(ex.Add(ex.ONE, ex.Pow(a, 2)) if k < 0 else a, k)


def _grow(children):
    return st.one_of(
        st.builds(_binary, st.sampled_from(_BINARY), children, children),
        # the same subtree twice: a node used more than once
        st.builds(lambda op, a: _binary(op, a, a), st.sampled_from(_BINARY), children),
        # negating a literal parses as a literal, so Neg never wraps a Const
        children.map(lambda a: ex.Const(-a.value) if isinstance(a, ex.Const) else ex.Neg(a)),
        st.builds(_power, children, st.integers(-2, 4)),
        st.builds(_function, st.sampled_from(sorted(ex.FUNCTIONS)), children))


def _function(name, a):
    # log of 1 + a^2, so that most examples stay in its domain
    return ex.Fun(name, ex.Add(ex.ONE, ex.Pow(a, 2)) if name == "log" else a)


_trees = st.recursive(_leaves, _grow, max_leaves=24)
_small = st.recursive(_leaves, _grow, max_leaves=3)


def _chain(parts):
    head, rest = parts
    for op, term in rest:
        head = _binary(op, head, term)
    return head


# left-deep chains nested past the emitter's inline depth
_chains = st.tuples(_trees, st.lists(st.tuples(st.sampled_from(_BINARY[:2]), _small),
                                     min_size=ex._INLINE_DEPTH, max_size=80)).map(_chain)
_exprs = st.one_of(_trees, _chains)
_coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3))
_points = st.tuples(_coords, _coords, _coords)
# generating the long chains is slow on a loaded machine
_SETTINGS = hyp.settings(max_examples=60, deadline=None,
                         suppress_health_check=[hyp.HealthCheck.too_slow])


def _evaluate(e, point):
    try:
        return evaluate(e, point[:2], point[2])
    except ex.EvaluationDomainError:
        return None


@_SETTINGS
@hyp.given(st.lists(_exprs, min_size=1, max_size=2), _points)
def test_emitted_scalar_code_equals_evaluate(exprs, point):
    wants = [_evaluate(e, point) for e in exprs]
    hyp.assume(all(w is not None for w in wants))
    f, _ = _scalar_function(exprs, ("x", "y", "t"))
    for got, want in zip(f(*point), wants):
        # the same operations in the same order: equal to the last bit and sign
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


def _error_scale(e, point):
    """(value, scale) with |roundoff of any evaluation| <~ eps * scale: the
    magnitude of each node weighted by how much the result amplifies an
    error in it (first order), so a last-bit difference of numpy's elementary
    functions from libm's moves the result by a few eps * scale."""
    if isinstance(e, ex.Const):
        return e.value, abs(e.value)
    if isinstance(e, ex.Var):
        v = point[2] if e.index == ex.TIME_INDEX else point[e.index]
        return v, abs(v)
    if isinstance(e, ex.Neg):
        a, ea = _error_scale(e.a, point)
        return -a, ea
    if isinstance(e, ex.Pow):
        a, ea = _error_scale(e.base, point)
        v = a ** e.exponent
        return v, (abs(e.exponent * v / a) * ea if a else ea) + 4 * abs(v)
    if isinstance(e, ex.Fun):
        a, ea = _error_scale(e.arg, point)
        v = ex.FUNCTIONS[e.name].scalar(a)
        gain = abs(v) if e.name == "exp" else 1.0 / abs(a) if e.name == "log" else 1.0
        return v, gain * ea + 4 * abs(v)
    (a, ea), (b, eb) = _error_scale(e.a, point), _error_scale(e.b, point)
    if isinstance(e, ex.Add):
        return a + b, ea + eb + abs(a + b)
    if isinstance(e, ex.Mul):
        return a * b, ea * abs(b) + abs(a) * eb + abs(a * b)
    return a / b, (ea + abs(a / b) * eb) / abs(b) + abs(a / b)


@_SETTINGS
@hyp.given(st.lists(_exprs, min_size=1, max_size=2), st.lists(_points, min_size=1, max_size=5))
def test_batch_code_matches_evaluate(exprs, points):
    wants = np.array([[_evaluate(e, p) for e in exprs] for p in points], dtype=float)
    ok = ~np.isnan(wants).any(axis=1)
    hyp.assume(ok.any())
    pts = np.array(points, dtype=float)[ok]
    with np.errstate(all="ignore"):
        got = ex.compile_batch(exprs, XYT)(pts[:, :2], pts[:, 2])
        scales = np.array([[_error_scale(e, p)[1] for e in exprs] for p in pts])
    assert np.all(np.abs(got - wants[ok]) <= 1e-12 * scales)


@_SETTINGS
@hyp.given(_exprs)
def test_to_text_round_trip_property(e):
    assert ex.parse(ex.to_text(e), XYT) == e
    assert ex.to_text(e) == oracles.to_text(e)


# --- the exact simplification of scalar code ---------------------------------

def test_simplify_rules():
    x, y, c = ex.Var("x", 0), ex.Var("y", 1), ex.Const
    sin = ex.Fun("sin", y)
    rewritten = [
        (ex.Mul(c(1.0), x), x), (ex.Mul(x, c(1.0)), x), (ex.Div(x, c(1.0)), x),
        (ex.Mul(c(-1.0), x), ex.Neg(x)), (ex.Mul(x, c(-1.0)), ex.Neg(x)),
        (ex.Div(x, c(-1.0)), ex.Neg(x)),
        (ex.Add(x, c(-0.0)), x), (ex.Add(c(-0.0), x), x),
        (ex.Neg(ex.Mul(c(0.1), ex.Mul(ex.Neg(sin), x))), ex.Mul(c(0.1), ex.Mul(sin, x))),
        (ex.Div(ex.Neg(x), ex.Neg(y)), ex.Div(x, y)), (ex.Div(x, ex.Neg(y)), ex.Neg(ex.Div(x, y))),
        (ex.Neg(ex.Neg(x)), x), (ex.Neg(c(2.0)), c(-2.0)),
        (ex.Mul(c(2.0), c(math.pi)), c(2.0 * math.pi)), (ex.Add(c(0.1), c(0.2)), c(0.1 + 0.2)),
        (ex.Div(c(1.0), c(3.0)), c(1.0 / 3.0)), (ex.Pow(c(3.0), -2), c(3.0 ** -2)),
        (ex.Fun("sin", ex.Mul(c(0.5), c(3.0))), c(math.sin(1.5))),
        (ex.Fun("log", c(-0.0 + 2.0)), c(math.log(2.0))),
        (ex.Add(ex.Mul(c(-1.0), c(1.0)), x), ex.Add(c(-1.0), x)),
    ]
    for e, want in rewritten:
        assert ex.simplify([e]) == [want], e
    # each of these would change a value or lose an exception at run time
    kept = [ex.Add(x, c(0.0)), ex.Add(c(0.0), x), ex.Mul(c(0.0), x), ex.Mul(x, c(-0.0)),
            ex.Div(c(1.0), c(0.0)), ex.Div(c(1.0), c(-0.0)), ex.Pow(c(1e200), 2),
            ex.Pow(c(0.0), -1), ex.Fun("log", c(-1.0)), ex.Fun("exp", c(1e3)),
            ex.Fun("sin", c(math.inf)), ex.Mul(c(2.0), x), ex.Add(ex.Neg(x), y)]
    for e in kept:
        assert ex.simplify([e]) == [e], e
    f, _ = _scalar_function(ex.simplify([ex.Add(x, c(-0.0)), ex.Add(x, c(0.0)),
                                         ex.Mul(c(0.0), x)]), ("x",))
    assert repr(f(-0.0)) == "(-0.0, 0.0, -0.0)" and repr(f(math.inf)) == "(inf, inf, nan)"
    # a node shared by two roots is rewritten once, and the trees stay shared
    a, b = ex.simplify([ex.Mul(c(1.0), sin), ex.Neg(ex.Neg(sin))])
    assert a is b is sin


_EDGE = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, math.inf, -math.inf, math.nan, 1e200, 1e-200]
_edge_leaves = st.one_of(st.sampled_from(_VARS), st.sampled_from(_EDGE).map(ex.Const))


def _edge_grow(children):
    # raw nodes, unguarded: divisions by zero, logs of negatives and
    # overflowing powers raise, and a literal may sit under a negation
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(_BINARY), children, children),
        st.builds(lambda op, a: op(a, a), st.sampled_from(_BINARY), children),
        children.map(ex.Neg),
        st.builds(ex.Pow, children, st.integers(-3, 3)),
        st.builds(ex.Fun, st.sampled_from(sorted(ex.FUNCTIONS)), children))


_edge_trees = st.recursive(_edge_leaves, _edge_grow, max_leaves=16)
_edge_coords = st.one_of(st.sampled_from(_EDGE), st.floats(-3, 3))


def _outcome(exprs, point):
    """repr of the emitted code's results at ``point``, or 'raises'."""
    f, _ = _scalar_function(exprs, ("x", "y", "t"))
    try:
        return repr(f(*point))
    except (ArithmeticError, ValueError):
        return "raises"


@hyp.settings(max_examples=300, deadline=None,
              suppress_health_check=[hyp.HealthCheck.too_slow])
@hyp.given(st.lists(st.one_of(_edge_trees, _exprs), min_size=1, max_size=3),
           st.tuples(_edge_coords, _edge_coords, _edge_coords))
# the inputs at which the rewrites the simplification must not make differ
@hyp.example([ex.Add(_VARS[0], ex.Const(0.0)), ex.Add(ex.Const(0.0), _VARS[1])], (-0.0, -0.0, 0.0))
@hyp.example([ex.Mul(ex.Const(0.0), _VARS[0]), ex.Mul(_VARS[1], ex.Const(-0.0))],
             (math.inf, -math.inf, 0.0))
def test_simplified_code_equals_the_original(exprs, point):
    # by repr, which tells the sign of a zero apart
    assert _outcome(ex.simplify(exprs), point) == _outcome(exprs, point)
