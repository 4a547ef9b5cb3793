import math

import numpy as np
import pytest

import worldline.expr as ex

XY = ex.CoordinateFrame(("x", "y"))
XT = ex.CoordinateFrame(("x",), time_dependent=True)


def test_parse_numbers_and_constants():
    assert ex.evaluate(ex.parse("2.5", XY), (0, 0)) == 2.5
    assert ex.evaluate(ex.parse("1e-3", XY), (0, 0)) == 1e-3
    assert ex.evaluate(ex.parse("pi", XY), (0, 0)) == math.pi


def test_precedence_and_unary_minus():
    e = ex.parse("2*x + 3*y^2", XY)
    assert ex.evaluate(e, (5.0, 2.0)) == 22.0
    # unary minus binds looser than the power
    assert ex.evaluate(ex.parse("-x^2", XY), (3.0, 0.0)) == -9.0
    assert ex.evaluate(ex.parse("(-x)^2", XY), (3.0, 0.0)) == 9.0
    assert ex.evaluate(ex.parse("x^-2", XY), (2.0, 0.0)) == 0.25
    assert ex.evaluate(ex.parse("2 - -3", XY), (0, 0)) == 5.0


def test_functions():
    e = ex.parse("sin(x)^2 + cos(x)^2", XY)
    for v in (0.0, 0.7, -2.0):
        assert ex.evaluate(e, (v, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert ex.evaluate(ex.parse("exp(log(x))", XY), (3.0, 0.0)) == pytest.approx(3.0)


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
    assert ex.evaluate(e, (3.0,), t=2.0) == 6.0
    # a coordinate named 't' in a static frame stays a coordinate
    frame_t = ex.CoordinateFrame(("t", "x"))
    e2 = ex.parse("t + x", frame_t)
    assert not ex.references_time(e2)
    assert ex.evaluate(e2, (1.0, 2.0), t=99.0) == 3.0


def test_to_text_round_trip():
    cases = [
        "x + y",
        "x * (y + 1)",
        "-(x + y)",
        "1 / (x^2 + y^2)",
        "sin(2 * pi * x)",
        "x^-3",
        "x - y - 1",
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
    assert ex.evaluate(dx, (2.0, 5.0)) == pytest.approx(3 * 4 + 2 * 5)
    dy = ex.derive(e, "y")
    assert ex.evaluate(dy, (2.0, 5.0)) == pytest.approx(4.0)


def test_derive_chain_and_quotient():
    e = ex.parse("sin(x^2) / (1 + y^2)", XY)
    dx = ex.derive(e, "x")
    x, y = 0.8, -0.4
    want = 2 * x * math.cos(x * x) / (1 + y * y)
    assert ex.evaluate(dx, (x, y)) == pytest.approx(want, rel=1e-12)


def test_derive_time():
    e = ex.parse("x * sin(t)", XT)
    dt = ex.derive(e, ex.TIME_NAME)
    assert ex.evaluate(dt, (2.0,), t=0.0) == pytest.approx(2.0)
    assert ex.derive(ex.parse("x^2", XT), ex.TIME_NAME) == ex.ZERO


def test_constant_folding_keeps_zero_detectable():
    # smart constructors drop structural zeros so codegen can skip terms
    z = ex.mul(ex.ZERO, ex.parse("sin(x)", XY))
    assert z == ex.ZERO
    assert ex.add(ex.ZERO, ex.parse("x", XY)) == ex.parse("x", XY)
    assert ex.derive(ex.parse("y", XY), "x") == ex.ZERO


def test_scalar_source_matches_evaluate():
    # emit + compile_source over _SCALAR_NS is the path of the generated stepper
    rng = np.random.default_rng(11)
    e = ex.parse("exp(x / (1 + x^2)) * cos(y) - y^3 + log(1 + x^2)", XY)
    source = f"def _f(x, y):\n    return {ex.emit(e)}\n"
    f = ex.compile_source(source, "_f", ex._SCALAR_NS)
    for _ in range(50):
        q = tuple(rng.uniform(-3, 3, size=2))
        assert f(*q) == pytest.approx(ex.evaluate(e, q), rel=1e-15)
    g = ex.compile_source("def _g(x):\n    return log(x)\n", "_g", ex._SCALAR_NS)
    with pytest.raises(ex.EvaluationDomainError):
        g(0.0)


def test_compile_batch_matches_scalar():
    # the batch compiler against the scalar interpreter ``evaluate``
    e = ex.parse("x * t + sin(x) - exp(cos(x)) / log(2 + x^2)", XT)
    batch = ex.compile_batch(e, XT)
    rng = np.random.default_rng(3)
    qs = rng.uniform(-2, 2, size=(40, 1))
    ts = rng.uniform(-2, 2, size=40)
    got = batch(qs, ts)
    want = np.array([ex.evaluate(e, tuple(q), t) for q, t in zip(qs, ts)])
    assert np.allclose(got, want, rtol=1e-14, atol=0)
    # constants broadcast to one value per point
    assert np.array_equal(ex.compile_batch(ex.parse("2", XT), XT)(qs, ts), np.full(40, 2.0))


def test_function_table_drives_parser_and_derivatives():
    # every function of the table parses, evaluates and differentiates
    for name, fn in ex.FUNCTIONS.items():
        e = ex.parse(f"{name}(x)", XY)
        assert ex.evaluate(e, (0.7, 0.0)) == fn.scalar(0.7)
        d = ex.evaluate(ex.derive(e, "x"), (0.7, 0.0))
        fd = (fn.scalar(0.7 + 1e-6) - fn.scalar(0.7 - 1e-6)) / 2e-6
        assert d == pytest.approx(fd, rel=1e-8), name
    for unsupported in ("tan(x)", "sqrt(x)", "abs(x)"):
        with pytest.raises(ex.UnknownIdentifierError):
            ex.parse(unsupported, XY)
    with pytest.raises(ex.EvaluationDomainError):
        ex.evaluate(ex.parse("log(x)", XY), (-1.0, 0.0))


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
    return (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)


def test_random_derivatives_match_finite_differences():
    frame = ex.CoordinateFrame(("x", "y", "z"))
    rng = np.random.default_rng(20240811)
    checked = 0
    while checked < 300:
        e = random_expr(rng, frame, depth=4)
        q = tuple(rng.uniform(-2, 2, size=3))
        val = ex.evaluate(e, q)
        if not math.isfinite(val) or abs(val) > 1e6:
            continue
        i = int(rng.integers(3))
        sym = ex.evaluate(ex.derive(e, frame.names[i]), q)
        if abs(sym) > 1e6:
            continue
        fd = central_difference(e, frame, q, i, 1e-6 * (1 + abs(q[i])))
        scale = 1.0 + abs(sym)
        assert abs(sym - fd) <= 1e-5 * scale, ex.to_text(e)
        checked += 1
