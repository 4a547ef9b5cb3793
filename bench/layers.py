"""Per-layer tracing of one worldline process, wrapped from outside the program.

``install`` replaces public functions of the worldline modules with timing
wrappers.  Each call becomes a span; a span's self time is its duration minus
the time covered by the spans it directly encloses.  Spans are aggregated in
memory by their path (the chain of enclosing span names) and written out when
the process ends.  ``layer_metrics`` turns the aggregate of one pass over a
workload's commands into the per-layer metrics.

A hook point that no longer exists, or one that the program stops reaching
while the work around it still runs, raises ``HookError``: the benchmark then
fails instead of reporting a zero for that layer.
"""

from __future__ import annotations

import time


class HookError(RuntimeError):
    """A place the tracer hooks into is gone or is no longer reached."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []   # open spans: [path, start, time covered by children]
        self.spans = {}    # path -> [calls, total seconds, self seconds]
        self.counts = {}   # counter name -> int

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result)`` runs outside the span."""
        stack, spans, clock = self._stack, self.spans, self.clock

        def traced(*args, **kwargs):
            frame = [f"{stack[-1][0]}/{name}" if stack else name, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                rec = spans.get(frame[0])
                if rec is None:
                    rec = spans[frame[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _patch(tracer: Tracer, module, attr: str, after=None):
    if not callable(getattr(module, attr, None)):
        raise HookError(f"hook point {module.__name__}.{attr} no longer exists")
    name = f"{module.__name__.split('.')[-1]}.{attr}"
    setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))


# Attributes of the object compiled_system returns that the step loop calls.
_SYSTEM_CALLS = (("kernel", "dynamics.kernel"), ("rhs_flat", "dynamics.rhs_flat"),
                 ("speed_sq", "dynamics.speed_sq"))


def install(tracer: Tracer):
    """Wrap the worldline layers; returns the wrapped ``cli.main``."""
    from worldline import catalog, cli, criteria, dynamics, expr, fields, geometry, sampling

    seen = set()

    def on_system(sysd):
        if id(sysd) in seen:
            return
        seen.add(id(sysd))
        for attr, name in _SYSTEM_CALLS:
            if not callable(getattr(sysd, attr, None)):
                raise HookError(f"hook point compiled_system(...).{attr} no longer exists")
            setattr(sysd, attr, tracer.wrap(name, getattr(sysd, attr)))
        if not hasattr(sysd, "kernel_source"):
            raise HookError("compiled_system(...).kernel_source no longer exists")
        # None means the generic stepper (dimension above the symbolic limit)
        tracer.count("dynamics.kernel_source_chars", len(sysd.kernel_source or ""))

    def on_result(result):
        try:
            directions = (result.forward, result.backward)
            tracer.count("dynamics.accepted_steps", sum(d.accepted for d in directions))
            tracer.count("dynamics.rejected_steps", sum(d.rejected for d in directions))
            tracer.count("dynamics.samples_kept", len(result.states))
        except AttributeError as err:
            raise HookError(f"trajectory result no longer carries {err.name}") from err

    def on_report(report):
        tracer.count("criteria.samples", sum(h.samples for h in report.hypotheses))

    hooks = [
        (catalog, "resolve", None), (expr, "compile_source", None),
        (dynamics, "compiled_system", on_system),
        (dynamics, "integrate_maximal", on_result),
        (dynamics, "energy_monitor", None), (dynamics, "killing_charge_monitor", None),
        (dynamics, "certificate", None), (geometry, "normalize_qv", None),
        (sampling, "sample_predicate", None), (criteria, "evaluate", on_report),
        # the sampled checkers: criteria.*_s is their time inside evaluate
        (fields, "is_skew_adjoint", None), (fields, "conformal_report", None),
        (fields, "is_timelike_everywhere", None), (fields, "annihilates", None),
        (criteria, "estimate_S_bounds", None), (criteria, "check_linear_growth", None),
        (criteria, "check_quadratic_growth", None),
        (fields, "invariant_norms", None), (cli, "main", None),
    ]
    for module, attr, after in hooks:
        _patch(tracer, module, attr, after)
    return cli.main


# --- derivation --------------------------------------------------------------

def _select(spans: dict, name: str, under: str | None = None):
    """(calls, total, self) summed over the spans named ``name``."""
    calls = total = own = 0.0
    for path, (c, t, s) in spans.items():
        parts = path.split("/")
        if parts[-1] == name and (under is None or under in parts[:-1]):
            calls += c
            total += t
            own += s
    return int(calls), total, own


def _per(total_s: float, calls: int) -> float:
    """Microseconds per call; 0 when the call never happened."""
    return 1e6 * total_s / calls if calls else 0.0


# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "worldline.import_s": "s",
    "catalog.resolve_s": "s",
    "dynamics.compile_s": "s",
    "expr.compile_calls": "count",
    "expr.compile_s": "s",
    "dynamics.kernel_source_chars": "count",
    "dynamics.integrate_s": "s",
    "dynamics.accepted_steps": "count",
    "dynamics.rejected_steps": "count",
    "dynamics.step_us": "us",
    "dynamics.kernel_calls": "count",
    "dynamics.kernel_us": "us",
    "dynamics.rhs_calls": "count",
    "dynamics.speed_us": "us",
    "dynamics.controller_us": "us",
    "geometry.normalize_qv_calls": "count",
    "geometry.normalize_qv_us": "us",
    "dynamics.samples_kept": "count",
    "dynamics.monitor_s": "s",
    "dynamics.certificate_s": "s",
    "criteria.evaluate_s": "s",
    "criteria.skew_s": "s",
    "criteria.conformal_s": "s",
    "criteria.timelike_s": "s",
    "criteria.annihilates_s": "s",
    "criteria.S_bounds_s": "s",
    "criteria.linear_growth_s": "s",
    "criteria.quadratic_growth_s": "s",
    "criteria.samples": "count",
    "sampling.sample_predicate_s": "s",
    "fields.invariant_norms_calls": "count",
    "fields.invariant_norms_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "unattributed_s": "s",
    "trace.overhead_pct": "%",
}

# Exact counts: identical on every pass over the same inputs.
COUNTS = tuple(k for k, unit in LAYER_UNITS.items() if unit == "count")


def layer_metrics(spans: dict, counts: dict, wall_s: float, import_s: float,
                  bytes_written: int) -> dict:
    """Per-layer figures of one traced pass; every name of LAYER_UNITS but the
    overhead, which needs the untraced pass too."""
    integrate = _select(spans, "dynamics.integrate_maximal")
    kernel = _select(spans, "dynamics.kernel", "dynamics.integrate_maximal")
    rhs = _select(spans, "dynamics.rhs_flat", "dynamics.integrate_maximal")
    speed = _select(spans, "dynamics.speed_sq", "dynamics.integrate_maximal")
    normalize = _select(spans, "geometry.normalize_qv")
    compile_ = _select(spans, "expr.compile_source")
    norms = _select(spans, "fields.invariant_norms")
    root = _select(spans, "cli.main")
    if integrate[0] and not kernel[0]:
        raise HookError("trajectories were integrated without a call to "
                        "compiled_system(...).kernel")
    if counts.get("dynamics.accepted_steps", 0) and not _select(
            spans, "geometry.normalize_qv", "dynamics.integrate_maximal")[0]:
        raise HookError("accepted steps were taken without a call to geometry.normalize_qv")

    def under_criteria(name):
        return _select(spans, name, "criteria.evaluate")[1]

    accepted = counts.get("dynamics.accepted_steps", 0)
    out = {
        "worldline.import_s": import_s,
        "catalog.resolve_s": _select(spans, "catalog.resolve")[1],
        "dynamics.compile_s": _select(spans, "dynamics.compiled_system")[1],
        "expr.compile_calls": compile_[0],
        "expr.compile_s": compile_[1],
        "dynamics.kernel_source_chars": counts.get("dynamics.kernel_source_chars", 0),
        "dynamics.integrate_s": integrate[1],
        "dynamics.accepted_steps": accepted,
        "dynamics.rejected_steps": counts.get("dynamics.rejected_steps", 0),
        "dynamics.step_us": _per(integrate[1], accepted),
        "dynamics.kernel_calls": kernel[0],
        "dynamics.kernel_us": _per(kernel[1], kernel[0]),
        "dynamics.rhs_calls": rhs[0],
        "dynamics.speed_us": _per(speed[1], speed[0]),
        # the step loop's own time: integrate self time, that is, minus the
        # kernel, rhs, speed and normalize spans it encloses
        "dynamics.controller_us": _per(integrate[2], kernel[0]),
        "geometry.normalize_qv_calls": normalize[0],
        "geometry.normalize_qv_us": _per(normalize[1], normalize[0]),
        "dynamics.samples_kept": counts.get("dynamics.samples_kept", 0),
        "dynamics.monitor_s": (_select(spans, "dynamics.energy_monitor")[1]
                               + _select(spans, "dynamics.killing_charge_monitor")[1]),
        "dynamics.certificate_s": _select(spans, "dynamics.certificate")[1],
        "criteria.evaluate_s": _select(spans, "criteria.evaluate")[1],
        "criteria.skew_s": under_criteria("fields.is_skew_adjoint"),
        "criteria.conformal_s": under_criteria("fields.conformal_report"),
        "criteria.timelike_s": under_criteria("fields.is_timelike_everywhere"),
        "criteria.annihilates_s": under_criteria("fields.annihilates"),
        "criteria.S_bounds_s": under_criteria("criteria.estimate_S_bounds"),
        "criteria.linear_growth_s": under_criteria("criteria.check_linear_growth"),
        "criteria.quadratic_growth_s": under_criteria("criteria.check_quadratic_growth"),
        "criteria.samples": counts.get("criteria.samples", 0),
        "sampling.sample_predicate_s": _select(spans, "sampling.sample_predicate")[1],
        "fields.invariant_norms_calls": norms[0],
        "fields.invariant_norms_s": norms[1],
        "cli.self_s": root[2],
        "cli.bytes_written": bytes_written,
        # interpreter start-up and process exit: not inside any layer span
        "unattributed_s": wall_s - import_s - root[1],
    }
    return out
