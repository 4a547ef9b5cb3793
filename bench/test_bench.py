"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest bench -q"""

import json
import statistics

import pytest

import layers
import stats
import workloads


# --- percentiles and spreads ---------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(1000) == 90
    assert stats.tail_percentile(58) == 82      # 58 * 0.18 = 10.4 beyond
    assert stats.tail_percentile(51) == 80
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(0) is None
    for n in range(20, 300):
        p = stats.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 - 1e-9
        if p < 90:
            assert n * (100 - (p + 1)) / 100 < 10


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 102))  # 1..101
    assert stats.percentile(values, 90) == 91.0
    assert stats.percentile([4.0, 1.0], 50) == 2.5
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile(values, 50) == statistics.median(values)


# --- error rate ---------------------------------------------------------------

def test_error_rate_counts_failed_over_attempted():
    assert stats.error_rate(0, 58) == 0.0
    assert stats.error_rate(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(5, 4)


def _expected(source, cls="BlowupAt", pred="NoPrediction"):
    return {source: {"name": source, "classification": cls, "prediction": pred}}


def test_correctness_gate_counts_each_kind_of_failure(tmp_path):
    check = workloads.Command("check", "clifton-pohl")
    run = workloads.Command("run", "clifton-pohl", trajectories=1)
    exp = _expected("clifton-pohl")
    ok_check = json.dumps({"prediction": "NoPrediction"}).encode()
    assert workloads.check_outputs(check, 1, ok_check, str(tmp_path), exp) == []
    # NoPrediction must exit 1; a wrong exit code is a failure on its own
    assert workloads.check_outputs(check, 0, ok_check, str(tmp_path), exp)
    wrong = json.dumps({"prediction": "Complete"}).encode()
    assert workloads.check_outputs(check, 1, wrong, str(tmp_path), exp)
    good_run = json.dumps({"classification": "BlowupAt", "t_star": 0.99}).encode()
    assert workloads.check_outputs(run, 0, good_run, str(tmp_path), exp) == []
    no_t_star = json.dumps({"classification": "BlowupAt", "t_star": None}).encode()
    assert workloads.check_outputs(run, 0, no_t_star, str(tmp_path), exp)
    contradicts = json.dumps({"classification": "CompleteToHorizon"}).encode()
    assert workloads.check_outputs(run, 0, contradicts, str(tmp_path), exp)


def test_correctness_gate_on_sweeps(tmp_path):
    sweep = workloads.Command("sweep", "t3-magnetic", trajectories=2, all_complete=True)
    exp = _expected("t3-magnetic", "CompleteToHorizon", "Complete")
    report = json.dumps({"certificates_consistent": True}).encode()
    header = "index,classification,t_star\n"
    (tmp_path / "sweep.csv").write_text(header + "0.0,CompleteToHorizon,nan\n"
                                        "1.0,CompleteToHorizon,nan\n")
    assert workloads.check_outputs(sweep, 0, report, str(tmp_path), exp) == []
    inconsistent = json.dumps({"certificates_consistent": None}).encode()
    assert workloads.check_outputs(sweep, 0, inconsistent, str(tmp_path), exp)
    (tmp_path / "sweep.csv").write_text(header + "0.0,CompleteToHorizon,nan\n"
                                        "1.0,BlowupAt,nan\n")
    problems = workloads.check_outputs(sweep, 0, report, str(tmp_path), exp)
    assert len(problems) == 2  # non-finite t_star, and not all complete


# --- spans and self time ------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_directly_enclosed_spans():
    clock = FakeClock()
    tr = layers.Tracer(clock)

    def kernel():
        clock.now += 2.0

    def normalize():
        clock.now += 0.5

    kernel = tr.wrap("dynamics.kernel", kernel)
    normalize = tr.wrap("geometry.normalize_qv", normalize)

    def integrate():
        for _ in range(3):
            clock.now += 1.0   # controller work
            kernel()
            normalize()

    tr.wrap("dynamics.integrate_maximal", integrate)()
    top = tr.spans["dynamics.integrate_maximal"]
    assert top == [1, 10.5, 3.0]
    assert tr.spans["dynamics.integrate_maximal/dynamics.kernel"] == [3, 6.0, 6.0]
    assert tr.spans["dynamics.integrate_maximal/geometry.normalize_qv"] == [3, 1.5, 1.5]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = layers.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tr.wrap("dynamics.kernel", boom)()
    assert tr.spans["dynamics.kernel"] == [1, 1.0, 1.0]
    assert tr._stack == []


def _integrate_spans(kernel_calls):
    spans = {"cli.main": [1, 20.0, 2.0],
             "cli.main/dynamics.integrate_maximal": [1, 16.0, 4.0],
             "cli.main/dynamics.integrate_maximal/geometry.normalize_qv": [8, 2.0, 2.0]}
    if kernel_calls:
        spans["cli.main/dynamics.integrate_maximal/dynamics.kernel"] = [kernel_calls, 10.0, 10.0]
    return spans


def test_layer_metrics_controller_and_unattributed():
    counts = {"dynamics.accepted_steps": 8}
    m = layers.layer_metrics(_integrate_spans(10), counts, wall_s=21.5, import_s=1.0,
                             bytes_written=7)
    assert m["dynamics.controller_us"] == pytest.approx(1e6 * 4.0 / 10)
    assert m["dynamics.kernel_us"] == pytest.approx(1e6 * 10.0 / 10)
    assert m["dynamics.step_us"] == pytest.approx(1e6 * 16.0 / 8)
    assert m["cli.self_s"] == 2.0
    assert m["unattributed_s"] == pytest.approx(0.5)
    assert set(m) == set(layers.LAYER_UNITS) - {"trace.overhead_pct"}


def test_layer_metrics_fail_loudly_when_the_kernel_is_not_reached():
    with pytest.raises(layers.HookError):
        layers.layer_metrics(_integrate_spans(0), {"dynamics.accepted_steps": 8},
                             wall_s=21.5, import_s=1.0, bytes_written=0)


def test_missing_hook_point_fails_loudly():
    import types
    tr = layers.Tracer()
    module = types.ModuleType("worldline.dynamics")
    with pytest.raises(layers.HookError, match="compiled_system"):
        layers._patch(tr, module, "compiled_system")
