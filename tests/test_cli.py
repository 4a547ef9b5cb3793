import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

import worldline.catalog as cat
import worldline.dynamics as dy
import worldline.expr as ex
import worldline.geometry as geo
from worldline import cli

import oracles

DATA = os.path.join(os.path.dirname(__file__), "data")


def invoke(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_run_report_keys_and_exit(capsys):
    code, out = invoke(["run", "--scenario", "clifton-pohl", "--t-max", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    for key in ("classification", "t_star", "t_star_halfwidth", "energy_drift",
                "killing_drift", "certificates", "marginal"):
        assert key in doc
    assert set(doc["certificates"]) >= {"c", "c1", "c2", "m"}
    assert doc["classification"] == "BlowupAt"
    assert 0.999 <= doc["t_star"] <= 1.001
    assert isinstance(doc["marginal"], bool)
    assert doc["config"]["t_max"] == 2.0


def test_run_exit_zero_for_any_classification(capsys):
    # a blowup is a successful classification, not an error
    code, _ = invoke(["run", "--scenario", "riemann-superlinear"], capsys)
    assert code == 0
    code, _ = invoke(["run", "--scenario", "flat-lorentz-torus",
                      "--t-max", "1"], capsys)
    assert code == 0


def test_run_config_errors(capsys):
    assert invoke(["run", "--scenario", "nope"], capsys)[0] == 2
    assert invoke(["run", "--scenario", "t3-magnetic", "--q", "1,2"], capsys)[0] == 2
    assert invoke(["run", "--scenario", "t3-magnetic", "--v", "a,b,c"], capsys)[0] == 2


def test_run_rejects_non_finite_config(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["run", "--scenario", "riemann-superlinear", "--output", str(out_dir)]
    for flag, value in (("--t-max", "inf"), ("--tol", "nan"), ("--v-max", "inf")):
        code, out = invoke(argv + [flag, value], capsys)
        assert code == 2, flag
        assert out == ""
    assert not out_dir.exists()


def _field_file(tmp_path, fields, metric=None, quotient=None):
    doc = {"name": "bad-field", "dimension": 2, "coordinates": ["x", "y"],
           "metric": metric or {"g_0_0": "1", "g_1_1": "1"}, "quotient": quotient,
           "domain": {"lower": [None, None], "upper": [None, None],
                      "exclude_origin_radius": None},
           "fields": dict({"F": None, "X": None, "V": None, "K": None}, **fields),
           "initial": {"q": [1.0, 0.0], "v": [1.0, 0.0]},
           "config": {"signature": "riemannian", "declared_complete": True,
                      "t_max": 2.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_non_finite_field_samples_are_refused(tmp_path, capsys):
    # log(x) is undefined on half of the unbounded chart; 1/(x-x) nowhere
    # a literal beyond the float range is inf, and so is a power of literals
    for fields, what in (({"V": "log(x)"}, "potential V"),
                         ({"X": ["1/(x-x)", "0"]}, "force vector X"),
                         ({"V": "1e999 * cos(x)"}, "potential V"),
                         ({"V": "cos(x)*(1e200)^3"}, "potential V")):
        path = _field_file(tmp_path, fields)
        for command in ("check", "run"):
            code = cli.main([command, "--scenario", path])
            captured = capsys.readouterr()
            assert code == 2, (fields, command)
            assert captured.out == ""
            assert f"{what} is not finite at (" in captured.err


def test_check_refuses_metric_indefinite_between_validation_samples(tmp_path, capsys):
    # negative in a small disc that the 100 validation samples miss but the
    # 1000 samples of the operator bound hit
    metric = {"g_0_0": "1 - 3 * exp(-4 * ((x - 1.3)^2 + (y + 2.2)^2))", "g_1_1": "1"}
    path = _field_file(tmp_path, {"F": [["0", "1"], ["0", "0"]], "X": ["x", "0"]},
                       metric=metric)
    cat.load(path)  # every validation sample sees a positive-definite metric
    assert cli.main(["check", "--scenario", path]) == 2
    assert "negative eigenvalues" in capsys.readouterr().err


def test_check_refuses_metric_indefinite_in_the_growth_ball(capsys):
    # g = 1 - x^2/2500 is positive on the sampling box |x| <= 10 and negative
    # past |x| = 50, inside the radius-100 ball the growth envelope samples
    path = os.path.join(DATA, "probe-indefinite-line.json")
    assert cli.main(["check", "--scenario", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "metric at (81.25,) has 1 negative eigenvalues, expected 0 for a riemannian spec" in err


def test_every_command_refuses_a_reference_field_not_finite_at_sample_points(capsys):
    # K = (1 + 0*log(t - 0.004), 0) is not finite where t < 0.004: at rows of
    # the 1000-point sample, at none of the 100 validation points; run and
    # sweep read the same sample through the reference speed bound
    path = os.path.join(DATA, "probe-nonfinite-K.json")
    cat.load(path)
    for argv in (["check"], ["run", "--t-max", "2"], ["sweep", "-n", "2", "--t-max", "2"]):
        assert cli.main([*argv, "--scenario", path]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert "reference field K is not finite at (0.00390625, 0.757201646090535)" in err


def test_growth_ball_of_a_chart_without_the_origin_lies_in_the_chart(capsys):
    # the log-polar flat cylinder excludes the origin, the centre of its
    # sampling box too; its growth ball is anchored at a sample point
    path = os.path.join(DATA, "probe-log-polar-cylinder.json")
    code, out = invoke(["check", "--scenario", path], capsys)
    assert code == 0 and json.loads(out)["prediction"] == "Complete"
    code, out = invoke(["run", "--scenario", path], capsys)
    assert code == 0 and json.loads(out)["classification"] == "CompleteToHorizon"


def test_check_refuses_a_quotient_that_is_not_an_isometry(tmp_path, capsys):
    path = _field_file(tmp_path, {}, metric={"g_0_0": "1 + 0.5*x", "g_1_1": "1"},
                       quotient={"lattice": [1.0, 1.0]})
    assert cli.main(["check", "--scenario", path]) == 2
    assert "quotient map is not an isometry" in capsys.readouterr().err


def test_no_command_imports_numpy_random():
    # checks sample unseeded directions, and a sweep draws its start points
    # from the stdlib generator.  t3-magnetic has a lattice quotient, a skew
    # F and a timelike K, so check draws directions for the deck isometry and
    # the skew test, and a sweep draws from the positive-form ball.
    script = (
        "import contextlib, io, sys\n"
        "from worldline import cli\n"
        "def imported(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0\n"
        "    return 'numpy.random' in sys.modules\n"
        "print(imported('check', '--scenario', 't3-magnetic'),\n"
        "      imported('run', '--scenario', 't3-magnetic', '--t-max', '5'),\n"
        "      imported('sweep', '--scenario', 't3-magnetic', '-n', '1', '--t-max', '5'))\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


def test_run_initial_override(capsys):
    code, out = invoke(["run", "--scenario", "null-plane-cubic",
                        "--q", "0,0", "--v", "0,1", "--t-max", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    # x stays 0 so the cubic force never acts: free motion, complete
    assert doc["classification"] == "CompleteToHorizon"


def test_run_writes_trajectory_and_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _ = invoke(["run", "--scenario", "t3-magnetic", "--t-max", "5",
                      "--output", str(out_dir)], capsys)
    assert code == 0
    report = json.loads((out_dir / "run_report.json").read_text())
    assert report["classification"] == "CompleteToHorizon"
    lines = (out_dir / "run_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q_1,q_2,q_3,v_1,v_2,v_3,energy_c,killing_charge,gR_speed"
    table = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert table.shape[1] == 10
    # time column is sorted and spans both directions
    assert table[0, 0] == pytest.approx(-5.0)
    assert table[-1, 0] == pytest.approx(5.0)
    assert np.all(np.diff(table[:, 0]) > 0)
    # energy column is the conserved quantity; killing charge is constant
    assert np.max(np.abs(table[:, 7] - table[0, 7])) < 1e-8
    # torus normalization keeps coordinates in the fundamental cell
    assert np.all((table[:, 1] >= 0) & (table[:, 1] < 1))


def test_run_json_format_embeds_samples(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = invoke(["run", "--scenario", "riemann-superlinear",
                        "--format", "json", "--output", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "run_report.json").read_text() == out
    doc = _strict_json(out)
    assert doc["samples"]["columns"][0] == "t"
    assert len(doc["samples"]["rows"]) > 10
    assert not (out_dir / "run_trajectory.csv").exists()
    # without a symmetry field the charge is not a number, printed as null
    charge = doc["samples"]["columns"].index("killing_charge")
    assert all(row[charge] is None for row in doc["samples"]["rows"])


def test_run_builds_the_sample_table_only_to_write_it(tmp_path, capsys, monkeypatch):
    # a bare run hands its table to no consumer; --output and --format json
    # spool it, the one to the CSV and the other to the report
    tables = []

    def integrate(*args, _f=dy.integrate_maximal, **kwargs):
        tables.append(kwargs.get("table"))
        return _f(*args, **kwargs)

    monkeypatch.setattr(dy, "integrate_maximal", integrate)
    argv = ["run", "--scenario", "clifton-pohl"]
    code, written = invoke(argv + ["--output", str(tmp_path)], capsys)
    assert code == 0 and (tmp_path / "run_trajectory.csv").exists()
    code, bare = invoke(argv, capsys)
    assert code == 0 and bare == written
    code, embedded = invoke(argv + ["--format", "json"], capsys)
    assert code == 0
    assert [type(t) for t in tables] == [cli._Spool, type(None), cli._Spool]
    rows = (tmp_path / "run_trajectory.csv").read_bytes().count(b"\n") - 1
    assert len(json.loads(embedded)["samples"]["rows"]) == rows > 0


@pytest.mark.parametrize("argv", [
    ["check", "--t-max", "5"], ["check", "--tol", "1e-3"], ["check", "--v-max", "2"],
    ["check", "--format", "json"], ["sweep", "-n", "1", "--format", "json"],
], ids=" ".join)
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main([argv[0], "--scenario", "t3-magnetic", *argv[1:]])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


def test_csv_contract_for_every_builtin(tmp_path, capsys):
    for name in cat.list_builtins():
        out_dir = tmp_path / name
        code, _ = invoke(["run", "--scenario", name, "--t-max", "1",
                          "--output", str(out_dir)], capsys)
        assert code == 0, name
        lines = (out_dir / "run_trajectory.csv").read_text().splitlines()
        n = cat.builtin(name).manifold.dim
        want = (["t"] + [f"q_{i+1}" for i in range(n)]
                + [f"v_{i+1}" for i in range(n)]
                + ["energy_c", "killing_charge", "gR_speed"])
        assert lines[0] == ",".join(want), name
        for ln in lines[1:]:
            assert len(ln.split(",")) == len(want), name
            [float(c) for c in ln.split(",")]  # parses as numbers


def test_check_exit_codes(capsys):
    for name, want in [("t3-magnetic", 0), ("flat-lorentz-torus", 0),
                       ("riemann-flat-torus", 0), ("clifton-pohl", 1),
                       ("null-plane-cubic", 1), ("riemann-superlinear", 1)]:
        code, out = invoke(["check", "--scenario", name], capsys)
        assert code == want, name
        doc = json.loads(out)
        assert doc["prediction"] == ("Complete" if want == 0 else "NoPrediction")
        assert doc["hypotheses"], name
    assert invoke(["check", "--scenario", "absent"], capsys)[0] == 2


def test_check_report_file(tmp_path, capsys):
    out_dir = tmp_path / "chk"
    code, _ = invoke(["check", "--scenario", "t3-magnetic",
                      "--output", str(out_dir)], capsys)
    assert code == 0
    doc = json.loads((out_dir / "check_report.json").read_text())
    verdicts = {h["name"]: h["verdict"] for h in doc["hypotheses"]}
    assert all(v == "pass" for v in verdicts.values())
    assert "force-operator-skew" in verdicts


def test_sweep_rejects_empty_ensemble(capsys):
    assert invoke(["sweep", "--scenario", "t3-magnetic", "-n", "0"], capsys)[0] == 2
    assert invoke(["sweep", "--scenario", "t3-magnetic", "-n", "-3"], capsys)[0] == 2
    code, out = invoke(["sweep", "--scenario", "t3-magnetic", "-n", "1", "--seed", "-1"],
                       capsys)
    assert code == 2 and out == ""


def test_sweep_deterministic_outputs(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, out = invoke(["sweep", "--scenario", "flat-lorentz-torus",
                            "-n", "5", "--seed", "3", "--t-max", "5",
                            "--output", str(out_dir)], capsys)
        assert code == 0
        outs.append(out)
        assert (out_dir / "sweep_report.json").exists()
        assert (out_dir / "sweep.csv").exists()
    assert outs[0] == outs[1]
    a, b = (tmp_path / "a"), (tmp_path / "b")
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "sweep_report.json").read_bytes() == \
           (b / "sweep_report.json").read_bytes()


def test_sweep_report_contents(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    code, out = invoke(["sweep", "--scenario", "flat-lorentz-torus",
                        "-n", "4", "--seed", "1", "--t-max", "5",
                        "--output", str(out_dir)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["seed"] == 1
    assert sum(doc["counts"].values()) == 4
    assert len(doc["classifications"]) == 4
    assert doc["counts"] == {"CompleteToHorizon": 4}
    assert doc["max_energy_drift"] <= 1e-8
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("index,q_1,q_2,v_1,v_2,classification")
    assert len(lines) == 5


def test_sweep_matches_golden_clifton_pohl(capsys):
    code, out = invoke(["sweep", "--scenario", "clifton-pohl",
                        "-n", "50", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    with open(os.path.join(DATA, "clifton_pohl_sweep_seed7.json")) as fh:
        golden = json.load(fh)
    assert doc["classifications"] == golden["classifications"]
    assert doc["counts"] == golden["counts"]
    assert doc["counts"].get("BlowupAt", 0) >= 1


def test_scenario_file_round_trip_through_cli(tmp_path, capsys):
    path = tmp_path / "custom.json"
    cat.save(cat.builtin("null-plane-cubic"), path)
    code, out = invoke(["run", "--scenario", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["classification"] == "BlowupAt"


def _builtin_file(tmp_path, name, edit):
    """A built-in scenario written to a file after ``edit(doc)``."""
    doc = cat.scenario_to_dict(cat.builtin(name))
    edit(doc)
    path = tmp_path / f"{name}-edited.json"
    path.write_text(json.dumps(doc))  # non-finite floats become Infinity
    return str(path)


def test_non_finite_quotients_are_refused(tmp_path, capsys):
    for name, quotient in (("flat-lorentz-torus", {"lattice": [float("inf"), 1.0]}),
                           ("clifton-pohl", {"scaling": float("inf")})):
        path = _builtin_file(tmp_path, name, lambda doc: doc.update(quotient=quotient))
        for command in ("check", "run"):
            code = cli.main([command, "--scenario", path])
            captured = capsys.readouterr()
            assert code == 2, (name, command)
            assert captured.out == ""
            assert "finite" in captured.err


def _division_chain(k):
    """3 + sin(2 pi x)/(2 + cos(2 pi y))/... with k divisions, 7 + k levels
    deep: sin(2*pi*x) is 4 deep, the first division 1 + 6 (its parenthesised
    denominator), each further division 1 and the sum 1.  The derivative of
    each division holds the derivative of the one before it three levels
    down, so its derivatives, and the accelerations built from them, are
    about three times as deep."""
    return "3 + sin(2*pi*x)" + "/(2 + cos(2*pi*y))" * k


def test_expression_depth_is_bounded_at_parse_time(tmp_path, capsys):
    def metric(text):
        return lambda doc: doc["metric"].update(g_1_1=text)

    at_bound = _builtin_file(tmp_path, "riemann-flat-torus",
                             metric(_division_chain(ex.MAX_DEPTH - 7)))
    code, out = invoke(["check", "--scenario", at_bound], capsys)
    assert code == 0 and json.loads(out)["prediction"] == "Complete"
    code, out = invoke(["run", "--scenario", at_bound, "--t-max", "0.5"], capsys)
    assert code == 0 and json.loads(out)["classification"] == "CompleteToHorizon"

    too_deep = [metric(_division_chain(ex.MAX_DEPTH - 6)),
                metric(" + ".join(["1"] + ["0.0001*x"] * 1499)),
                lambda doc: doc["fields"].update(V="cos(" + "(" * 2000 + "x" + ")" * 2000 + ")")]
    for edit in too_deep:
        path = _builtin_file(tmp_path, "riemann-flat-torus", edit)
        for command in ("check", "run"):
            code = cli.main([command, "--scenario", path])
            assert code == 2, command
            assert f"more than {ex.MAX_DEPTH} levels" in capsys.readouterr().err


def _set(path, value):
    """An edit that puts ``value`` at the key path ``path`` of a document."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _as_pairs(key):
    """An edit that gives the object under ``key`` as a list of pairs."""
    return lambda doc: doc.update({key: [list(item) for item in doc[key].items()]})


@pytest.mark.parametrize("edit, message", [
    pytest.param(_set(("config", "t_max"), "abc"),
                 "t_max must be a finite number, got 'abc'", id="t_max-string"),
    pytest.param(_set(("config", "stride"), "2"),
                 "stride must be an integer >= 1, got '2'", id="stride-string"),
    pytest.param(_set(("config", "stride"), 1.5),
                 "stride must be an integer >= 1, got 1.5", id="stride-fraction"),
    pytest.param(_set(("config", "sweep_velocity_radius"), "x"),
                 "sweep_velocity_radius must be a JSON number, got 'x'", id="radius-string"),
    pytest.param(_set(("initial", "q"), ["a"]),
                 "initial q must be a JSON number, got 'a'", id="initial-string"),
    pytest.param(_set(("coordinates",), [1]),
                 "coordinate name 1 is not an identifier", id="coordinate-number"),
    pytest.param(_set(("quotient",), {"lattice": ["a"]}),
                 "lattice period must be a JSON number, got 'a'", id="period-string"),
    pytest.param(_set(("domain", "lower"), ["a"]),
                 "domain bound must be a JSON number, got 'a'", id="bound-string"),
    pytest.param(_set(("domain", "lower"), []),
                 "chart domain bounds must match the dimension", id="bounds-empty"),
    pytest.param(_set(("domain", "exclude_origin_radius"), "x"),
                 "exclude_origin_radius must be a JSON number, got 'x'", id="exclusion-string"),
    pytest.param(_set(("domain", "exclude_origin_radius"), float("nan")),
                 "exclude_origin_radius must be finite and >= 0, got nan", id="exclusion-nan"),
    pytest.param(_set(("name",), [1]), "name must be a string, got [1]", id="name-list"),
    pytest.param(_as_pairs("config"), "'config' must be a JSON object", id="config-list"),
    pytest.param(_as_pairs("fields"), "'fields' must be a JSON object", id="fields-list"),
    pytest.param(_as_pairs("initial"), "'initial' must be a JSON object", id="initial-list"),
    pytest.param(_set(("config", "declared_complete"), "no"),
                 "declared_complete must be true or false, got 'no'", id="declared-string"),
    pytest.param(_set(("fields", "f"), ["x^2"]), "unknown key 'f' in 'fields'",
                 id="fields-unknown"),
    pytest.param(_set(("config", "tmax"), 5.0), "unknown key 'tmax' in 'config'",
                 id="config-unknown"),
    pytest.param(_set(("metrics",), {}), "unknown key 'metrics' at the top level",
                 id="top-unknown"),
    pytest.param(_set(("domain", "exclude_radius"), 1.0),
                 "unknown key 'exclude_radius' in 'domain'", id="domain-unknown"),
    pytest.param(_set(("initial", "t"), 0.0), "unknown key 't' in 'initial'",
                 id="initial-unknown"),
])
def test_malformed_files_exit_two_with_a_message(tmp_path, capsys, edit, message):
    path = _builtin_file(tmp_path, "riemann-superlinear", edit)
    for argv in (["run"], ["sweep", "-n", "1"], ["check"]):
        code = cli.main(argv + ["--scenario", path])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert message in captured.err


def _strict_json(text):
    """The document, refusing the NaN and Infinity tokens that are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_start_data_exit_two_with_a_message(tmp_path, capsys):
    nan_file = _builtin_file(tmp_path, "flat-lorentz-torus",
                             _set(("initial", "v"), [float("nan"), 0.3]))
    torus = "flat-lorentz-torus"
    cases = [(torus, ["--v", "nan,0.3"], "v = (nan, 0.3)"),
             (torus, ["--v", "inf,0.3"], "v = (inf, 0.3)"),
             (torus, ["--q", "1e400,0"], "q = (inf, 0.0)"),
             (torus, ["--v", "1e200,0"], "initial speed nan"),
             (nan_file, [], "v = (nan, 0.3)")]
    for source, extra, message in cases:
        code = cli.main(["run", "--scenario", source, *extra])
        captured = capsys.readouterr()
        assert code == 2, extra
        assert captured.out == ""
        assert message in captured.err, extra


@pytest.mark.parametrize("command", [["check"], ["run"], ["sweep", "-n", "1"]],
                         ids=lambda argv: argv[0])
def test_non_finite_initial_data_in_a_file_is_refused(command, tmp_path, capsys):
    # every command loads the file, and the load refuses it
    for key, value, shown in (("q", [float("nan"), 0.0], "q = (nan, 0.0)"),
                              ("v", [float("nan"), 0.3], "v = (nan, 0.3)"),
                              ("v", [1.0, float("-inf")], "v = (1.0, -inf)")):
        path = _builtin_file(tmp_path, "flat-lorentz-torus", _set(("initial", key), value))
        code = cli.main([command[0], "--scenario", path, *command[1:]])
        captured = capsys.readouterr()
        assert code == 2, (key, value)
        assert captured.out == ""
        assert f"initial.{key} must be finite" in captured.err and shown in captured.err


def test_overflowing_first_step_estimate_is_classified(tmp_path, capsys):
    # the slope at the start is 1e200: its scaled square overflows
    path = _builtin_file(tmp_path, "riemann-superlinear",
                         _set(("fields", "X"), ["1e200 * x^2"]))
    verdicts = {"StalledAt", "BlowupAt"}
    code, out = invoke(["run", "--scenario", path], capsys)
    assert code == 0
    assert _strict_json(out)["classification"] in verdicts
    code, out = invoke(["sweep", "--scenario", path, "-n", "2"], capsys)
    assert code == 0
    assert set(_strict_json(out)["classifications"]) <= verdicts


def test_overflowing_error_norm_is_an_error_control_rejection(tmp_path, capsys):
    # x'' = 1e43 x^2 from x = v = 1.  The run tries a step of 1e-11, whose
    # new state is finite but its slope is not, then one of 2e-12, whose
    # stages and new state are all finite and only a scaled error overflows
    # when squared.  Both errors are infinite: error control rejects the
    # steps until they collapse below h_min
    path = _builtin_file(tmp_path, "riemann-superlinear",
                         _set(("fields", "X"), ["1e43 * x^2"]))
    s = cat.load(path)
    err, y5, k7 = oracles.single_step(dy.compiled_system(s.manifold, s.fields))(
        0.0, 2e-12, (1.0, 1.0), (1.0, 1e43), 1e-12, 1e-10)
    assert err == math.inf and all(map(math.isfinite, y5 + k7))
    code, out = invoke(["run", "--scenario", path], capsys)
    assert code == 0
    doc = _strict_json(out)
    assert doc["classification"] == "BlowupAt"
    assert doc["detail"] == "step collapse under error control"


def test_overflowing_stage_is_an_error_control_rejection(tmp_path, capsys):
    # x'' = 1e60 x^2 from x = v = 1.  A stage of a step of 1e-9 raises in
    # the square: an infinite slope, which error control rejects, as it
    # does an error norm that overflows, until the steps collapse below h_min
    path = _builtin_file(tmp_path, "riemann-superlinear",
                         lambda doc: doc["fields"].update(X=["1e60 * x^2"], V=None))
    s = cat.load(path)
    sysd = dy.compiled_system(s.manifold, s.fields)
    y = (1.0, 1.0)
    step = oracles.single_step(sysd)
    assert step(0.0, 1e-9, y, sysd.rhs_flat(0.0, y), 1e-12, 1e-10) == (math.inf, None, None)
    code, out = invoke(["run", "--scenario", path], capsys)
    assert code == 0
    doc = _strict_json(out)
    assert doc["classification"] == "BlowupAt"
    assert doc["detail"] == "step collapse under error control"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_output_streams_in_bounded_memory(fmt, tmp_path, capsys):
    # run spools its sample table block by block, to the CSV of --output or
    # to the report of --format json, so the peak of the run does not grow
    # with the horizon; at t_max = 300 the table's float columns alone
    # would take 2.5 MB.  stdout goes to a file, not to a capture buffer
    # that would hold the JSON report's text.
    def peak(t_max):
        out = tmp_path / t_max
        tracemalloc.start()
        try:
            with open(tmp_path / f"{t_max}.out", "w") as fh, contextlib.redirect_stdout(fh):
                code = cli.main(["run", "--scenario", "t3-magnetic", "--t-max", t_max,
                                 "--format", fmt, "--output", str(out)])
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        if fmt == "json":
            return top, len(json.loads((out / "run_report.json").read_bytes())["samples"]["rows"])
        return top, (out / "run_trajectory.csv").read_bytes().count(b"\n") - 1

    peak("1")  # compiles the system and fills the sampled-check caches
    (short, _), (long, rows) = peak("30"), peak("300")
    capsys.readouterr()
    assert rows > 30000
    assert long <= short + 1024 * 1024, (short, long)


def test_run_closes_its_spool_files_and_writes_nothing_on_failure(tmp_path, capsys,
                                                                  monkeypatch):
    spooled = []

    def spool_file(*args, _f=tempfile.TemporaryFile, **kwargs):
        spooled.append(_f(*args, **kwargs))
        return spooled[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", spool_file)
    monkeypatch.setattr(dy, "_BLOCK", 7)
    argv = ["run", "--scenario", "clifton-pohl", "--output"]
    code, _ = invoke([*argv, str(tmp_path / "ok")], capsys)
    assert code == 0 and (tmp_path / "ok" / "run_trajectory.csv").exists()
    assert spooled and all(fh.closed for fh in spooled)
    code, _ = invoke([*argv, str(tmp_path / "json"), "--format", "json"], capsys)
    assert code == 0 and len(spooled) == 4 and all(fh.closed for fh in spooled)

    calls = []

    def fails_on_the_third_block(*args, _f=dy._evaluate):
        calls.append(args)
        if len(calls) == 3:
            raise geo.DegenerateMetricError("metric is degenerate")
        return _f(*args)

    # a start refused at once, and a failure after blocks were spooled
    for name, extra, evaluate in (("refused", ["--v", "1e9,0"], dy._evaluate),
                                  ("failed", [], fails_on_the_third_block)):
        monkeypatch.setattr(dy, "_evaluate", evaluate)
        code = cli.main([*argv, str(tmp_path / name), *extra])
        assert code == 2 and "error:" in capsys.readouterr().err, name
        assert not (tmp_path / name).exists(), name
        assert all(fh.closed for fh in spooled), name
    assert len(spooled) == 8  # two per run: ok, json, refused, failed


@pytest.mark.parametrize("argv", [["run"], ["check"], ["sweep", "-n", "1", "--t-max", "1"]],
                         ids=lambda argv: argv[0])
def test_output_naming_a_file_exits_two_before_printing(argv, tmp_path, capsys):
    # the directory is made and the report file opened before stdout gets
    # a byte, so a report is never printed for a run that then fails
    path = tmp_path / "file"
    path.write_text("kept\n")
    code = cli.main([*argv, "--scenario", "clifton-pohl", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")
    assert path.read_text() == "kept\n"


def test_run_monitors_agree_with_check_on_a_narrow_bump(tmp_path, capsys):
    # F fails to be skew only on a band about 1e-4 wide in x, which the
    # first 200 sample points miss and the first 1000 hit
    path = _builtin_file(tmp_path, "flat-lorentz-torus", _set(
        ("fields", "F"), [["0", "0"], ["0", "exp(-((x - 0.0508)/0.0001)^2)"]]))
    code, out = invoke(["check", "--scenario", path], capsys)
    assert code == 1
    skew = next(h for h in json.loads(out)["hypotheses"]
                if h["name"] == "force-operator-skew")
    assert skew["verdict"] == "fail"
    code, out = invoke(["run", "--scenario", path, "--t-max", "1"], capsys)
    assert code == 0
    assert json.loads(out)["energy_conserved_quantity"] is False
