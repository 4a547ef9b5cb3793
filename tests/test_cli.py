import json
import os

import numpy as np
import pytest

import worldline.catalog as cat
from worldline import cli

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


def _field_file(tmp_path, fields, metric=None):
    doc = {"name": "bad-field", "dimension": 2, "coordinates": ["x", "y"],
           "metric": metric or {"g_0_0": "1", "g_1_1": "1"}, "quotient": None,
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
    for fields, what in (({"V": "log(x)"}, "potential V"),
                         ({"X": ["1/(x-x)", "0"]}, "force vector X")):
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
    doc = json.loads((out_dir / "run_report.json").read_text())
    assert doc["samples"]["columns"][0] == "t"
    assert len(doc["samples"]["rows"]) > 10
    assert not (out_dir / "run_trajectory.csv").exists()


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
