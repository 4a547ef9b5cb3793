"""Byte pins of the check, run and sweep reports of every built-in scenario
and of a dimension-5 scenario file.

Each input is checked and run at its own configuration.  The check report
and the run report must match the stored files byte for byte; the run's
trajectory CSV is pinned by its sha256 and row count, and the stdout of
``run --format json``, which embeds the sample table, by its sha256 and
line count.  Each input is also swept once with a small ensemble: sweeps
draw seeded start points, which ``run`` never does.  The sweep report is pinned byte for byte and
``sweep.csv`` by its sha256 and row count.  The generated source of each
input's compiled system, ``kernel_source``, is pinned by its sha256 and
line count.  A change that moves bytes on purpose regenerates these files
and the golden clifton-pohl sweep that ``test_cli.py`` compares with, and
shows the moved values in the diff of ``tests/data``:

    PYTHONPATH=src python tests/test_reports_pinned.py
"""

import contextlib
import difflib
import hashlib
import io
import json
import os

import pytest

import worldline.catalog as cat
import worldline.dynamics as dy
from worldline import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
REPORTS = os.path.join(DATA, "reports")
CSV_PINS = os.path.join(REPORTS, "trajectory_csv.json")
JSON_PINS = os.path.join(REPORTS, "trajectory_json.json")
SWEEP_CSV_PINS = os.path.join(REPORTS, "sweep_csv.json")
KERNEL_PINS = os.path.join(REPORTS, "kernel_source.json")
# The golden sweep: its arguments and the report keys it keeps.
GOLDEN = os.path.join(DATA, "clifton_pohl_sweep_seed7.json")
GOLDEN_SWEEP = ["--scenario", "clifton-pohl", "-n", "50", "--seed", "7"]
GOLDEN_KEYS = ("classifications", "counts", "n", "scenario", "seed")
# The dimension-5 file is the only input stepped above the symbolic limit.
INPUTS = [*cat.list_builtins(), os.path.join(DATA, "curved-5d.json")]
# Sweep arguments per input, small enough to keep the test to a few seconds.
SWEEPS = {
    "t3-magnetic": ["-n", "2", "--t-max", "30"],
    "clifton-pohl": ["-n", "10", "--seed", "5"],
    "flat-lorentz-torus": ["-n", "3"],
    "riemann-flat-torus": ["-n", "3", "--t-max", "20"],
    "null-plane-cubic": ["-n", "5"],
    "riemann-superlinear": ["-n", "5"],
    "curved-5d": ["-n", "1"],
}


def _name(source):
    """Pin name of an input: the built-in name or the file's stem."""
    return os.path.splitext(os.path.basename(source))[0]


def _pin(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": data.count(b"\n") - 1}


def _line_pin(data: bytes) -> dict:
    return {"lines": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}


def _json_stdout(source) -> bytes:
    """The stdout of ``run --format json`` on one input."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["run", "--scenario", source, "--format", "json"]) == 0
    return out.getvalue().encode()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def _assert_pinned(got: bytes, path):
    """``got`` is strict JSON, without NaN or Infinity tokens, and equals the
    file at ``path`` byte for byte; a failure shows the moved lines as a
    unified diff."""
    json.loads(got, parse_constant=_refuse)
    want = _read(path)
    assert got == want, "".join(difflib.unified_diff(
        want.decode().splitlines(keepends=True), got.decode().splitlines(keepends=True),
        path, "this run"))


def _outputs(source, workdir):
    """(check report bytes, run report bytes, csv pin) of one input."""
    name = _name(source)
    check_dir = os.path.join(workdir, name, "check")
    run_dir = os.path.join(workdir, name, "run")
    cli.main(["check", "--scenario", source, "--output", check_dir])
    assert cli.main(["run", "--scenario", source, "--output", run_dir]) == 0
    return (_read(os.path.join(check_dir, "check_report.json")),
            _read(os.path.join(run_dir, "run_report.json")),
            _pin(_read(os.path.join(run_dir, "run_trajectory.csv"))))


def _kernel_pin(source) -> dict:
    """The pin of the generated source of one input's compiled system."""
    s = cat.resolve(source)
    return _line_pin(dy.compiled_system(s.manifold, s.fields).kernel_source.encode())


def _sweep_outputs(source, workdir):
    """(sweep report bytes, sweep csv pin) of one input."""
    out = os.path.join(workdir, _name(source), "sweep")
    assert cli.main(["sweep", "--scenario", source, *SWEEPS[_name(source)],
                     "--output", out]) == 0
    return (_read(os.path.join(out, "sweep_report.json")),
            _pin(_read(os.path.join(out, "sweep.csv"))))


@pytest.mark.parametrize("source", INPUTS, ids=_name)
def test_reports_match_pins(source, tmp_path, capsys):
    name = _name(source)
    check, run, pin = _outputs(source, str(tmp_path))
    capsys.readouterr()
    _assert_pinned(check, os.path.join(REPORTS, f"{name}_check.json"))
    _assert_pinned(run, os.path.join(REPORTS, f"{name}_run.json"))
    with open(CSV_PINS) as fh:
        assert pin == json.load(fh)[name], name


@pytest.mark.parametrize("block", [1, 7, 512, 4096])
@pytest.mark.parametrize("source", INPUTS, ids=_name)
def test_trajectory_csv_pins_hold_for_any_block_size(source, block, tmp_path, capsys,
                                                     monkeypatch):
    # blocks of 1 and 7 rows put block edges, and the reversal of the
    # backward blocks, where the default block size (512) rarely reaches; in
    # the JSON table they also fall on the separators between rows.  Every
    # block goes through the table writer process, at 4096 rows too
    monkeypatch.setattr(dy, "_BLOCK", block)
    out = os.path.join(str(tmp_path), "run")
    assert cli.main(["run", "--scenario", source, "--output", out]) == 0
    capsys.readouterr()
    with open(CSV_PINS) as fh:
        assert _pin(_read(os.path.join(out, "run_trajectory.csv"))) == json.load(fh)[_name(source)]
    with open(JSON_PINS) as fh:
        assert _line_pin(_json_stdout(source)) == json.load(fh)[_name(source)]


@pytest.mark.parametrize("source", INPUTS, ids=_name)
def test_sweeps_match_pins(source, tmp_path, capsys):
    name = _name(source)
    report, pin = _sweep_outputs(source, str(tmp_path))
    capsys.readouterr()
    _assert_pinned(report, os.path.join(REPORTS, f"{name}_sweep.json"))
    with open(SWEEP_CSV_PINS) as fh:
        assert pin == json.load(fh)[name], name


@pytest.mark.parametrize("source", INPUTS, ids=_name)
def test_kernel_sources_match_pins(source):
    with open(KERNEL_PINS) as fh:
        assert _kernel_pin(source) == json.load(fh)[_name(source)]


def _dump_pins(path, pins):
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _regenerate():
    import tempfile

    os.makedirs(REPORTS, exist_ok=True)
    pins, json_pins, sweep_pins, kernel_pins = {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for source in INPUTS:
            name = _name(source)
            check, run, pins[name] = _outputs(source, workdir)
            json_pins[name] = _line_pin(_json_stdout(source))
            sweep, sweep_pins[name] = _sweep_outputs(source, workdir)
            kernel_pins[name] = _kernel_pin(source)
            for kind, data in (("check", check), ("run", run), ("sweep", sweep)):
                with open(os.path.join(REPORTS, f"{name}_{kind}.json"), "wb") as fh:
                    fh.write(data)
        golden = os.path.join(workdir, "golden")
        assert cli.main(["sweep", *GOLDEN_SWEEP, "--output", golden]) == 0
        with open(os.path.join(golden, "sweep_report.json")) as fh:
            doc = json.load(fh)
    _dump_pins(CSV_PINS, pins)
    _dump_pins(JSON_PINS, json_pins)
    _dump_pins(SWEEP_CSV_PINS, sweep_pins)
    _dump_pins(KERNEL_PINS, kernel_pins)
    _dump_pins(GOLDEN, {key: doc[key] for key in GOLDEN_KEYS})


if __name__ == "__main__":
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        _regenerate()
