"""Byte pins of the check and run reports of every built-in scenario and of
a dimension-5 scenario file.

Each input is checked and run at its own configuration.  The check report
and the run report must match the stored files byte for byte; the run's
trajectory CSV is pinned by its sha256 and row count.  A change that moves
bytes on purpose regenerates the files and shows the moved values in the
diff of ``tests/data/reports``:

    PYTHONPATH=src python tests/test_reports_pinned.py
"""

import contextlib
import hashlib
import json
import os

import pytest

import worldline.catalog as cat
from worldline import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
REPORTS = os.path.join(DATA, "reports")
CSV_PINS = os.path.join(REPORTS, "trajectory_csv.json")
# The dimension-5 file is the only input stepped above the symbolic limit.
INPUTS = [*cat.list_builtins(), os.path.join(DATA, "curved-5d.json")]


def _name(source):
    """Pin name of an input: the built-in name or the file's stem."""
    return os.path.splitext(os.path.basename(source))[0]


def _outputs(source, workdir):
    """(check report bytes, run report bytes, csv pin) of one input."""
    name = _name(source)
    check_dir = os.path.join(workdir, name, "check")
    run_dir = os.path.join(workdir, name, "run")
    cli.main(["check", "--scenario", source, "--output", check_dir])
    assert cli.main(["run", "--scenario", source, "--output", run_dir]) == 0
    with open(os.path.join(check_dir, "check_report.json"), "rb") as fh:
        check = fh.read()
    with open(os.path.join(run_dir, "run_report.json"), "rb") as fh:
        run = fh.read()
    with open(os.path.join(run_dir, "run_trajectory.csv"), "rb") as fh:
        csv = fh.read()
    pin = {"sha256": hashlib.sha256(csv).hexdigest(),
           "rows": csv.count(b"\n") - 1}
    return check, run, pin


@pytest.mark.parametrize("source", INPUTS, ids=_name)
def test_reports_match_pins(source, tmp_path, capsys):
    name = _name(source)
    check, run, pin = _outputs(source, str(tmp_path))
    capsys.readouterr()
    with open(os.path.join(REPORTS, f"{name}_check.json"), "rb") as fh:
        assert check == fh.read(), name
    with open(os.path.join(REPORTS, f"{name}_run.json"), "rb") as fh:
        assert run == fh.read(), name
    with open(CSV_PINS) as fh:
        assert pin == json.load(fh)[name], name


def _regenerate():
    import tempfile

    os.makedirs(REPORTS, exist_ok=True)
    pins = {}
    with tempfile.TemporaryDirectory() as workdir:
        for source in INPUTS:
            name = _name(source)
            check, run, pins[name] = _outputs(source, workdir)
            with open(os.path.join(REPORTS, f"{name}_check.json"), "wb") as fh:
                fh.write(check)
            with open(os.path.join(REPORTS, f"{name}_run.json"), "wb") as fh:
                fh.write(run)
    with open(CSV_PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        _regenerate()
