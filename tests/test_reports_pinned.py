"""Byte pins of the check and run reports of every built-in scenario.

Each built-in is checked and run at its own configuration.  The check report
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

REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reports")
CSV_PINS = os.path.join(REPORTS, "trajectory_csv.json")


def _outputs(name, workdir):
    """(check report bytes, run report bytes, csv pin) of one built-in."""
    check_dir = os.path.join(workdir, name, "check")
    run_dir = os.path.join(workdir, name, "run")
    cli.main(["check", "--scenario", name, "--output", check_dir])
    assert cli.main(["run", "--scenario", name, "--output", run_dir]) == 0
    with open(os.path.join(check_dir, "check_report.json"), "rb") as fh:
        check = fh.read()
    with open(os.path.join(run_dir, "run_report.json"), "rb") as fh:
        run = fh.read()
    with open(os.path.join(run_dir, "run_trajectory.csv"), "rb") as fh:
        csv = fh.read()
    pin = {"sha256": hashlib.sha256(csv).hexdigest(),
           "rows": csv.count(b"\n") - 1}
    return check, run, pin


@pytest.mark.parametrize("name", cat.list_builtins())
def test_reports_match_pins(name, tmp_path, capsys):
    check, run, pin = _outputs(name, str(tmp_path))
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
        for name in cat.list_builtins():
            check, run, pins[name] = _outputs(name, workdir)
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
