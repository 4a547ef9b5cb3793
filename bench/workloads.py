"""The benchmark's workloads: seeded command lists and the checks on their outputs.

Every command is a ``worldline`` CLI invocation run as its own fresh process.
A workload is an endless series of rounds; a round is a list of commands.
Sweep seeds and the generated scenario file come from the workload seed, so
the same seed gives the same inputs, and the program sees only those inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

COMPLETE = "CompleteToHorizon"
BLOWUP = "BlowupAt"
PREDICT_COMPLETE = "Complete"

BUILTINS = ("clifton-pohl", "flat-lorentz-torus", "null-plane-cubic",
            "riemann-flat-torus", "riemann-superlinear", "t3-magnetic")

# Trajectories per sweep command of the incomplete-ensemble workload: enough
# that per-command fixed costs do not swamp the integrator, few enough that a
# run holds a dozen rounds.
INCOMPLETE_N = 10


@dataclass(frozen=True)
class Command:
    kind: str            # "check", "run" or "sweep"
    source: str          # scenario name or file path, as passed to --scenario
    args: tuple = ()     # further CLI arguments
    trajectories: int = 0
    all_complete: bool = False  # a sweep whose every trajectory must complete

    def argv(self, outdir: str) -> list:
        out = [] if self.kind == "check" else ["--output", outdir]
        return [self.kind, "--scenario", self.source, *self.args, *out]

    @property
    def key(self) -> str:
        """Identifies the inputs: equal keys must give equal output bytes."""
        return " ".join([self.kind, os.path.basename(self.source), *self.args])


def _sweep_seeds(name: str, seed: int):
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(1, 2 ** 31)


def curved_5d_scenario(seed: int) -> dict:
    """A dimension-5 Lorentzian torus with a curved spatial metric.

    The metric is -ds^2 + sum_i a_i(x_{i+1}) dx_i^2, periodic in every
    coordinate; F rotates two spatial planes and is skew for this metric;
    K = d/ds is Killing, timelike and annihilated by F; V is periodic.  Every
    hypothesis of the Lorentzian route holds, so the expected prediction is
    Complete and the trajectory completes to the horizon.
    """
    rng = random.Random(f"curved-5d:{seed}")
    names = ["s", "x", "y", "z", "w"]
    metric = {"g_0_0": "-1"}
    g = {}
    # Narrow ranges and a fixed spatial speed keep the step count, and so the
    # share of the round this run takes, similar from seed to seed.
    for i in range(1, 5):
        a = round(rng.uniform(0.2, 0.3), 6)
        g[i] = f"1 + {a!r} * cos(2 * pi * {names[1 + i % 4]})"
        metric[f"g_{i}_{i}"] = g[i]
    F = [["0"] * 5 for _ in range(5)]
    for i, j in ((1, 2), (3, 4)):
        b = round(rng.uniform(0.8, 1.2), 6)
        F[i][j] = f"{b!r} / ({g[i]})"
        F[j][i] = f"-{b!r} / ({g[j]})"
    amp = round(rng.uniform(0.04, 0.06), 6)
    direction = [rng.gauss(0.0, 1.0) for _ in range(4)]
    scale = 0.4 / math.sqrt(sum(c * c for c in direction))
    return {
        "name": f"curved-5d-{seed}",
        "dimension": 5,
        "coordinates": names,
        "metric": metric,
        "quotient": {"lattice": [1.0] * 5},
        "domain": {"lower": [None] * 5, "upper": [None] * 5,
                   "exclude_origin_radius": None},
        "fields": {"F": F, "X": None,
                   "V": f"{amp!r} * (cos(2 * pi * x) + cos(2 * pi * z))",
                   "K": ["1", "0", "0", "0", "0"]},
        "initial": {"q": [0.0] + [round(rng.uniform(0.0, 1.0), 6) for _ in range(4)],
                    "v": [1.0] + [round(c * scale, 6) for c in direction]},
        "config": {"signature": "lorentzian", "t_max": 20.0, "rtol": 1e-8,
                   "atol": 1e-10,
                   "expected_classification": COMPLETE,
                   "expected_prediction": PREDICT_COMPLETE},
    }


class Workload:
    name = ""

    def sources(self, seed: int, workdir: str) -> list:
        """Scenario arguments of the workload; writes any generated files."""
        raise NotImplementedError

    def rounds(self, seed: int, sources: list):
        """Endless iterator over rounds (lists of Commands)."""
        raise NotImplementedError


class T3LongHorizon(Workload):
    """The shape of acceptance criterion 4: long t3-magnetic trajectories,
    bound by the generated kernel and the step controller, with every
    accepted step kept in memory."""
    name = "t3-long-horizon"

    def sources(self, seed, workdir):
        return ["t3-magnetic"]

    def rounds(self, seed, sources):
        for s in _sweep_seeds(self.name, seed):
            yield [Command("sweep", "t3-magnetic",
                           ("--t-max", "1000", "-n", "1", "--seed", str(s)),
                           trajectories=1, all_complete=True)]


class IncompleteEnsemble(Workload):
    """Short blow-ups with bracketing and the confirmation steps, scaling
    renormalization, the heaviest symbolic Christoffels; per-trajectory fixed
    costs are a large share."""
    name = "incomplete-ensemble"
    scenarios = ("clifton-pohl", "null-plane-cubic", "riemann-superlinear")

    def sources(self, seed, workdir):
        return list(self.scenarios)

    def rounds(self, seed, sources):
        seeds = _sweep_seeds(self.name, seed)
        while True:
            yield [Command("sweep", name,
                           ("-n", str(INCOMPLETE_N), "--seed", str(next(seeds))),
                           trajectories=INCOMPLETE_N)
                   for name in self.scenarios]


class CatalogCheckRun(Workload):
    """check, then run --output, over the built-ins and a seeded dimension-5
    file: the sampled hypotheses, monitors, CSV writing, and the generic
    stepper that no other workload reaches."""
    name = "catalog-check-run"

    def sources(self, seed, workdir):
        path = os.path.join(workdir, f"curved-5d-{seed}.json")
        with open(path, "w") as fh:
            json.dump(curved_5d_scenario(seed), fh, indent=2, sort_keys=True)
        return list(BUILTINS) + [path]

    def rounds(self, seed, sources):
        one = []
        for source in sources:
            one.append(Command("check", source))
            one.append(Command("run", source, trajectories=1))
        while True:
            yield list(one)


WORKLOADS = {w.name: w for w in (T3LongHorizon(), IncompleteEnsemble(), CatalogCheckRun())}


# --- correctness ---------------------------------------------------------------

def _finite(x) -> bool:
    return x is not None and math.isfinite(float(x))


def check_outputs(cmd: Command, rc: int, stdout: bytes, outdir: str,
                  expected: dict) -> list:
    """Problems with one command's outputs; an empty list means correct."""
    exp = expected[cmd.source]
    if cmd.kind == "check":
        want_rc = 0 if exp["prediction"] == PREDICT_COMPLETE else 1
    else:
        want_rc = 0
    if rc != want_rc:
        return [f"exit code {rc}, expected {want_rc}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["report on stdout is not JSON"]
    problems = []
    if cmd.kind == "check":
        if report.get("prediction") != exp["prediction"]:
            problems.append(f"prediction {report.get('prediction')!r}, "
                            f"expected {exp['prediction']!r}")
    elif cmd.kind == "run":
        cls = report.get("classification")
        if cls != exp["classification"]:
            problems.append(f"classification {cls!r}, expected {exp['classification']!r}")
        if cls == BLOWUP and not _finite(report.get("t_star")):
            problems.append("BlowupAt with a non-finite t_star")
    else:
        path = os.path.join(outdir, "sweep.csv")
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError:
            return ["sweep.csv was not written"]
        if len(rows) != cmd.trajectories:
            problems.append(f"{len(rows)} sweep rows, expected {cmd.trajectories}")
        if any(r["classification"] == BLOWUP and not _finite(r["t_star"]) for r in rows):
            problems.append("BlowupAt row with a non-finite t_star")
        if cmd.all_complete:
            if any(r["classification"] != COMPLETE for r in rows):
                problems.append("a trajectory did not complete to the horizon")
            if report.get("certificates_consistent") is not True:
                problems.append("certificates_consistent is not true")
    return problems
