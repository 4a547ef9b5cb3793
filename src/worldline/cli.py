"""Command line front end: run, check, sweep.

All emitted files are deterministic for a fixed scenario and seed: floats are
printed with repr, JSON keys are sorted, and nothing records wall-clock time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import catalog as cat
from . import criteria as cr
from . import dynamics as dy
from . import expr as ex
from . import fields as fl
from . import geometry as geo
from . import sampling

_CONFIG_ERRORS = (geo.GeometryError, ex.ExprError, OSError)
_NORM_POINTS = 200  # of the field norm maxima in a run report
_CSV_BLOCK = 256  # rows formatted by one % operation
_COPY_BYTES = 1 << 16  # spooled CSV text copied at a time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="worldline",
        description="Integrate and classify trajectories of charged particles "
                    "on pseudo-Riemannian charts, and check the sufficient "
                    "conditions for completeness.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, summary, integrates):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--scenario", required=True,
                        help="built-in scenario name or scenario file path")
        if integrates:
            sp.add_argument("--t-max", type=float, default=None,
                            help="integration horizon override")
            sp.add_argument("--tol", type=float, default=None,
                            help="relative tolerance override (absolute = tol/100)")
            sp.add_argument("--v-max", type=float, default=None,
                            help="speed threshold for the blowup classification")
        sp.add_argument("--output", default=None, metavar="DIR",
                        help="directory for emitted files (default: stdout only)")
        return sp

    run = command("run", "integrate one trajectory and classify it", True)
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="sample table format (default csv)")
    run.add_argument("--q", default=None,
                     help="initial point override, comma-separated")
    run.add_argument("--v", default=None,
                     help="initial velocity override, comma-separated")

    command("check", "evaluate the completeness hypotheses", False)

    sweep = command("sweep", "classify an ensemble of seeded starts", True)
    sweep.add_argument("-n", type=int, default=None, required=True,
                       help="ensemble size (must be positive)")
    sweep.add_argument("--seed", type=int, default=sampling.DEFAULT_SEED,
                       help="RNG seed for the initial conditions")
    return p


# --- shared helpers --------------------------------------------------------

def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _finite_or_nan(x):
    x = _finite_or_none(x)
    return math.nan if x is None else x


def _resolved_config(s: cat.Scenario, args) -> dy.IntegrationConfig:
    tol = args.tol
    return s.integration_config(t_max=args.t_max, rtol=tol,
                                atol=None if tol is None else tol / 100.0,
                                v_max=args.v_max)


def _parse_vector(text: str, n: int, label: str) -> tuple:
    try:
        vals = tuple(float(c) for c in text.split(","))
    except ValueError as err:
        raise geo.ValidationError(f"cannot parse {label} override: {err}") from err
    if len(vals) != n:
        raise geo.ValidationError(
            f"{label} override has {len(vals)} components, expected {n}")
    return vals


def _certificates_doc(energy: dy.EnergyRecord, cert: dy.Certificates) -> dict:
    doc = {"c": _finite_or_none(energy.reference)}
    if cert.refused:
        doc.update({"c1": None, "c2": None, "m": None,
                    "refused_reason": cert.reason})
    else:
        doc.update({"c1": cert.c1, "c2": cert.c2, "m": cert.m,
                    "speed_form_max": cert.gr_form_max, "bound": cert.bound,
                    "consistent": cert.consistent})
    return doc


def _table_columns(n: int) -> list:
    return (["t"] + [f"q_{i + 1}" for i in range(n)] + [f"v_{i + 1}" for i in range(n)]
            + ["energy_c", "killing_charge", "gR_speed"])


def _csv_text(rows, width: int):
    """The lines of ``rows``, a 2-D float array or a list of lists of floats
    and strings, as text of at most ``_CSV_BLOCK`` lines at a time.

    Each text is one ``%`` of the row template ``%s,...,%s`` repeated per
    row: ``%s`` of a float is str, its repr, and a string passes through.
    Blocks stay a few hundred rows long because a block's cells are held as
    float objects and its text at once: with 4096-row blocks a run's peak
    RSS rose by a tenth and the time saved was gone in a fresh process.
    """
    line = ",".join(["%s"] * width) + "\n"
    for i in range(0, len(rows), _CSV_BLOCK):
        block = rows[i:i + _CSV_BLOCK]
        cells = (block.ravel().tolist() if isinstance(block, np.ndarray)
                 else [c for row in block for c in row])
        yield line * len(block) % tuple(cells)


def _write_csv(path, columns, rows):
    """A header line, then one line per row (see ``_csv_text``)."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(_csv_text(rows, len(columns)))


class _CsvSpool:
    """The trajectory CSV of ``run --output``, spooled block by block as the
    fold hands the blocks over, so that the run holds one block of the
    sample table at a time.

    ``add`` writes a block's lines, reversed when backward, to one anonymous
    spool file per direction; ``write`` assembles the CSV in increasing t:
    the header, the backward blocks last to first, then the forward ones.
    The spool files vanish when ``close`` closes them.
    """

    def __init__(self, columns):
        self._header = ",".join(columns) + "\n"
        self._width = len(columns)
        self._files = tempfile.TemporaryFile(), tempfile.TemporaryFile()  # forward, backward
        self._sizes = []  # bytes of each backward block, in the order spooled

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        for fh in self._files:
            fh.close()

    def add(self, columns, backward: bool):
        rows = np.column_stack(columns)
        fh = self._files[backward]
        start = fh.tell()
        for text in _csv_text(rows[::-1] if backward else rows, self._width):
            fh.write(text.encode())
        if backward:
            self._sizes.append(fh.tell() - start)

    def write(self, path):
        forward, backward = self._files
        with open(path, "wb") as out:
            out.write(self._header.encode())
            end = backward.tell()
            for size in reversed(self._sizes):
                end -= size
                backward.seek(end)
                while size:  # in pieces, so that no block's text is held at once
                    piece = backward.read(min(size, _COPY_BYTES))
                    out.write(piece)
                    size -= len(piece)
            forward.seek(0)
            shutil.copyfileobj(forward, out, _COPY_BYTES)


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(doc: dict, outdir, report_name: str):
    """Print the report and, when a directory is given, write it there."""
    sys.stdout.write(_dump(doc))
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, report_name), "w") as fh:
        fh.write(_dump(doc))


def _field_norm_maxima(s: cat.Scenario) -> dict:
    pts = geo.sample_points(s.manifold)[:_NORM_POINTS]
    norms = fl.invariant_norms(s.manifold, s.fields, pts)
    return {k: _finite_or_none(np.max(np.abs(v))) for k, v in sorted(norms.items())}


# --- subcommands -----------------------------------------------------------

def cmd_run(args) -> int:
    s = cat.resolve(args.scenario)
    cfg = _resolved_config(s, args)
    q = s.initial.q if args.q is None else _parse_vector(args.q, s.manifold.dim, "q")
    v = s.initial.v if args.v is None else _parse_vector(args.v, s.manifold.dim, "v")
    s0 = geo.TrajectoryState(0.0, q, v)

    # the sample table is spooled to the CSV of --output, or kept in memory
    # for the report of --format json
    csv = args.output is not None and args.format == "csv"
    with _CsvSpool(_table_columns(s.manifold.dim)) if csv else contextlib.nullcontext() as spool:
        result = dy.integrate_maximal(s.manifold, s.fields, s0, cfg,
                                      table=spool if csv else args.format == "json")
        doc = _run_report(s, cfg, q, v, result)
        if args.format == "json":
            rows = np.column_stack(result.table.columns)
            doc["samples"] = {"columns": _table_columns(s.manifold.dim),
                              "rows": [row.tolist() for row in rows]}
        _emit(doc, args.output, "run_report.json")
        if csv:
            spool.write(os.path.join(args.output, "run_trajectory.csv"))
    return 0


def _run_report(s: cat.Scenario, cfg: dy.IntegrationConfig, q, v,
                result: dy.TrajectoryResult) -> dict:
    cls = result.classification
    energy = dy.energy_monitor(result)
    killing = dy.killing_charge_monitor(result)
    cert = dy.certificate(result)
    return {
        "scenario": s.name,
        "classification": cls.kind,
        "t_star": _finite_or_none(cls.t_star),
        "t_star_halfwidth": _finite_or_none(cls.t_star_halfwidth),
        "marginal": bool(cls.marginal),
        "detail": cls.detail,
        "energy_drift": _finite_or_none(energy.max_drift),
        "energy_conserved_quantity": energy.applicable,
        "killing_drift": _finite_or_none(killing.max_drift) if killing.present else None,
        "killing_rate_residual": _finite_or_none(killing.rate_residual),
        "certificates": _certificates_doc(energy, cert),
        "metric_declared_complete": s.manifold.declared_complete,
        "field_norm_maxima": _field_norm_maxima(s),
        "speed_mode": result.speed_mode,
        "directions": {
            "forward": {"classification": result.forward.classification.kind,
                        "max_speed": result.forward.max_speed,
                        "accepted_steps": result.forward.accepted},
            "backward": {"classification": result.backward.classification.kind,
                         "max_speed": result.backward.max_speed,
                         "accepted_steps": result.backward.accepted},
        },
        "config": asdict(cfg),
        "initial": {"q": list(q), "v": list(v)},
        "provenance": "sampled check, not a proof",
    }


def cmd_check(args) -> int:
    s = cat.resolve(args.scenario)
    report = cr.evaluate(s.manifold, s.fields)
    doc = {
        "scenario": s.name,
        "theorem": report.theorem,
        "prediction": report.prediction,
        "note": report.note,
        "hypotheses": [
            {"name": h.name, "verdict": h.verdict,
             "measured": _finite_or_none(h.measured),
             "samples": h.samples, "note": h.note}
            for h in report.hypotheses
        ],
    }
    _emit(doc, args.output, "check_report.json")
    return 0 if report.prediction == cr.COMPLETE else 1


def _sample_initial_point(m: geo.ManifoldSpec, rng) -> tuple:
    lo, hi = geo.sampling_box(m)
    for _ in range(10000):
        q = tuple(a + (b - a) * rng.random() for a, b in zip(lo, hi))
        if geo.in_fundamental_domain(m, [q])[0]:
            return q
    raise geo.ValidationError("could not sample a point in the fundamental domain")


def _sample_velocity(m: geo.ManifoldSpec, fp: fl.FieldPack, q, rng,
                     radius: float) -> tuple:
    """Bounded velocity draw: the positive-form ball when the reference field
    is timelike at q, else a Euclidean ball."""
    if fp.reference_field is not None:
        g = geo.metric_at(m, q)
        k = fp.reference_value(q)
        gkk = float(k @ g @ k)
        if gkk < fl._TIMELIKE_MARGIN:
            z = k / math.sqrt(-gkk)
            gz = g @ z
            form = g + 2.0 * np.outer(gz, gz)
            return sampling.quadratic_form_ball_point(rng, form, radius)
    return sampling.ball_point(rng, m.dim, radius)


def cmd_sweep(args) -> int:
    if args.n <= 0:
        raise geo.ValidationError("ensemble size -n must be positive")
    if args.seed < 0:
        raise geo.ValidationError("--seed must be non-negative")
    s = cat.resolve(args.scenario)
    cfg = _resolved_config(s, args)
    radius = s.velocity_radius
    rng = random.Random(args.seed)
    m, fp = s.manifold, s.fields

    n = m.dim
    columns = (["index"] + [f"q_{i + 1}" for i in range(n)]
               + [f"v_{i + 1}" for i in range(n)]
               + ["classification", "t_star", "t_star_halfwidth", "marginal",
                  "energy_drift", "killing_drift", "max_speed"])
    rows = []
    counts = {}
    classifications = []
    max_energy = 0.0
    max_killing = 0.0
    max_speed = 0.0
    max_bound = None
    consistent = True
    for index in range(args.n):
        q = _sample_initial_point(m, rng)
        v = _sample_velocity(m, fp, q, rng, radius)
        result = dy.integrate_maximal(m, fp, geo.TrajectoryState(0.0, q, v), cfg,
                                      table=False)
        cls = result.classification
        energy = dy.energy_monitor(result)
        killing = dy.killing_charge_monitor(result)
        cert = dy.certificate(result)
        speed = max(result.forward.max_speed, result.backward.max_speed)

        counts[cls.kind] = counts.get(cls.kind, 0) + 1
        classifications.append(cls.kind)
        if energy.applicable:
            max_energy = max(max_energy, energy.max_drift)
        if killing.present and killing.constant_case:
            max_killing = max(max_killing, killing.max_drift)
        max_speed = max(max_speed, speed)
        if not cert.refused:
            max_bound = cert.bound if max_bound is None else max(max_bound, cert.bound)
            consistent = consistent and cert.consistent
        rows.append([float(index), *map(float, q), *map(float, v), cls.kind,
                     _finite_or_nan(cls.t_star),
                     _finite_or_nan(cls.t_star_halfwidth),
                     float(cls.marginal), energy.max_drift,
                     killing.max_drift if killing.present else math.nan, speed])

    doc = {
        "scenario": s.name,
        "n": args.n,
        "seed": args.seed,
        "velocity_radius": radius,
        "counts": dict(sorted(counts.items())),
        "classifications": classifications,
        "max_energy_drift": max_energy,
        "max_killing_drift": max_killing,
        "max_speed": max_speed,
        "max_certificate_bound": max_bound,
        "certificates_consistent": consistent if max_bound is not None else None,
        "config": asdict(cfg),
        "provenance": "sampled check, not a proof",
    }
    _emit(doc, args.output, "sweep_report.json")
    if args.output is not None:
        _write_csv(os.path.join(args.output, "sweep.csv"), columns, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "check": cmd_check, "sweep": cmd_sweep}[args.command]
    try:
        return handler(args)
    except _CONFIG_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
