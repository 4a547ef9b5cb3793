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
_TEXT_BLOCK = 256  # rows formatted by one % operation
_COPY_BYTES = 1 << 16  # spooled text copied at a time
_ROWS = "\0rows"  # stands for the spooled rows in a report


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


def _table_text(rows, line: str, nonfinite=None):
    """The text of ``rows``, a 2-D float array or a list of lists of floats
    and strings, as bytes of at most ``_TEXT_BLOCK`` rows at a time.

    Each text is one ``%`` of the row template ``line`` repeated per row:
    ``%s`` of a float is str, its repr, and a string passes through; with
    ``nonfinite``, a non-finite float of an array prints as that text.
    Blocks stay a few hundred rows long because a block's cells are held as
    float objects and its text at once: with 4096-row blocks a run's peak
    RSS rose by a tenth and the time saved was gone in a fresh process.
    """
    for i in range(0, len(rows), _TEXT_BLOCK):
        block = rows[i:i + _TEXT_BLOCK]
        if isinstance(block, np.ndarray):
            cells = block.ravel().tolist()
            if nonfinite is not None:
                cells = [c if math.isfinite(c) else nonfinite for c in cells]
        else:
            cells = [c for row in block for c in row]
        yield (line * len(block) % tuple(cells)).encode()


def _csv_line(width: int) -> str:
    return ",".join(["%s"] * width) + "\n"


class _Spool:
    """The sample table of ``run`` as text, spooled block by block as the
    fold hands the blocks over, so that the run holds one block at a time.

    ``add`` prints a block's rows through ``row + sep`` (see
    ``_table_text``), reversed when backward, to one anonymous spool file
    per direction.  ``pieces`` reads the table back in increasing t, the
    backward blocks last to first, then the forward ones, without the
    ``sep`` after the last row, which is a forward one.  The spool files
    vanish when the spool exits.
    """

    def __init__(self, row: str, sep: str = "", nonfinite=None):
        self._line, self._sep, self._nonfinite = row + sep, len(sep), nonfinite
        self._files = tempfile.TemporaryFile(), tempfile.TemporaryFile()  # forward, backward
        self._spans = []  # (start, size) in bytes of each backward block

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for fh in self._files:
            fh.close()

    def add(self, columns, backward: bool):
        rows = np.column_stack(columns)
        fh = self._files[backward]
        start = fh.tell()
        fh.writelines(_table_text(rows[::-1] if backward else rows, self._line,
                                  self._nonfinite))
        if backward:
            self._spans.append((start, fh.tell() - start))

    def pieces(self, head: bytes, tail: bytes = b""):
        """``head``, the table, then ``tail``: the table in pieces of at most
        ``_COPY_BYTES``, so that no block's text is held at once."""
        forward, backward = self._files
        yield head
        spans = [(backward, *span) for span in reversed(self._spans)]
        for fh, start, size in [*spans, (forward, 0, forward.seek(0, os.SEEK_END) - self._sep)]:
            fh.seek(start)
            while size:
                piece = fh.read(min(size, _COPY_BYTES))
                yield piece
                size -= len(piece)
        yield tail


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(doc: dict, outdir, report_name: str, rows=None, files=()):
    """Print the report and, when a directory is given, write it there as
    ``report_name``, with each (file name, bytes pieces) of ``files``.

    With the spool ``rows``, its table streams into both copies of the
    report where ``doc`` holds ``[_ROWS]``.  The directory is made and
    every file opened before stdout gets a byte, so an output that cannot
    be written leaves stdout empty.
    """
    text = _dump(doc)
    report = [text.encode()]
    if rows is not None:
        head, _, tail = text.partition(json.dumps(_ROWS))
        report = rows.pieces(head.encode(), tail.encode())
    with contextlib.ExitStack() as stack:
        opened = []
        if outdir is not None:
            os.makedirs(outdir, exist_ok=True)
            opened = [stack.enter_context(open(os.path.join(outdir, name), "wb"))
                      for name in (report_name, *(name for name, _ in files))]
        for piece in report:
            sys.stdout.write(piece.decode())
            if opened:
                opened[0].write(piece)
        for fh, (_, pieces) in zip(opened[1:], files):
            fh.writelines(pieces)


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

    # the sample table is spooled when it is shown: as the report's samples,
    # rows printed as _dump prints them but strict, or as the CSV of --output
    columns = _table_columns(s.manifold.dim)
    as_json = args.format == "json"
    spool = None
    if as_json:
        row = "[\n" + ",\n".join(["        %s"] * len(columns)) + "\n      ]"
        spool = _Spool(row, ",\n      ", "null")
    elif args.output is not None:
        spool = _Spool(_csv_line(len(columns)))
    with spool or contextlib.nullcontext():
        result = dy.integrate_maximal(s.manifold, s.fields, s0, cfg, table=spool)
        doc = _run_report(s, cfg, q, v, result)
        files = ()
        if as_json:
            doc["samples"] = {"columns": columns, "rows": [_ROWS]}
        elif spool is not None:
            files = [("run_trajectory.csv", spool.pieces((",".join(columns) + "\n").encode()))]
        _emit(doc, args.output, "run_report.json", spool if as_json else None, files)
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
        result = dy.integrate_maximal(m, fp, geo.TrajectoryState(0.0, q, v), cfg)
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
    csv = _table_text([columns, *rows], _csv_line(len(columns)))
    _emit(doc, args.output, "sweep_report.json", files=[("sweep.csv", csv)])
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
