"""Command line front end: run, check, sweep.

All emitted files are deterministic for a fixed scenario and seed: floats are
printed with repr, JSON keys are sorted, and nothing records wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import catalog as cat
from . import criteria as cr
from . import dynamics as dy
from . import expr as ex
from . import fields as fl
from . import geometry as geo
from . import sampling

_CONFIG_ERRORS = (geo.GeometryError, ex.ExprError, OSError)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="worldline",
        description="Integrate and classify trajectories of charged particles "
                    "on pseudo-Riemannian charts, and check the sufficient "
                    "conditions for completeness.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--scenario", required=True,
                        help="built-in scenario name or scenario file path")
        sp.add_argument("--t-max", type=float, default=None,
                        help="integration horizon override")
        sp.add_argument("--tol", type=float, default=None,
                        help="relative tolerance override (absolute = tol/100)")
        sp.add_argument("--v-max", type=float, default=None,
                        help="speed threshold for the blowup classification")
        sp.add_argument("--output", default=None, metavar="DIR",
                        help="directory for emitted files (default: stdout only)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="sample table format (default csv)")

    run = sub.add_parser("run", help="integrate one trajectory and classify it")
    common(run)
    run.add_argument("--q", default=None,
                     help="initial point override, comma-separated")
    run.add_argument("--v", default=None,
                     help="initial velocity override, comma-separated")

    check = sub.add_parser("check", help="evaluate the completeness hypotheses")
    common(check)

    sweep = sub.add_parser("sweep", help="classify an ensemble of seeded starts")
    common(sweep)
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


def _config_doc(cfg: dy.IntegrationConfig) -> dict:
    return {"t_max": cfg.t_max, "rtol": cfg.rtol, "atol": cfg.atol,
            "v_max": cfg.v_max, "h_min": cfg.h_min, "stride": cfg.stride}


def _resolved_config(s: cat.Scenario, args) -> dy.IntegrationConfig:
    overrides = {}
    if args.t_max is not None:
        overrides["t_max"] = args.t_max
    if args.tol is not None:
        overrides["rtol"] = args.tol
        overrides["atol"] = args.tol / 100.0
    if getattr(args, "v_max", None) is not None:
        overrides["v_max"] = args.v_max
    return s.integration_config(**overrides)


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


def _sample_table(s: cat.Scenario, result: dy.TrajectoryResult):
    m, fp = s.manifold, s.fields
    ts, qs, vs = result.arrays()
    n = m.dim
    g = m.metric_batch(qs)
    energy = np.einsum("mij,mi,mj->m", g, vs, vs) + 2.0 * fp.potential_batch(qs, ts)
    if fp.reference_field is not None:
        k = fp.reference_batch(qs, ts)
        charge = np.einsum("mij,mi,mj->m", g, k, vs)
    else:
        charge = np.full(len(ts), math.nan)
    speed = dy.speed_series(m, fp, result)
    columns = (["t"] + [f"q_{i + 1}" for i in range(n)]
               + [f"v_{i + 1}" for i in range(n)]
               + ["energy_c", "killing_charge", "gR_speed"])
    rows = np.column_stack([ts, qs, vs, energy, charge, speed])
    return columns, rows


def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(doc: dict, outdir, report_name: str, table=None, fmt: str = "csv"):
    """Print the report and, when a directory is given, write the files."""
    if table is not None and fmt == "json":
        columns, rows = table
        doc = dict(doc)
        doc["samples"] = {"columns": columns,
                          "rows": [[float(x) for x in row] for row in rows]}
    sys.stdout.write(_dump(doc))
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, report_name), "w") as fh:
        fh.write(_dump(doc))
    if table is not None and fmt == "csv":
        columns, rows = table
        base = report_name.rsplit("_", 1)[0]
        _write_csv(os.path.join(outdir, f"{base}_trajectory.csv"), columns, rows)


def _field_norm_maxima(s: cat.Scenario, count: int = 200) -> dict:
    pts = geo.sample_points(s.manifold, count)
    norms = fl.invariant_norms(s.manifold, s.fields, pts)
    return {k: float(np.max(np.abs(v))) for k, v in sorted(norms.items())}


# --- subcommands -----------------------------------------------------------

def cmd_run(args) -> int:
    s = cat.resolve(args.scenario)
    cfg = _resolved_config(s, args)
    q = s.initial.q if args.q is None else _parse_vector(args.q, s.manifold.dim, "q")
    v = s.initial.v if args.v is None else _parse_vector(args.v, s.manifold.dim, "v")
    s0 = geo.TrajectoryState(0.0, q, v)

    result = dy.integrate_maximal(s.manifold, s.fields, s0, cfg)
    cls = result.classification
    energy = dy.energy_monitor(s.manifold, s.fields, result)
    killing = dy.killing_charge_monitor(s.manifold, s.fields, result)
    cert = dy.certificate(s.manifold, s.fields, result)

    doc = {
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
        "config": _config_doc(cfg),
        "initial": {"q": list(q), "v": list(v)},
        "provenance": "sampled check, not a proof",
    }
    _emit(doc, args.output, "run_report.json",
          table=_sample_table(s, result), fmt=args.format)
    return 0


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
    lo, hi = np.asarray(lo), np.asarray(hi)
    for _ in range(10000):
        q = tuple(lo + (hi - lo) * rng.random(m.dim))
        if isinstance(m.quotient, geo.ScalingQuotient):
            r = math.sqrt(sum(x * x for x in q))
            if not 1.0 <= r < m.quotient.factor:
                continue
        if m.domain.contains(q):
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
        if gkk < -1e-10:
            z = k / math.sqrt(-gkk)
            gz = g @ z
            form = g + 2.0 * np.outer(gz, gz)
            return tuple(sampling.quadratic_form_ball_point(rng, form, radius))
    return tuple(sampling.ball_point(rng, m.dim, radius))


def cmd_sweep(args) -> int:
    if args.n <= 0:
        raise geo.ValidationError("ensemble size -n must be positive")
    s = cat.resolve(args.scenario)
    cfg = _resolved_config(s, args)
    radius = float(s.config_dict().get("sweep_velocity_radius", 1.0))
    rng = np.random.default_rng(args.seed)
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
        energy = dy.energy_monitor(m, fp, result)
        killing = dy.killing_charge_monitor(m, fp, result)
        cert = dy.certificate(m, fp, result)
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
        rows.append([float(index), *q, *v, cls.kind,
                     _finite_or_none(cls.t_star),
                     _finite_or_none(cls.t_star_halfwidth),
                     float(cls.marginal), energy.max_drift,
                     killing.max_drift if killing.present else math.nan, speed])
        # the result and its sample arrays go out of scope here; trajectories
        # are never held simultaneously

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
        "config": _config_doc(cfg),
        "provenance": "sampled check, not a proof",
    }
    sys.stdout.write(_dump(doc))
    if args.output is not None:
        os.makedirs(args.output, exist_ok=True)
        with open(os.path.join(args.output, "sweep_report.json"), "w") as fh:
            fh.write(_dump(doc))
        path = os.path.join(args.output, "sweep.csv")
        with open(path, "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                cells = []
                for x in row:
                    if isinstance(x, str):
                        cells.append(x)
                    elif x is None:
                        cells.append("nan")
                    else:
                        cells.append(repr(float(x)))
                fh.write(",".join(cells) + "\n")
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
