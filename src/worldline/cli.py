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
import pickle
import random
import signal
import struct
import sys
import tempfile
from array import array
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
        doc.update({"c1": _finite_or_none(cert.c1), "c2": _finite_or_none(cert.c2),
                    "m": _finite_or_none(cert.m),
                    "speed_form_max": _finite_or_none(cert.gr_form_max),
                    "bound": _finite_or_none(cert.bound), "consistent": cert.consistent})
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


def _fork(child, *close) -> int:
    """Fork a child process and return its pid.  The child closes the file
    descriptors ``close`` (the parent's ends of its pipes), runs ``child()``
    and leaves only through ``os._exit``, with the code ``child`` returns, or
    1 if it raises.  stdout and stderr are flushed first, so the child
    inherits no buffered text.  Each child reads a pipe until it closes, so
    a parent that ends, killed or not, ends its children."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in close:
                os.close(fd)
            code = child()
        finally:
            os._exit(code)
    return pid


def _reap(pid: int) -> int:
    """Wait for the child ``pid``; its exit code, or minus the signal that
    ended it."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


_FRAME = struct.Struct("<?Q")  # a block sent to the writer: backward, bytes of its rows


def _write_table(blocks: int, replies: int, files, line: str, width: int,
                 nonfinite) -> int:
    """The body of a ``_Spool``'s writer process; returns its exit code.

    Reads framed blocks of float64 rows from the pipe ``blocks`` until it
    closes and prints each through ``line`` (see ``_table_text``), reversed
    when backward, to ``files[backward]``.  Then it sends to ``replies`` the
    (start, size) in bytes of each backward block, or the text of the error
    that stopped it."""
    spans, code = array("q"), 0
    try:
        with open(blocks, "rb") as src:
            while header := src.read(_FRAME.size):
                backward, size = _FRAME.unpack(header)
                rows = np.frombuffer(src.read(size)).reshape(-1, width)
                fh = files[backward]
                start = fh.tell()
                fh.writelines(_table_text(rows[::-1] if backward else rows, line, nonfinite))
                if backward:
                    spans.extend((start, fh.tell() - start))
        for fh in files:
            fh.flush()
        reply = spans.tobytes()
    except Exception as err:
        reply, code = f"{type(err).__name__}: {err}".encode(), 1
    with open(replies, "wb") as out:
        out.write(reply)
    return code


class _Spool:
    """The sample table of ``run`` as text, printed by a writer process while
    the run integrates, so that the run neither holds more than one block
    of the table nor formats a float of it.

    Entering the spool forks the writer (POSIX ``fork``, see ``_fork``).
    The run starts no thread; the writer calls no
    BLAS routine, so an idle BLAS thread pool that the fork leaves behind
    does not matter to it.  ``add`` sends a block's rows, raw float64, down a
    pipe; the writer prints them through ``row + sep`` (``_write_table``) to
    one anonymous spool file per direction.  ``pieces`` closes the pipe,
    takes the spans of the backward blocks from the writer and reaps it,
    then reads the table back in increasing t: the backward blocks last to
    first, then the forward ones, without the ``sep`` after the last row,
    which is a forward one.  A writer that failed makes ``pieces`` (or
    ``add``) raise ``OSError`` with its error.  Leaving the spool reaps the
    writer if ``pieces`` did not, and closes the spool files, which vanish.
    A run killed mid-way closes the pipe, and the writer ends at its end.
    """

    def __init__(self, row: str, sep: str = "", nonfinite=None):
        self._format = row + sep, row.count("%s"), nonfinite
        self._sep = len(sep)
        self._pid = None

    def __enter__(self):
        self._files = tempfile.TemporaryFile(), tempfile.TemporaryFile()  # forward, backward
        blocks, pipe = os.pipe()
        self._replies, replies = os.pipe()
        self._pid = _fork(lambda: _write_table(blocks, replies, self._files, *self._format),
                          pipe, self._replies)
        os.close(blocks)
        os.close(replies)
        self._pipe = open(pipe, "wb")
        return self

    def __exit__(self, *exc):
        try:
            if self._pid is not None:  # the run failed before ``pieces``
                with contextlib.suppress(OSError):
                    self._reap()
        finally:
            for fh in self._files:
                fh.close()

    def _reap(self):
        """Close the pipe, so that the writer finishes, and reap it; return
        its spans of the backward blocks, or raise ``OSError`` if it failed."""
        pid, self._pid = self._pid, None
        with contextlib.suppress(BrokenPipeError):
            self._pipe.close()
        with open(self._replies, "rb") as fh:
            reply = fh.read()
        code = _reap(pid)
        if code != 0:
            raise OSError(f"sample table writer failed: {reply.decode(errors='replace')}"
                          if reply else f"sample table writer ended with status {code}")
        spans = array("q", reply)
        return list(zip(spans[::2], spans[1::2]))

    def add(self, columns, backward: bool):
        rows = np.column_stack(columns).tobytes()
        try:
            self._pipe.write(_FRAME.pack(backward, len(rows)))
            self._pipe.write(rows)
            self._pipe.flush()
        except BrokenPipeError:  # the writer is gone
            self._reap()  # raises its error
            raise

    def pieces(self, head: bytes, tail: bytes = b""):
        """``head``, the table, then ``tail``: the table in pieces of at most
        ``_COPY_BYTES``, so that no block's text is held at once.  The
        writer is reaped here, before the first piece is asked for."""
        return self._read(head, self._reap(), tail)

    def _read(self, head, spans, tail):
        forward, backward = self._files
        yield head
        spans = [(backward, *span) for span in reversed(spans)]
        for fh, start, size in [*spans, (forward, 0, forward.seek(0, os.SEEK_END) - self._sep)]:
            fh.seek(start)
            while size:
                piece = fh.read(min(size, _COPY_BYTES))
                yield piece
                size -= len(piece)
        yield tail


_SIZE = struct.Struct("<Q")  # a message between a sweep and its helper: bytes of its pickle


def _send(fh, message):
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    fh.write(_SIZE.pack(len(data)))
    fh.write(data)
    fh.flush()


def _receive(fh):
    """The next message from ``fh``, or None at the end of the pipe."""
    header = fh.read(_SIZE.size)
    if len(header) < _SIZE.size:
        return None
    (size,) = _SIZE.unpack(header)
    data = fh.read(size)
    return pickle.loads(data) if len(data) == size else None


def _serve_backward(jobs: int, replies: int, sysd) -> int:
    """The body of a sweep's direction helper; returns its exit code.

    Answers each (start state, config) read from the pipe ``jobs`` with
    ``(True, dynamics.backward_half(...))`` or with ``(False, error)`` on
    ``replies``, until ``jobs`` closes.  An error that would not reach the
    sweep as itself through ``pickle`` goes as an ``OSError`` with its
    text."""
    with open(jobs, "rb") as src, open(replies, "wb") as out:
        while (job := _receive(src)) is not None:
            try:
                reply = True, dy.backward_half(sysd, *job)
            except Exception as err:
                try:
                    same = type(pickle.loads(pickle.dumps(err))) is type(err)
                except Exception:
                    same = False
                reply = False, err if same else OSError(f"{type(err).__name__}: {err}")
            _send(out, reply)
    return 0


class _Backward:
    """The backward directions of a sweep, integrated by a helper process on
    the other core while the sweep integrates the forward ones.

    Entering forks the helper (POSIX ``fork``, see ``_fork``) once the
    sweep's system is compiled, so that it inherits the compiled system and
    the cached verdicts of the sampled checks; there is one helper per
    sweep, whatever its size.  The sweep starts no thread, and numpy's
    OpenBLAS, which the helper's fold may call, restarts its thread pool in
    a forked child.  As the ``backward`` of
    ``dynamics.integrate_maximal``, a call sends the start state and the
    config down a pipe and returns the function that takes the reply: the
    backward report and its fold values, or the backward error, raised with
    its type and message.  The draws of the start points stay in the sweep.
    A helper that is gone makes that function raise ``OSError``.  ``close``
    closes the pipe, and the helper ends at its end; a sweep killed in the
    middle of a trajectory leaves the helper to finish that backward
    direction, fail to send it, and end.  Leaving reaps the
    helper, killing it first when an error is on its way out, so that no
    command waits for a backward direction it will not read.
    """

    def __init__(self, sysd):
        self._sysd = sysd

    def __enter__(self):
        jobs, pipe = os.pipe()
        self._replies, replies = os.pipe()
        self._pid = _fork(lambda: _serve_backward(jobs, replies, self._sysd),
                          pipe, self._replies)
        os.close(jobs)
        os.close(replies)
        self._jobs, self._replies = open(pipe, "wb"), open(self._replies, "rb")
        return self

    def __call__(self, s0, cfg):
        with contextlib.suppress(BrokenPipeError):  # a helper gone fails the reply
            _send(self._jobs, (s0, cfg))
        return self._reply

    def _reply(self):
        reply = _receive(self._replies)
        if reply is None:
            self.close()
            pid, self._pid = self._pid, None
            raise OSError(f"backward-direction helper ended with status {_reap(pid)}")
        done, value = reply
        if not done:
            raise value
        return value

    def close(self):
        with contextlib.suppress(BrokenPipeError):
            self._jobs.close()

    def __exit__(self, failed, *exc):
        self.close()
        self._replies.close()
        if self._pid is not None:
            if failed is not None:
                os.kill(self._pid, signal.SIGKILL)
            _reap(self._pid)


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
    cr.check_growth_ball(s.manifold)
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
                        "max_speed": _finite_or_none(result.forward.max_speed),
                        "accepted_steps": result.forward.accepted},
            "backward": {"classification": result.backward.classification.kind,
                         "max_speed": _finite_or_none(result.backward.max_speed),
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
    cr.check_growth_ball(s.manifold)
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
    with _Backward(dy.compiled_system(m, fp)) as backward:
        for index in range(args.n):
            q = _sample_initial_point(m, rng)
            v = _sample_velocity(m, fp, q, rng, radius)
            result = dy.integrate_maximal(m, fp, geo.TrajectoryState(0.0, q, v), cfg,
                                           backward=backward)
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

        backward.close()  # the helper ends while the report is written
        doc = {
            "scenario": s.name,
            "n": args.n,
            "seed": args.seed,
            "velocity_radius": radius,
            "counts": dict(sorted(counts.items())),
            "classifications": classifications,
            "max_energy_drift": _finite_or_none(max_energy),
            "max_killing_drift": _finite_or_none(max_killing),
            "max_speed": _finite_or_none(max_speed),
            "max_certificate_bound": _finite_or_none(max_bound),
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
