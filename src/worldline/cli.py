"""Command line front end: run, check, sweep.

All emitted files are deterministic for a fixed scenario and seed: floats are
printed with repr, JSON keys are sorted, and nothing records wall-clock time.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import os
import pickle
import random
import select
import signal
import struct
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


_SIZE = struct.Struct("<Q")  # a message to or from a child: bytes of its pickle


def _frame(message) -> bytes:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _SIZE.pack(len(data)) + data


def _receive(fh):
    """The next message from ``fh``, or None at the end of the pipe."""
    header = fh.read(_SIZE.size)
    if len(header) < _SIZE.size:
        return None
    (size,) = _SIZE.unpack(header)
    data = fh.read(size)
    return pickle.loads(data) if len(data) == size else None


def _portable(err: Exception) -> Exception:
    """``err`` if ``pickle`` brings it back with its own type, else an
    ``OSError`` with its type's name and text."""
    try:
        same = type(pickle.loads(pickle.dumps(err))) is type(err)
    except Exception:
        same = False
    return err if same else OSError(f"{type(err).__name__}: {err}")


class _Child:
    """A child process that answers the messages a command sends it, and
    the two pipes to it: jobs down, replies up, each message framed by
    ``_frame``.  A subclass answers in ``serve`` and names the child in
    ``what``.

    Entering forks the child (POSIX ``fork``), after flushing stdout and
    stderr, so that it inherits no buffered text.  The child runs
    ``serve(messages)``, a generator over the messages read until the job
    pipe closes, and sends back ``(True, value)`` for each value it yields.
    Its first error ends it and is its last reply, ``(False, error)``, with
    the error as ``_portable`` makes it.  The child leaves only through
    ``os._exit``.  If ``fork`` fails, entering closes the pipes it made.

    ``send`` writes bytes of framed jobs and tells whether the child is
    still there to read them.  ``receive`` gives the next value, raises the
    child's error, or, when the replies end without one, reaps the child and
    raises ``OSError`` naming ``what`` and its exit status.  ``close`` ends
    the job stream.  Leaving closes both pipes and reaps the child, killing
    it first when an error is on its way out, so that no command waits for
    work it will not read.  A command killed mid-way closes the pipes too:
    the child ends at the end of the jobs, or when its reply finds no reader.
    """

    def __enter__(self):
        fds = []
        try:
            for _ in range(2):  # the job pipe, then the reply pipe
                fds += os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            self._pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        jobs_in, jobs_out, replies_in, replies_out = fds
        if self._pid == 0:
            code = 1
            try:
                os.close(jobs_out)
                os.close(replies_in)
                with open(jobs_in, "rb") as src, open(replies_out, "wb") as out:
                    try:
                        for value in self.serve(iter(lambda: _receive(src), None)):
                            out.write(_frame((True, value)))
                            out.flush()
                    except Exception as err:
                        out.write(_frame((False, _portable(err))))
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_in)
        os.close(replies_out)
        self._pipe, self._replies = open(jobs_out, "wb"), open(replies_in, "rb")
        return self

    def send(self, data: bytes) -> bool:
        try:
            self._pipe.write(data)
            self._pipe.flush()
        except BrokenPipeError:
            return False
        return True

    def receive(self):
        reply = _receive(self._replies)
        if reply is None:
            raise OSError(f"{self.what} ended with status {self._reap()}")
        done, value = reply
        if not done:
            raise value
        return value

    def close(self):
        with contextlib.suppress(BrokenPipeError):
            self._pipe.close()

    def _reap(self) -> int:
        """Wait for the child; its exit code, or minus the signal that ended
        it."""
        pid, self._pid = self._pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def __exit__(self, failed, *exc):
        self.close()
        self._replies.close()
        if self._pid is not None:
            if failed is not None:
                os.kill(self._pid, signal.SIGKILL)
            self._reap()


class _Spool(_Child):
    """The sample table of ``run`` as text, printed by a writer process while
    the run integrates, so that the run neither holds more than one block
    of the table nor formats a float of it.

    Entering opens one anonymous spool file per direction and forks the
    writer (a ``_Child``).  The run starts no thread; the writer calls no
    BLAS routine, so an idle BLAS thread pool that the fork leaves behind
    does not matter to it.  ``add`` sends a block's rows, a float64 array,
    as one job; the writer prints them through ``row + sep`` (see
    ``_table_text``) to the spool file of their direction, and once the
    jobs end it replies with the (start, size) in bytes of each backward
    block.  Its errors reach the run as ``OSError`` ("sample table writer
    failed: ..."), from ``add`` once the writer is gone or from ``pieces``.
    ``pieces`` ends the jobs, takes the spans and reads the table back in
    increasing t: the backward blocks last to first, then the forward ones,
    without the ``sep`` after the last row, which is a forward one.  Leaving
    closes the spool files, which vanish.
    """

    what = "sample table writer"

    def __init__(self, row: str, sep: str = "", nonfinite=None):
        self._format = row + sep, nonfinite
        self._sep = len(sep)

    def __enter__(self):
        self._files = tempfile.TemporaryFile(), tempfile.TemporaryFile()  # forward, backward
        try:
            return super().__enter__()
        except BaseException:
            for fh in self._files:
                fh.close()
            raise

    def __exit__(self, *exc):
        try:
            super().__exit__(*exc)
        finally:
            for fh in self._files:
                fh.close()

    def serve(self, blocks):
        spans = []
        try:
            for backward, rows in blocks:
                fh = self._files[backward]
                start = fh.tell()
                fh.writelines(_table_text(rows[::-1] if backward else rows, *self._format))
                if backward:
                    spans.append((start, fh.tell() - start))
            for fh in self._files:
                fh.flush()
        except Exception as err:
            raise OSError(f"{self.what} failed: {type(err).__name__}: {err}")
        yield spans

    def add(self, columns, backward: bool):
        if not self.send(_frame((backward, np.column_stack(columns)))):
            self.receive()  # the writer replies only after the last block: raises

    def pieces(self, head: bytes, tail: bytes = b""):
        """``head``, the table, then ``tail``: the table in pieces of at most
        ``_COPY_BYTES``, so that no block's text is held at once.  The
        writer's reply is taken here, before the first piece is asked for."""
        self.close()
        return self._read(head, self.receive(), tail)

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


# the bytes of the jobs a sweep has sent and not had answered stay within
# this; a pipe always holds that much, so sending them never waits
_QUEUE_BYTES = select.PIPE_BUF


class _Backward(_Child):
    """The backward directions of a sweep, integrated by a helper process on
    the other core while the sweep integrates the forward ones, from the
    start states of ``draws`` under ``cfg``.

    Entering forks the helper (a ``_Child``) once the sweep's system is
    compiled, so that it inherits the compiled system and the cached
    verdicts of the sampled checks; there is one helper per sweep, whatever
    its size.  The helper answers each job (start state, config) with
    ``dynamics.backward_half``, in the order of the jobs, and stops at its
    first error.  The sweep starts no thread, and numpy's OpenBLAS, which
    the helper's fold may call, restarts its thread pool in a forked child.

    Iterating gives the start states of ``draws`` in order, each drawn when
    the iteration or the queue first needs it; a draw that raises is held,
    and the iteration raises it in its place, after the trajectories before
    it.  As the ``backward`` of ``dynamics.integrate_maximal``, a call with
    the start state the iteration gave last and ``cfg`` sends that start's
    job unless it went ahead, then queues the jobs of the next starts behind
    it, in one write, while the jobs sent and not answered stay within
    ``_QUEUE_BYTES``.  So the helper runs ahead, and a sweep takes about the
    longer of its forward and backward sums, not the sum of the longer of
    each pair.  No write waits, whatever the size of a reply: the jobs in
    the pipe are among those not answered, and a pipe holds ``PIPE_BUF``
    bytes.  A larger job goes alone, when nothing else is outstanding.  The
    call returns the function that takes the reply, in the order of the
    trajectories and after the forward direction: the backward report and
    its fold values, or the backward error, raised with its type and
    message; a helper that is gone makes it raise ``OSError``.  A sweep
    killed mid-way leaves the helper to finish the backward direction it is
    in, fail to send it, and end.
    """

    what = "backward-direction helper"

    def __init__(self, sysd, cfg, draws):
        self._sysd, self._cfg, self._draws = sysd, cfg, draws
        self._starts = collections.deque()  # drawn, not yet given by the iteration
        self._jobs = collections.deque()  # framed jobs drawn, not yet sent
        self._unread = collections.deque()  # bytes of each job sent and not answered

    def serve(self, jobs):
        for job in jobs:
            yield dy.backward_half(self._sysd, *job)

    def _draw(self) -> bool:
        """Draw the next start state; False when the draws are done.  A draw
        that raises is held in its place and ends the draws."""
        try:
            s0 = next(self._draws, None)
        except Exception as err:
            self._starts.append(err)
            return False
        if s0 is None:
            return False
        self._starts.append(s0)
        self._jobs.append(_frame((s0, self._cfg)))
        return True

    def __iter__(self):
        while self._starts or self._draw() or self._starts:  # or the draw failed
            s0 = self._starts.popleft()
            if isinstance(s0, Exception):
                raise s0
            yield s0

    def __call__(self, s0, cfg):
        if not self._unread:  # every earlier reply is read: s0's job did not go ahead
            self._send_jobs(1)
        count, queued = 0, sum(self._unread)
        while ((count < len(self._jobs) or self._draw())
               and queued + len(self._jobs[count]) <= _QUEUE_BYTES):
            queued += len(self._jobs[count])
            count += 1
        if count:
            self._send_jobs(count)
        return self._reply

    def _send_jobs(self, count):
        """Send the next ``count`` jobs in one write."""
        batch = [self._jobs.popleft() for _ in range(count)]
        self._unread.extend(map(len, batch))
        self.send(b"".join(batch))  # a helper gone fails the reply

    def _reply(self):
        value = self.receive()
        self._unread.popleft()
        return value


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


def _draw_starts(m: geo.ManifoldSpec, fp: fl.FieldPack, rng, radius: float, n: int):
    """The ``n`` start states of a sweep, each drawn from ``rng`` when it is
    asked for."""
    for _ in range(n):
        q = _sample_initial_point(m, rng)
        yield geo.TrajectoryState(0.0, q, _sample_velocity(m, fp, q, rng, radius))


def cmd_sweep(args) -> int:
    """Classify ``-n`` trajectories from start points drawn with ``--seed``.

    The forward directions run here and the backward ones in a helper
    process (``_Backward``), which takes the jobs of the coming trajectories
    ahead of the sweep; the bytes are those of the one-process integration.
    The points are drawn after the system is compiled, in order, from one
    ``random.Random(seed)``, as far as the helper's queue needs them."""
    if args.n <= 0:
        raise geo.ValidationError("ensemble size -n must be positive")
    if args.seed < 0:
        raise geo.ValidationError("--seed must be non-negative")
    s = cat.resolve(args.scenario)
    cr.check_growth_ball(s.manifold)
    cfg = _resolved_config(s, args)
    radius = s.velocity_radius
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
    draws = _draw_starts(m, fp, random.Random(args.seed), radius, args.n)
    with _Backward(dy.compiled_system(m, fp), cfg, draws) as backward:
        for index, s0 in enumerate(backward):
            result = dy.integrate_maximal(m, fp, s0, cfg, backward=backward)
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
            rows.append([float(index), *map(float, s0.q), *map(float, s0.v), cls.kind,
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
