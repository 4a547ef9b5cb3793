"""The worldline benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of bench/workloads.py from the root of a source checkout,
as a closed loop with one client: each ``worldline`` command is a fresh
single-threaded process (BLAS pinned to one thread), started only after the
previous one ended.  Set-up time is measured first, in fresh processes of its
own, then commands run for S seconds.  Every command's exit code and outputs
are checked, and a digest of every emitted file is printed.

With --trace 0 the end-to-end metrics are measured.  With --trace 1 the
first round of the workload is repeated as one fixed pass, alternately
untraced and traced (layers.py), which gives the per-layer metrics, the time
no layer span covers, and the tracing overhead.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  Seeds 1-15 were used while the
benchmark was built; seed HELD_OUT_SEED is kept for checking later claims.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import layers
import stats
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

HELD_OUT_SEED = 917
SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 90.0
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "trajectories_per_s": "1/s",
                    "command_s.p50": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; it exits without printing one."""


# --- processes -----------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, stdout_path, stderr_path):
    """Run child.py ARGS to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=out,
                                stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _stderr_tail(path) -> str:
    return _read(path).decode(errors="replace").strip()[-2000:]


class Runner:
    """Runs commands of one workload in a scratch directory of the checkout."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.sources = workload.sources(seed, workdir)
        self.expected = None
        self.digests = {}       # command key -> {file: sha256}
        self.digest_lines = []
        self.results = []
        self._n = 0

    def _paths(self):
        self._n += 1
        base = os.path.join(self.workdir, f"p{self._n}")
        return base + ".json", base + ".out", base + ".err", base + "-out"

    def setup(self) -> float:
        """One fresh set-up process; returns its wall time."""
        record, out, err, _ = self._paths()
        rc, wall, _ = spawn(["setup", record, *self.sources], out, err)
        if rc != 0:
            raise BenchError(f"set-up process failed with exit code {rc}:\n"
                             f"{_stderr_tail(err)}")
        with open(record) as fh:
            self.expected = json.load(fh)["expected"]
        return wall

    def execute(self, cmd, traced: bool, round_index: int) -> dict:
        record, out, err, outdir = self._paths()
        rc, wall, rss = spawn(["cli", record, "1" if traced else "0", "--",
                               *cmd.argv(outdir)], out, err)
        stdout = _read(out)
        problems = workloads.check_outputs(cmd, rc, stdout, outdir, self.expected)
        if traced and "HookError:" in _read(err).decode(errors="replace"):
            raise BenchError(f"tracing hook failed:\n{_stderr_tail(err)}")
        digest = {"stdout": hashlib.sha256(stdout).hexdigest()}
        written = len(stdout)
        if os.path.isdir(outdir):
            for name in sorted(os.listdir(outdir)):
                data = _read(os.path.join(outdir, name))
                digest[name] = hashlib.sha256(data).hexdigest()
                written += len(data)
            shutil.rmtree(outdir)
        known = self.digests.setdefault(cmd.key, digest)
        if known is digest:
            self.digest_lines.extend(f"digest {cmd.key} | {name} {sha[:16]}"
                                     for name, sha in digest.items())
        elif known != digest:
            problems.append("output bytes differ from an identical earlier command")
        try:
            with open(record) as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            rec = {}
        if problems:
            print(f"FAILED {cmd.key}: {'; '.join(problems)}\n{_stderr_tail(err)}",
                  file=sys.stderr)
        res = {"cmd": cmd, "round": round_index, "traced": traced, "wall": wall,
               "rss": rss, "problems": problems, "record": rec, "bytes": written}
        self.results.append(res)
        return res


# --- the two kinds of run ----------------------------------------------------------

def _post_setup_s(res) -> float:
    rec = res["record"]
    if "setup_done" not in rec:
        raise BenchError(f"{res['cmd'].key}: dynamics.compiled_system was never "
                         "called, so set-up cannot be separated from the command")
    return rec["end"] - rec["setup_done"]


def timed_run(runner: Runner, seconds: float):
    setup_walls = [runner.setup() for _ in range(SETUP_REPEATS)]
    deadline = time.perf_counter() + seconds
    for r, commands in enumerate(runner.workload.rounds(runner.seed, runner.sources)):
        for cmd in commands:
            if runner.results and time.perf_counter() >= deadline:
                return _end_to_end(runner, setup_walls, complete_rounds=r)
            runner.execute(cmd, traced=False, round_index=r)


def _end_to_end(runner, setup_walls, complete_rounds):
    """End-to-end metrics over the complete rounds, which all hold the same
    mix of commands."""
    results = runner.results
    walls = [r["wall"] for r in results]
    rounds = [[r for r in results if r["round"] == i] for i in range(complete_rounds)]
    rounds = rounds or [results]

    moving = [r for rnd in rounds for r in rnd if r["cmd"].trajectories]
    trajectories = sum(r["cmd"].trajectories for r in moving)

    def round_median(figure):
        return stats.quartiles([figure(rnd) for rnd in rounds])[1]

    metrics = {
        "setup_s": stats.quartiles(setup_walls)[1],
        "trajectories_per_s": trajectories / sum(_post_setup_s(r) for r in moving),
        "command_s.p50": stats.quartiles(walls)[1],
        "peak_rss_mb": round_median(lambda rnd: max(r["rss"] for r in rnd)),
    }
    per_round = f"median over {len(rounds)} rounds of {len(rounds[0])} commands"
    notes = {
        "setup_s": f"median of {len(setup_walls)} fresh processes",
        "trajectories_per_s": f"{trajectories} trajectories of {len(rounds)} rounds, "
                              "set-up excluded",
        "command_s.p50": f"median of {len(walls)} commands",
        "peak_rss_mb": f"largest command process of a round; {per_round}",
    }
    lines = [f"metric {k} {v!r} {END_TO_END_UNITS[k]} ({notes[k]})"
             for k, v in metrics.items()]
    p = stats.tail_percentile(len(walls))
    if p is None:
        lines.append(f"metric command_s.p90 n/a (n={len(walls)}: no percentile above "
                     f"the median has {stats.TAIL_SAMPLES_BEYOND} samples beyond it)")
    else:
        why = "" if p == 90 else f"; p90 needs n>={10 * stats.TAIL_SAMPLES_BEYOND}"
        lines.append(f"metric command_s.p{p} {stats.percentile(walls, p)!r} s "
                     f"(n={len(walls)}{why})")
    for kind in ("check", "run"):
        if any(r["cmd"].kind == kind for r in results):
            total = round_median(lambda rnd: sum(r["wall"] for r in rnd
                                                 if r["cmd"].kind == kind))
            lines.append(f"metric {kind}_s {total!r} s (summed over a round; {per_round})")
    return metrics, END_TO_END_UNITS, lines


def traced_run(runner: Runner, seconds: float):
    runner.setup()
    one_pass = next(runner.workload.rounds(runner.seed, runner.sources))
    deadline = time.perf_counter() + seconds
    walls = {False: [], True: []}
    per_pass = []
    traced = False
    while not (walls[True] and time.perf_counter() >= deadline):
        done = [runner.execute(cmd, traced, len(per_pass)) for cmd in one_pass]
        walls[traced].append(sum(r["wall"] for r in done))
        if traced:
            per_pass.append(_pass_layers(done))
        traced = not traced
    for later in per_pass[1:]:
        for key in layers.COUNTS:
            if later[key] != per_pass[0][key]:
                runner.results[-1]["problems"].append(
                    f"{key} differs between passes over the same inputs")
    metrics = {}
    for key in layers.LAYER_UNITS:
        if key == "trace.overhead_pct":
            continue
        values = [m[key] for m in per_pass]
        metrics[key] = values[0] if key in layers.COUNTS else stats.quartiles(values)[1]
    untraced = stats.quartiles(walls[False])[1]
    metrics["trace.overhead_pct"] = 100.0 * (stats.quartiles(walls[True])[1] / untraced - 1.0)
    lines = [f"layer {k} {v!r} {layers.LAYER_UNITS[k]}" for k, v in metrics.items()]
    lines.append(f"layer passes: {len(walls[True])} traced, {len(walls[False])} untraced, "
                 f"{len(one_pass)} commands each; times are medians over traced passes")
    return metrics, layers.LAYER_UNITS, lines


def _pass_layers(done) -> dict:
    spans, counts = {}, {}
    for res in done:
        rec = res["record"]
        if "spans" not in rec:
            raise BenchError(f"{res['cmd'].key}: traced process wrote no spans")
        for path, (c, t, s) in rec["spans"].items():
            acc = spans.setdefault(path, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += t
            acc[2] += s
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return layers.layer_metrics(
        spans, counts,
        wall_s=sum(r["wall"] for r in done),
        import_s=sum(r["record"]["import_s"] for r in done),
        bytes_written=sum(r["bytes"] for r in done))


# --- provenance ------------------------------------------------------------------

def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        ref = _read(head).decode().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            return _read(loose).decode().strip()
        for line in _read(os.path.join(ROOT, ".git", "packed-refs")).decode().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "worldline"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0" + _read(path))
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in _read("/proc/cpuinfo").decode().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> str:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"provenance python={platform.python_version()} numpy={numpy_version} "
            f"nproc={os.cpu_count()} cpu={_cpu_model()!r} loadavg={load} "
            f"blas_threads=1 commit={_commit()} src_sha256={_src_digest()}")


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "worldline", "__init__.py")):
        print(f"benchmark: no worldline sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(provenance(), flush=True)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK)
    try:
        runner = Runner(workload, args.seed, workdir)
        run = traced_run if args.trace else timed_run
        metrics, units, lines = run(runner, args.seconds)
    except (BenchError, layers.HookError) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    attempted = len(runner.results)
    failed = sum(1 for r in runner.results if r["problems"])
    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commands={attempted}")
    for line in runner.digest_lines + lines:
        print(line)
    print(f"metric error_rate {stats.error_rate(failed, attempted)!r} 1 "
          f"({failed} of {attempted} commands failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
