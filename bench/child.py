"""One fresh worldline process, started by run.py.

    python3 bench/child.py setup RECORD SCENARIO...
        import worldline, resolve each scenario and make its first
        dynamics.compiled_system call; record each scenario's expectations.
    python3 bench/child.py cli RECORD TRACE -- ARGV...
        run ``worldline ARGV`` (cli.main) and exit with its code.  With TRACE=1
        the layers are wrapped by layers.install and the spans are recorded.

RECORD is a JSON file the process writes on exit.  The caller sets PYTHONPATH
to the checkout's ``src`` and pins the BLAS thread pools to one thread.
"""

from __future__ import annotations

import json
import os
import sys
import time

_START = time.perf_counter()

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_worldline():
    import worldline
    here = os.path.dirname(os.path.abspath(worldline.__file__))
    if os.path.commonpath([here, _SRC]) != _SRC:
        raise SystemExit(f"benchmark: imported worldline from {here}, not from {_SRC}")


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def setup(record_path, sources):
    _import_worldline()
    from worldline import catalog, dynamics
    expected = {}
    for source in sources:
        s = catalog.resolve(source)
        dynamics.compiled_system(s.manifold, s.fields)
        expected[source] = {"name": s.name,
                            "classification": s.expected_classification,
                            "prediction": s.expected_prediction}
    _write(record_path, {"expected": expected})
    return 0


def run_cli(record_path, traced, argv):
    _import_worldline()
    from worldline import cli, dynamics
    import_s = time.perf_counter() - _START
    doc = {"import_s": import_s}
    if traced:
        import layers
        tracer = layers.Tracer()
        main = layers.install(tracer)
    else:
        # the one probe of an untraced run: when the first compiled system is
        # ready, set-up (import, resolve, first compile) is over
        compiled_system = dynamics.compiled_system

        def probe(m, fp):
            sysd = compiled_system(m, fp)
            doc.setdefault("setup_done", time.perf_counter() - _START)
            return sysd

        dynamics.compiled_system = probe
        main = cli.main
    rc = main(argv)
    sys.stdout.flush()
    doc["end"] = time.perf_counter() - _START
    if traced:
        doc.update(tracer.to_dict())
    _write(record_path, doc)
    return rc


def main(args):
    if args[0] == "setup":
        return setup(args[1], args[2:])
    if args[0] == "cli" and args[3] == "--":
        return run_cli(args[1], args[2] == "1", args[4:])
    raise SystemExit(f"usage: child.py setup RECORD SCENARIO... | cli RECORD TRACE -- ARGV...")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
