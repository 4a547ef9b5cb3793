"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/record.py --seeds 1-10 [--workloads A,B] [--out FILE]

Runs bench/run.py once per workload and seed with tracing off, then once per
workload with tracing on (first seed), one run at a time.  Prints, for every
end-to-end metric, the median and the quartile spread as a share of the
median next to a third of the metric's bound in BENCHMARK.json, and writes
everything to FILE (JSON) when given.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    doc = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, correct = {}, True
        for seed in seeds:
            line, result = run_once(workload, seed, args.seconds, 0)
            doc.setdefault("provenance", line)
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, q2, q3 = stats.quartiles(vals)
            spread = stats.relative_spread(vals)
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            print(f"  {workload} {name}: median {q2:.6g} spread {spread:.4f} "
                  f"(a third of the bound: {bounds[name] / 3:.4f})", flush=True)
        _, traced = run_once(workload, seeds[0], args.seconds, 1)
        correct = correct and traced["correct"]
        doc["workloads"][workload] = {
            "correct": correct, "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
