"""Seeded decode benchmark for the bild package.

    python3 perfbench/run.py --workload ngram-long --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout: the package is imported from that
checkout's ``src/`` and nowhere else. ``--trace 0`` times the workload and
reports the end-to-end metrics; ``--trace 1`` runs one round of the
workload's fixed task set once plainly and once traced and reports the
per-layer metrics.
Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload in its
own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "bild"
DEFAULT_SEED = 0  # the seed whose output digests are recorded in digests.json

# Single-threaded numerics, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no package source under {SOURCE}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import bild

    if Path(bild.__file__).resolve().parent != SOURCE.resolve():
        print(f"error: imported bild from {bild.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import bench_run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in bench_run.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, report = bench_run.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, DEFAULT_SEED)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    values = result.pop("values")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for m in result["metrics"].values():
        if m["value"] != m["value"]:  # NaN: nothing was measured
            m["value"] = None
            result["correct"] = False
    for line in report:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']!s:>22} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results, code = {}, 0
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {w['name']} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        results[w["name"]] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
