"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload query-wide --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is not installed: this script
imports it from ``src/`` and starts CLI processes with ``PYTHONPATH=src``.
``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``,
``--trace 1`` the per-layer ones. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; progress goes to stderr.

Exit codes: 0 with a result line, 2 when the repository to measure is not
there, 3 when the ``data/angles.csv`` pre-flight round trip fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "unarynet" / "__init__.py").is_file():
        print(f"error: no BENCHMARK.json or src/unarynet under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    sys.path.insert(0, str(SRC))
    import unarynet
    if Path(unarynet.__file__).resolve().parent != SRC / "unarynet":
        print(f"error: imported unarynet from {unarynet.__file__}", file=sys.stderr)
        return 2
    import workloads

    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.PreflightError as exc:
        print(f"error: pre-flight on {workloads.PREFLIGHT_DATA} failed: {exc}",
              file=sys.stderr)
        return 3
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(result.metrics) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(result.metrics)} != declared {sorted(units)}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
