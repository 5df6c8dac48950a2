"""Run every workload once and print its metrics as one table.

    python3 perfbench/report.py --seed 1 --seconds 22 [--trace 1]

Each workload runs through run.py in turn, so the numbers are the ones the
benchmark reports. Prints one row per metric, one column per workload, with
failed_frac last, and exits 1 if any workload's answers were wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=os.path.dirname(HERE),
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if "metrics" not in result:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = result

    names = list(results)
    metrics = list(dict.fromkeys(m for r in results.values() for m in r["metrics"]))
    print(f"{'metric':32s} {'unit':6s}" + "".join(f"{n:>15s}" for n in names))
    for m in metrics:
        unit = next(r["metrics"][m]["unit"] for r in results.values() if m in r["metrics"])
        cells = "".join(
            f"{results[n]['metrics'][m]['value']:>15.6g}" if m in results[n]["metrics"] else f"{'absent':>15s}"
            for n in names
        )
        print(f"{m:32s} {unit:6s}{cells}")
    print(f"{'failed_frac':32s} {'ratio':6s}" + "".join(f"{r['failed'] / r['attempted']:>15.6g}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
