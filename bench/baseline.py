"""Run every workload untraced and traced; print the metrics and write
``bench/BENCH_<commit>.json`` with both runs of each workload.

    python3 bench/baseline.py [--seconds 20] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = {"seconds": args.seconds, "seed": args.seed, "workloads": {}}
    for name in run.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=True, timeout=600,
            )
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-2]), flush=True)
            entry["traced" if trace else "untraced"] = {
                "result": json.loads(lines[-1]),
                "detail": json.loads(lines[-2]),
            }
        out["workloads"][name] = entry
    commit = entry["untraced"]["detail"]["environment"]["commit"]
    path = HERE / f"BENCH_{commit[:12]}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
