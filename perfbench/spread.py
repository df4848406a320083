"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload em_loop --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed, one after another, and prints for every
end-to-end metric its median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound in BENCHMARK.json. A bench is steady when each
spread is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload:<14} {m['name']:<14} median {med:10.4g} {m['unit']:<6} "
              f"spread {(q3 - q1) / med:6.3f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
