"""Record reference output digests for run seeds, into references.json.

    python3 perfbench/record.py --seeds 0-10
    python3 perfbench/record.py --seeds 424242 --held-out

Each run seed covers its ``CORPORA`` corpus seeds. Record at a commit whose
outputs are known to be right; a later change that keeps outputs identical
keeps matching them. Held-out seeds are recorded the same way but listed
separately: no change is tuned on them, so a gain can be confirmed there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import Run, RunError
from spread import seed_range
from workloads import (REFERENCES, ROOT, WORKLOADS, cli_argv, corpus_seeds,
                       load_references, write_config)


def record(workload_name: str, seed: int) -> dict[str, str]:
    work = ROOT / ".perfbench_work" / f"record-{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[workload_name], seed, work)
        run.refs = {}
        write_config(run.workload, run.config)
        for i in range(len(corpus_seeds(seed))):
            run.setup(i)
            out = work / f"out_{i}"
            sample = run.spawn(cli_argv(run.command(i, out)), f"run_{i}")
            run.check(f"run_{i}", i, out, sample.returncode)
        if run.failures:
            raise RunError(f"{workload_name} seed {seed} failed")
        return {str(k): v for k, v in run.seen.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-10 or 7")
    parser.add_argument("--held-out", action="store_true",
                        help="list these run seeds as held out")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="only this workload (repeatable; default all)")
    args = parser.parse_args()
    refs = load_references()
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            refs.setdefault(name, {}).update(record(name, seed))
            print(f"recorded {name} seed {seed}", flush=True)
            if args.held_out:
                held = refs.setdefault("held_out_seeds", {}).setdefault(name, [])
                held[:] = sorted(set(held) | {seed})
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
