"""Smoke test: the demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DEMOS = ("01_phantoms_and_noise.py", "02_metrics_tour.py", "03_audit_and_update.py",
         "04_projection_judge.py", "05_roc_workflow.py", "06_full_em_run.py")


def test_demos_exit_zero():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in DEMOS:
        proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{name} exited {proc.returncode}:\n{proc.stderr}"
