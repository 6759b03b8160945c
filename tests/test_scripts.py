import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_convergence_study_runs():
    proc = _run_script("convergence_study.py", "--instances", "3", "--starts", "1", "-n", "6", "-q", "12")
    assert proc.returncode == 0, proc.stderr
    assert "solved 3/3" in proc.stdout
