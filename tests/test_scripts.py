import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--instances", "0"], "--instances"),
        (["--starts", "0"], "--starts"),
        (["-n", "0"], "-n"),
        (["-q", "-1"], "-q"),
        (["--tol", "0"], "--tol"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_convergence_study_rejects_bad_arguments(args, flag):
    proc = _run_script("convergence_study.py", *args)
    assert proc.returncode == 2, proc.stderr
    assert f"{flag} must be" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_convergence_study_reports_a_batch_that_never_solves():
    # at this size ||F_0|| does not fall to 1e-300 within the script's 100
    # iterations, so nothing solves and there are no iteration counts to report
    proc = _run_script("convergence_study.py", "--instances", "1", "--starts", "1", "--tol", "1e-300")
    assert proc.returncode == 0, proc.stderr
    assert "solved 0/1" in proc.stdout
    assert "iterations:" not in proc.stdout
