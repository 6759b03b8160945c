import argparse
import dataclasses
import inspect
import subprocess
import sys

import numpy as np
import pytest

import fbrs
from fbrs.cli import TRACE_HEADER, build_parser, main
from fbrs.mpc import run_sequence
from fbrs.newton import SolverConfig
from fbrs.problem import QpProblem
from fbrs.qpfile import parse_qp, serialize_qp

TOY = """\
FBQP 1
n 1
q 1
H
1.0
f
-1.0
A
1.0
b
0.5
"""

SHARED_KERNEL = """\
FBQP 1
n 2
q 1
H
1.0 0.0
0.0 0.0
f
0.0 0.0
A
1.0 0.0
b
1.0
"""


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.qp"
    path.write_text(TOY)
    return path


def _parse_point(stdout: str):
    z = v = None
    for line in stdout.splitlines():
        if line.startswith("z "):
            z = np.array([float(t) for t in line.split()[1:]])
        if line.startswith("v "):
            v = np.array([float(t) for t in line.split()[1:]])
    return z, v


def test_solve_writes_trace_and_exits_zero(toy_file, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = main(["solve", "--input", str(toy_file), "--tol", "1e-8", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status Solved" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    iterations = int(out.split("iterations ")[1].split()[0])
    assert len(lines) == 1 + iterations + 1


def test_solve_solution_matches_oracle_output(toy_file, capsys):
    assert main(["solve", "--input", str(toy_file)]) == 0
    solve_out = capsys.readouterr().out
    assert main(["oracle", "--input", str(toy_file)]) == 0
    oracle_out = capsys.readouterr().out
    z1, v1 = _parse_point(solve_out)
    z2, v2 = _parse_point(oracle_out)
    assert np.allclose(z1, z2, atol=1e-6)
    assert np.allclose(v1, v2, atol=1e-6)


def test_solve_output_warmstart_round_trip(toy_file, tmp_path, capsys):
    solution = tmp_path / "solution.qp"
    assert main(["solve", "--input", str(toy_file), "--output", str(solution)]) == 0
    capsys.readouterr()
    # the emitted file embeds the solution as x0
    _, x0 = parse_qp(solution.read_text())
    assert x0 is not None
    code = main(["solve", "--input", str(toy_file), "--warmstart", str(solution)])
    out = capsys.readouterr().out
    assert code == 0
    assert "iterations 0" in out


def test_solve_embedded_x0_used(tmp_path, capsys):
    path = tmp_path / "warm.qp"
    path.write_text(TOY + "x0\n0.5 0.5\n")
    assert main(["solve", "--input", str(path)]) == 0
    assert "iterations 0" in capsys.readouterr().out


def test_solve_nonconverged_exits_one(toy_file, capsys):
    code = main(["solve", "--input", str(toy_file), "--max-iters", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status MaxIters" in out


def test_solve_non_finite_step_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.qp"
    path.write_text(TOY + "x0\n1.7e308 1.7e308\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["solve", "--input", str(path)])
    assert code == 1
    assert "status InvalidProblem" in capsys.readouterr().out


def test_solve_overflow_exits_one_without_warnings(tmp_path):
    # a child process, so that a floating-point warning would reach stderr
    path = tmp_path / "overflow.qp"
    path.write_text(serialize_qp(QpProblem([[1.0]], [0.0], [[1e300]], [0.0])) + "x0\n1e10 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fbrs", "solve", "--input", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "status InvalidProblem" in proc.stdout
    assert proc.stderr == ""


def test_solve_singular_system_exits_one(tmp_path, capsys):
    path = tmp_path / "singular.qp"
    path.write_text(serialize_qp(QpProblem([[0.0]], [1.0], [[0.0]], [1.0])))
    assert main(["solve", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "status InvalidProblem" in captured.out
    assert captured.err == ""


def test_solve_flag_variants(toy_file, capsys):
    for extra in (["--tol", "1e-6"], ["--max-iters", "50"], ["--tol", "1e-12", "--max-iters", "100"]):
        assert main(["solve", "--input", str(toy_file), *extra]) == 0
        assert "status Solved" in capsys.readouterr().out


def test_validate_pass_and_fail(toy_file, tmp_path, capsys):
    assert main(["validate", "--input", str(toy_file)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.qp"
    bad.write_text(SHARED_KERNEL)
    code = main(["validate", "--input", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "A3" in out


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.qp"
    path.write_text("FBQP 1\nn 1\nq 1\nH\noops\n")
    assert main(["solve", "--input", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["solve", "--input", "no/such/file.qp"]) == 2
    capsys.readouterr()


def test_usage_error_exits_two(capsys):
    assert main(["solve"]) == 2  # --input is required
    capsys.readouterr()
    assert main(["mpc", "--example", "pendulum"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--tol", "0"],
        ["solve", "--max-iters", "0"],
        ["validate", "--tol", "0"],
        ["mpc", "--example", "double-integrator", "--horizon", "0"],
        ["mpc", "--example", "double-integrator", "--steps", "0"],
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"],
        ["validate", "--tol", "nan"],
        ["mpc", "--example", "double-integrator", "--tol", "nan"],
    ],
)
def test_out_of_range_flag_exits_two(argv, toy_file, capsys):
    if argv[0] != "mpc":
        argv = [*argv, "--input", str(toy_file)]
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_oracle_too_large_exits_one(tmp_path, capsys):
    n = 9
    lines = ["FBQP 1", f"n {n}", "q 1", "H"]
    lines += [" ".join("1.0" if i == j else "0.0" for j in range(n)) for i in range(n)]
    lines += ["f", " ".join(["0.0"] * n), "A", " ".join(["1.0"] * n), "b", "1.0"]
    path = tmp_path / "big.qp"
    path.write_text("\n".join(lines) + "\n")
    assert main(["oracle", "--input", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_mpc_subcommand_writes_stats(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    code = main(["mpc", "--example", "double-integrator", "--steps", "5",
                 "--mode", "warm", "--stats", str(stats)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean_iterations" in out
    lines = stats.read_text().splitlines()
    assert lines[0] == "step,status,iterations,norm_F0,norm_Fnr,solve_time"
    assert len(lines) == 6


def test_mpc_subcommand_shift_mode(capsys):
    code = main(["mpc", "--example", "double-integrator", "--steps", "5", "--mode", "shift"])
    out = capsys.readouterr().out
    assert code == 0
    assert "steps 5 mode shift" in out


def test_settings_surface():
    # every setting a caller can vary; adding one means editing this list
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "max_iters"]
    assert list(inspect.signature(run_sequence).parameters) == ["spec", "steps", "start_mode", "cfg"]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(s for a in sub._actions for s in a.option_strings)
        for name, sub in subparsers.choices.items()
    }
    assert options == {
        "solve": sorted(["-h", "--help", "--input", "--tol", "--max-iters", "--warmstart", "--trace", "--output"]),
        "validate": sorted(["-h", "--help", "--input", "--tol"]),
        "oracle": sorted(["-h", "--help", "--input"]),
        "mpc": sorted(["-h", "--help", "--example", "--horizon", "--steps", "--mode", "--stats", "--tol"]),
    }
    mode = next(a for a in subparsers.choices["mpc"]._actions if a.dest == "mode")
    assert mode.choices == ["cold", "warm", "shift"]


def test_public_names():
    # the package's exports; adding or removing one means editing this list
    names = sorted(
        name for name, obj in vars(fbrs).items() if not name.startswith("_") and not inspect.ismodule(obj)
    )
    assert names == [
        "BUNDLED_EXAMPLES", "CholeskyFailure", "DegenerateKkt", "DimensionMismatch",
        "EnumerationTooLarge", "FbrsError", "InfeasibleProblem", "InvalidConfig", "InvalidProblem",
        "InvalidSpec", "IterationRecord", "KktReport", "LinesearchError", "LtiMpcSpec",
        "MpcSequenceError", "OracleError", "ParseError", "PrimalDualPoint", "QpProblem",
        "SequenceStats", "SingularSystem", "SolverConfig", "SolverResult", "Status", "Trajectory",
        "UnboundedProblem", "ValidationReport", "condense", "constraint_slack", "double_integrator",
        "fbrs_solve", "kkt_matrix", "linesearch", "mass_spring_chain", "objective", "parse_qp",
        "phi_eps", "random_infeasible_start", "random_strictly_convex_qp", "run_sequence",
        "serialize_qp", "shift_solution", "solve_by_enumeration", "solve_condensed", "solve_full",
        "validate_problem", "verify_kkt",
    ]


def test_module_entrypoint_runs(toy_file):
    proc = subprocess.run(
        [sys.executable, "-m", "fbrs", "solve", "--input", str(toy_file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status Solved" in proc.stdout
