"""Same-path gate: the statuses and iteration counts of a fixed set of solves,
compared with the committed fixture test_paths.json.

The solves are those of CI's bit digest whose paths hold on every OpenBLAS
kernel tried (SkylakeX, Haswell, Sandybridge, Prescott): the (20, 40) x 50
and (300, 600) x 3 pools from default_rng([1, i]) at tol = 1e-8 and
max_iters = 100, the per-step iteration counts of the 18 closed loops of
both digest lines, and the indices of the PSD-Hessian (seed 7) and LP
(seed 9) surveys that end Solved; the surveys' other statuses and counts
depend on the kernel, so they are not pinned. A change that alters a path
fails here, and its author regenerates the fixture with

    PYTHONPATH=src python tests/test_paths.py

and says in CHANGES.md which paths changed and why. The fixture is data:
regenerate it only with the change that moves a path.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from fbrs import PrimalDualPoint, QpProblem, SolverConfig, mpc, oracle
from fbrs.newton import Status, fbrs_solve

FIXTURE = pathlib.Path(__file__).with_suffix(".json")
CFG = SolverConfig(tol=1e-8, max_iters=100)


def pool_paths(n: int, q: int, count: int) -> list[list]:
    # [status, iterations] per QP of the digest's random pool
    paths = []
    for i in range(count):
        rng = np.random.default_rng([1, i])
        p = oracle.random_strictly_convex_qp(n, q, rng)
        result = fbrs_solve(p, oracle.random_infeasible_start(p, rng), CFG)
        paths.append([result.status.value, result.iterations])
    return paths


def survey_solved(seed: int) -> list[int]:
    # indices of the digest's PSD-Hessian (seed 7) or LP (seed 9) survey,
    # solved from zeros, that end Solved
    solved = []
    for i in range(100):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(2, 9))
        q = int(rng.integers(n + 1, 2 * n + 3))
        M = rng.standard_normal((max(n // 2, 1), n)) if seed == 7 else np.zeros((1, n))
        A = rng.standard_normal((q, n))
        b = rng.uniform(0.1, 1, q)
        f = rng.standard_normal(n)
        result = fbrs_solve(QpProblem(M.T @ M, f, A, b), PrimalDualPoint.zeros(n, q), CFG)
        if result.status == Status.SOLVED:
            solved.append(i)
    return solved


def _loop_specs() -> dict:
    x_hi = np.full(6, 3.0)
    specs = {
        "mass-spring-40": mpc.mass_spring_chain(40),
        "double-integrator-8": mpc.double_integrator(8),
        "mass-spring-8": mpc.mass_spring_chain(8),
        "double-integrator-40": mpc.double_integrator(40),
    }
    for N in (8, 40):
        specs[f"mass-spring-{N}-box"] = dataclasses.replace(mpc.mass_spring_chain(N), x_lo=-x_hi, x_hi=x_hi)
    return specs


LOOPS = [f"loop {name} {mode}" for name in _loop_specs() for mode in ("cold", "warm", "shift")]


def loop_paths(key: str) -> list[int]:
    # the iterations of each of the 50 steps of one closed loop ("loop
    # <spec> <mode>"), solved at run_sequence's default tol, as the digest
    # runs it
    _, name, mode = key.split()
    _, stats = mpc.run_sequence(_loop_specs()[name], 50, mode)
    return [record.iterations for record in stats.records]


def observed() -> dict:
    return {
        "pool-20-40": pool_paths(20, 40, 50),
        "pool-300-600": pool_paths(300, 600, 3),
        "survey-psd-solved": survey_solved(7),
        "survey-lp-solved": survey_solved(9),
        **{key: loop_paths(key) for key in LOOPS},
    }


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key, shape", [("pool-20-40", (20, 40, 50)), ("pool-300-600", (300, 600, 3))])
def test_pool_paths(fixture, key, shape):
    assert pool_paths(*shape) == fixture[key]


@pytest.mark.parametrize("key, seed", [("survey-psd-solved", 7), ("survey-lp-solved", 9)])
def test_survey_solved_sets(fixture, key, seed):
    assert survey_solved(seed) == fixture[key]


def test_closed_loop_paths(fixture):
    assert sorted(key for key in fixture if key.startswith("loop ")) == sorted(LOOPS)
    for key in LOOPS:
        assert loop_paths(key) == fixture[key], key


if __name__ == "__main__":
    # one line per pinned list, so a diff of the fixture names the solves
    # whose paths moved
    rows = (f" {json.dumps(key)}: {json.dumps(value)}" for key, value in observed().items())
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {FIXTURE}")
