"""Same-path gate and bit digests over one fixed set of solves: the
(20, 40) x 50 and (300, 600) x 3 pools (conftest.pool) at tol = 1e-8 and
max_iters = 100, the PSD-Hessian (seed 7) and LP (seed 9) surveys from zeros
(conftest.survey), which take the merit-gradient step, and the 18 closed
loops of LOOPS at run_sequence's default tol.

The tests compare what the committed fixture test_paths.json pins of them,
the paths that hold on every OpenBLAS kernel tried (SkylakeX, Haswell,
Sandybridge, Prescott): each pool solve's status and iterations, each loop
step's iterations and the survey indices that end Solved. Run as a script,

    PYTHONPATH=src python tests/test_paths.py

it solves the set once, rewrites the fixture and prints two bit digest
lines: a SHA-256 over each solve's status, iterations, bits of x and trace
records' norm_Feps, t, delta and backtracks, in the fixture's key order,
the first line over the first ten keys. The bits depend on the BLAS build,
so compare them on one machine; a clean `git diff` of the fixture means no
path moved. A third line hashes the (20, 40) pool from C- and from
Fortran-ordered H and A, and the script exits non-zero when they differ.
A change that moves a path commits the rewritten fixture and says in
CHANGES.md which paths moved and why.
"""

import dataclasses
import hashlib
import itertools
import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from fbrs import QpProblem, SolverConfig, mpc, newton
from fbrs.newton import Status, fbrs_solve

from conftest import pool, survey

FIXTURE = pathlib.Path(__file__).with_suffix(".json")
CFG = SolverConfig(tol=1e-8, max_iters=100)
POOLS = {"pool-20-40": (20, 40, 50), "pool-300-600": (300, 600, 3)}
SURVEYS = {"survey-psd-solved": 7, "survey-lp-solved": 9}
MODES = ("cold", "warm", "shift")


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


LOOPS = [f"loop {name} {mode}" for name in _loop_specs() for mode in MODES]
# the first bit digest line hashes the solves of the first ten fixture keys
FIRST_DIGEST_KEYS = 10


def solve_each(instances) -> list:
    return [fbrs_solve(p, x0, CFG) for p, x0 in instances]


def solve_loop(key: str) -> list:
    # the results of the 50 steps of one closed loop ("loop <spec> <mode>")
    _, name, mode = key.split()
    results = []

    def capture(*args):
        results.append(fbrs_solve(*args))
        return results[-1]

    with mock.patch.object(mpc, "fbrs_solve", capture):
        mpc.run_sequence(_loop_specs()[name], 50, mode)
    return results


def paths(key: str, results) -> list:
    # what the fixture pins of one key's results
    if key in POOLS:
        return [[result.status.value, result.iterations] for result in results]
    if key in SURVEYS:
        return [i for i, result in enumerate(results) if result.status == Status.SOLVED]
    return [result.iterations for result in results]


def solved():
    """Yield (key, results) for each fixture key, in the fixture's order."""
    for key, shape in POOLS.items():
        yield key, solve_each(pool(*shape))
    for key, seed in SURVEYS.items():
        yield key, solve_each(survey(seed))
    for key in LOOPS:
        yield key, solve_loop(key)


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_keys_are_in_hashing_order(fixture):
    # the script hashes the keys in this order, the first digest line over
    # the pools, the surveys and the mass-spring N=40 and double-integrator
    # N=8 loops; a reordered fixture would move solves between the lines
    first_loops = [f"loop {name} {mode}" for name in ("mass-spring-40", "double-integrator-8") for mode in MODES]
    assert list(fixture) == [*POOLS, *SURVEYS, *LOOPS]
    assert list(fixture)[:FIRST_DIGEST_KEYS] == [*POOLS, *SURVEYS, *first_loops]


@pytest.mark.parametrize("key, shape", POOLS.items())
def test_pool_paths(fixture, key, shape):
    assert paths(key, solve_each(pool(*shape))) == fixture[key]


@pytest.mark.parametrize("key, seed", SURVEYS.items())
def test_survey_solved_sets(fixture, key, seed):
    assert paths(key, solve_each(survey(seed))) == fixture[key]


def test_closed_loop_paths(fixture):
    assert sorted(key for key in fixture if key.startswith("loop ")) == sorted(LOOPS)
    for key in LOOPS:
        assert paths(key, solve_loop(key)) == fixture[key], key


def _hash(into, result) -> None:
    into.update(f"{result.status.value} {result.iterations}".encode())
    into.update(result.x.z.tobytes() + result.x.v.tobytes())
    for rec in result.trace:
        into.update(np.array([rec.norm_Feps, rec.t, rec.delta, rec.backtracks], dtype=float).tobytes())


def main() -> None:
    pinned, sets = {}, solved()
    with mock.patch.object(newton, "_merit_gradient", side_effect=newton._merit_gradient) as gradient:
        for label, count in (("bit digest", FIRST_DIGEST_KEYS), ("second bit digest", None)):
            digest, iterations = hashlib.sha256(), []
            gradient.reset_mock()
            for key, results in itertools.islice(sets, count):
                pinned[key] = paths(key, results)
                for result in results:
                    _hash(digest, result)
                    iterations.append(result.iterations)
            print(f"{label} {digest.hexdigest()} over {len(iterations)} solves, {sum(iterations)} iterations, "
                  f"{gradient.call_count} gradient steps")
    # one line per key, so a diff of the fixture names the solves whose
    # paths moved
    rows = (f" {json.dumps(key)}: {json.dumps(value)}" for key, value in pinned.items())
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    layouts = {order: hashlib.sha256() for order in "CF"}
    for p, x0 in pool(*POOLS["pool-20-40"]):
        for order, into in layouts.items():
            twin = QpProblem(np.array(p.H, order=order), p.f, np.array(p.A, order=order), p.b)
            _hash(into, fbrs_solve(twin, x0, CFG))
    c_digest, f_digest = (layouts[order].hexdigest() for order in "CF")
    print(f"layout digest {c_digest} (C-ordered), {f_digest} (Fortran-ordered)")
    if c_digest != f_digest:
        raise SystemExit("a Fortran-ordered H and A change the bits of the solve")


if __name__ == "__main__":
    main()
