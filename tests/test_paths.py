"""Same-path gate and bit digests over one fixed set of solves: the
(20, 40) x 50, (100, 200) x 20 and (300, 600) x 3 pools (conftest.pool) at
tol = 1e-8 and max_iters = 100, the PSD-Hessian (seed 7) and LP (seed 9)
surveys from zeros (conftest.survey), which take the merit-gradient step,
and the 18 closed loops of LOOPS at run_sequence's default tol.

The tests solve the set once, in the module-scoped `runs` fixture, and every
check of it reads those results: the paths that the committed fixture
test_paths.json pins, which hold on every OpenBLAS kernel tried (SkylakeX,
Haswell, Sandybridge, Prescott): each pool solve's status and iterations,
each loop step's iterations and the survey indices that end Solved; the
certified stop; and the gradient steps, which only the surveys take. Run
as a script,

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_paths.py

it solves the set once, rewrites the fixture and prints two bit digest
lines: a SHA-256 over each solve's status, iterations, bits of x and trace
records' norm_Feps, t, delta and backtracks, in the fixture's key order,
the first line over the first eleven keys. The bits depend on the BLAS
build and its thread count, so compare them on one machine with one BLAS
thread; a clean `git diff` of the fixture means no path moved. A third line
hashes the (20, 40) pool from C- and from Fortran-ordered H and A, and the
script exits non-zero when they differ. A change that moves a path commits
the rewritten fixture and says in CHANGES.md which paths moved and why.
"""

import dataclasses
import hashlib
import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from fbrs import QpProblem, SolverConfig, mpc, newton
from fbrs.newton import Status, fbrs_solve

from conftest import in_f0_band, pool, survey

FIXTURE = pathlib.Path(__file__).with_suffix(".json")
CFG = SolverConfig(tol=1e-8, max_iters=100)
POOLS = {"pool-20-40": (20, 40, 50), "pool-100-200": (100, 200, 20), "pool-300-600": (300, 600, 3)}
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
KEYS = [*POOLS, *SURVEYS, *LOOPS]
# the first bit digest line hashes the solves of the first eleven fixture keys
FIRST_DIGEST_KEYS = 11


def _solve(p, x0, cfg) -> tuple:
    # (tol, result, merit-gradient steps) of one solve
    with mock.patch.object(newton, "_merit_gradient", side_effect=newton._merit_gradient) as gradient:
        result = fbrs_solve(p, x0, cfg)
    return cfg.tol, result, gradient.call_count


def _solve_loop(key: str) -> list:
    # the solves of the 50 steps of one closed loop ("loop <spec> <mode>")
    _, name, mode = key.split()
    solves = []

    def capture(p, x0, cfg):
        solves.append(_solve(p, x0, cfg))
        return solves[-1][1]

    with mock.patch.object(mpc, "fbrs_solve", capture):
        mpc.run_sequence(_loop_specs()[name], 50, mode)
    return solves


def solved():
    """Yield (key, [(tol, result, gradient_steps) per solve]) for each
    fixture key, in the fixture's order."""
    for key, shape in POOLS.items():
        yield key, [_solve(p, x0, CFG) for p, x0 in pool(*shape)]
    for key, seed in SURVEYS.items():
        yield key, [_solve(p, x0, CFG) for p, x0 in survey(seed)]
    for key in LOOPS:
        yield key, _solve_loop(key)


def paths(key: str, solves) -> list:
    # what the fixture pins of one key's solves
    if key in POOLS:
        return [[result.status.value, result.iterations] for _, result, _ in solves]
    if key in SURVEYS:
        return [i for i, (_, result, _) in enumerate(solves) if result.status == Status.SOLVED]
    return [result.iterations for _, result, _ in solves]


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def runs():
    return dict(solved())


def test_fixture_keys_are_in_hashing_order(fixture):
    # the script hashes the keys in this order, the first digest line over
    # the pools, the surveys and the mass-spring N=40 and double-integrator
    # N=8 loops; a reordered fixture would move solves between the lines
    first_loops = [f"loop {name} {mode}" for name in ("mass-spring-40", "double-integrator-8") for mode in MODES]
    assert list(fixture) == KEYS
    assert list(fixture)[:FIRST_DIGEST_KEYS] == [*POOLS, *SURVEYS, *first_loops]


@pytest.mark.parametrize("key", KEYS)
def test_paths_match_the_fixture(fixture, runs, key):
    assert paths(key, runs[key]) == fixture[key]


def test_the_certified_stop_is_the_first_tested_pass(runs):
    # the loop stops on ||F_eps|| <= _CERTIFIED tol without forming ||F_0||;
    # it must stop on the pass where the test ||F_0|| <= tol alone would: a
    # Solved result ends at the first record that reads norm_F0 <= tol, and
    # any other result has no such record
    solves = [(tol, result) for key in KEYS for tol, result, _ in runs[key]]
    assert len(solves) == 73 + 200 + 50 * len(LOOPS)
    exits = {"certified": 0, "tested": 0, "other": 0}
    for tol, result in solves:
        first = next((rec.k for rec in result.trace if rec.norm_F0 <= tol), None)
        if result.status == Status.SOLVED:
            assert first == result.iterations
            assert result.final_norm_F0 <= tol
            exits["tested" if in_f0_band(result.trace[-1], tol) else "certified"] += 1
        else:
            assert first is None
            exits["other"] += 1
    assert min(exits.values()) > 0


def test_spd_traffic_takes_no_gradient_step(runs):
    # strictly convex QPs from infeasible starts and the closed loops take
    # every first Cholesky step; a failed factorization and a rejected
    # linesearch each lead to a merit-gradient step, which would otherwise
    # hide a broken Cholesky step behind correct answers. The surveys, on
    # PSD Hessians and LPs, take some, so the count is live
    steps = {key: sum(count for *_, count in runs[key]) for key in KEYS}
    assert all(steps[key] > 0 for key in SURVEYS)
    assert all(steps[key] == 0 for key in KEYS if key not in SURVEYS)


def _hash(into, result) -> None:
    into.update(f"{result.status.value} {result.iterations}".encode())
    into.update(result.x.z.tobytes() + result.x.v.tobytes())
    for rec in result.trace:
        into.update(np.array([rec.norm_Feps, rec.t, rec.delta, rec.backtracks], dtype=float).tobytes())


def main() -> None:
    runs = dict(solved())
    for label, keys in (("bit digest", KEYS[:FIRST_DIGEST_KEYS]), ("second bit digest", KEYS[FIRST_DIGEST_KEYS:])):
        digest = hashlib.sha256()
        solves = [solve for key in keys for solve in runs[key]]
        for _, result, _ in solves:
            _hash(digest, result)
        print(f"{label} {digest.hexdigest()} over {len(solves)} solves, "
              f"{sum(result.iterations for _, result, _ in solves)} iterations, "
              f"{sum(count for *_, count in solves)} gradient steps")
    # one line per key, so a diff of the fixture names the solves whose
    # paths moved
    rows = (f" {json.dumps(key)}: {json.dumps(paths(key, runs[key]))}" for key in KEYS)
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    # the pool's solves are C-ordered already, so only the Fortran twins
    # are solved again
    layouts = {order: hashlib.sha256() for order in "CF"}
    for (p, x0), (_, result, _) in zip(pool(*POOLS["pool-20-40"]), runs["pool-20-40"]):
        _hash(layouts["C"], result)
        _hash(layouts["F"], fbrs_solve(QpProblem(np.asfortranarray(p.H), p.f, np.asfortranarray(p.A), p.b), x0, CFG))
    c_digest, f_digest = (layouts[order].hexdigest() for order in "CF")
    print(f"layout digest {c_digest} (C-ordered), {f_digest} (Fortran-ordered)")
    if c_digest != f_digest:
        raise SystemExit("a Fortran-ordered H and A change the bits of the solve")


if __name__ == "__main__":
    main()
