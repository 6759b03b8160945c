"""Same-path gate and bit digests over the fixed solve set of conftest.py,
which the session-scoped `runs` fixture solves key by key, each the first
time a test reads it.

The tests check the paths that the committed fixture test_paths.json pins,
which hold on every OpenBLAS kernel tried (SkylakeX, Haswell, Sandybridge,
Prescott): each pool solve's status and iterations, each loop step's
iterations and the survey indices that end Solved; the certified stop; and
the gradient steps, which only the surveys and the PSD-Hessian pool take.
Run as a script,

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_paths.py

it solves the set once, rewrites the fixture and prints two bit digest
lines: a SHA-256 over each solve's status, iterations, bits of x and trace
records' norm_Feps, t, delta and backtracks, in the fixture's key order,
the first line over the first eleven keys and the second over the rest. The
bits depend on the BLAS build and its thread count, so compare them on one
machine with one BLAS thread; a clean `git diff` of the fixture means no
path moved. A third line hashes the (20, 40) pool from C- and from
Fortran-ordered H and A, and the script exits non-zero when they differ. A
change that moves a path commits the rewritten fixture and says in
CHANGES.md which paths moved and why.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from fbrs import QpProblem
from fbrs.newton import Status, fbrs_solve

from conftest import CFG, KEYS, LOOPS, MODES, POOLS, PSD_POOL, SURVEYS, fixed_run, in_f0_band, instances

FIXTURE = pathlib.Path(__file__).with_suffix(".json")
# the first bit digest line hashes the solves of the first eleven fixture keys
FIRST_DIGEST_KEYS = 11
# the keys whose solves take merit-gradient steps
GRADIENT_KEYS = [*SURVEYS, PSD_POOL]


def paths(key: str, solves) -> list:
    # what the fixture pins of one key's solves
    if key in SURVEYS:
        return [i for i, (_, result, _) in enumerate(solves) if result.status == Status.SOLVED]
    if key in LOOPS:
        return [result.iterations for _, result, _ in solves]
    return [[result.status.value, result.iterations] for _, result, _ in solves]


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_keys_are_in_hashing_order(fixture):
    # the script hashes the keys in this order, the first digest line over
    # the pools, the surveys and the mass-spring N=40 and double-integrator
    # N=8 loops; a reordered fixture would move solves between the lines
    first_loops = [f"loop {name} {mode}" for name in ("mass-spring-40", "double-integrator-8") for mode in MODES]
    assert list(fixture) == KEYS
    assert list(fixture)[:FIRST_DIGEST_KEYS] == [*POOLS, *SURVEYS, *first_loops]


@pytest.mark.parametrize("key", KEYS)
def test_paths_match_the_fixture(fixture, runs, key):
    assert paths(key, runs(key).solves) == fixture[key]


def test_the_certified_stop_is_the_first_tested_pass(runs):
    # the loop stops on ||F_eps|| <= _CERTIFIED tol without forming ||F_0||;
    # it must stop on the pass where the test ||F_0|| <= tol alone would: a
    # Solved result ends at the first record that reads norm_F0 <= tol, any
    # other result has no such record, and a certified stop's bound
    # ||F_0|| <= ||F_eps|| + sqrt(q) eps holds ||F_0|| to tol
    solves = [(tol, result) for key in KEYS for tol, result, _ in runs(key).solves]
    assert len(solves) == 73 + 200 + 50 * len(LOOPS) + 10
    exits = {"certified": 0, "tested": 0, "other": 0}
    for tol, result in solves:
        first = next((rec.k for rec in result.trace if rec.norm_F0 <= tol), None)
        if result.status == Status.SOLVED:
            assert first == result.iterations
            assert result.final_norm_F0 <= tol
            last = result.trace[-1]
            if in_f0_band(last, tol):
                exits["tested"] += 1
            else:
                assert last.norm_Feps + math.sqrt(result.x.v.size) * last.eps <= tol
                exits["certified"] += 1
        else:
            assert first is None
            exits["other"] += 1
    assert min(exits.values()) > 0


def test_spd_traffic_takes_no_gradient_step(runs):
    # strictly convex QPs from infeasible starts and the closed loops take
    # every first Cholesky step; a failed factorization and a rejected
    # linesearch each lead to a merit-gradient step, which would otherwise
    # hide a broken Cholesky step behind correct answers. The surveys and
    # the PSD-Hessian pool take some, so the count is live
    steps = {key: sum(count for *_, count in runs(key).solves) for key in KEYS}
    assert all(steps[key] > 0 for key in GRADIENT_KEYS)
    assert all(steps[key] == 0 for key in KEYS if key not in GRADIENT_KEYS)


def _hash(into, result) -> None:
    into.update(f"{result.status.value} {result.iterations}".encode())
    into.update(result.x.z.tobytes() + result.x.v.tobytes())
    for rec in result.trace:
        into.update(np.array([rec.norm_Feps, rec.t, rec.delta, rec.backtracks], dtype=float).tobytes())


def main() -> None:
    runs = {key: fixed_run(key) for key in KEYS}
    for label, keys in (("bit digest", KEYS[:FIRST_DIGEST_KEYS]), ("second bit digest", KEYS[FIRST_DIGEST_KEYS:])):
        digest = hashlib.sha256()
        solves = [solve for key in keys for solve in runs[key].solves]
        for _, result, _ in solves:
            _hash(digest, result)
        print(f"{label} {digest.hexdigest()} over {len(solves)} solves, "
              f"{sum(result.iterations for _, result, _ in solves)} iterations, "
              f"{sum(count for *_, count in solves)} gradient steps")
    # one line per key, so a diff of the fixture names the solves whose
    # paths moved
    rows = (f" {json.dumps(key)}: {json.dumps(paths(key, runs[key].solves))}" for key in KEYS)
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    # the pool's solves are C-ordered already, so only the Fortran twins
    # are solved again
    layouts = {order: hashlib.sha256() for order in "CF"}
    for (p, x0), (_, result, _) in zip(instances("pool-20-40"), runs["pool-20-40"].solves):
        _hash(layouts["C"], result)
        _hash(layouts["F"], fbrs_solve(QpProblem(np.asfortranarray(p.H), p.f, np.asfortranarray(p.A), p.b), x0, CFG))
    c_digest, f_digest = (layouts[order].hexdigest() for order in "CF")
    print(f"layout digest {c_digest} (C-ordered), {f_digest} (Fortran-ordered)")
    if c_digest != f_digest:
        raise SystemExit("a Fortran-ordered H and A change the bits of the solve")


if __name__ == "__main__":
    main()
