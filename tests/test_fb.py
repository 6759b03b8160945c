import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrs import QpProblem
from fbrs.fb import _coefficients, _evaluate

from conftest import phi_eps

moderate = st.floats(-1e3, 1e3, allow_nan=False)
wide = st.floats(-1e8, 1e8, allow_nan=False)


def test_phi_scalar_values():
    assert phi_eps(3.0, 0.0, 0.0) == 0.0
    assert phi_eps(0.0, 0.0, 0.1) == pytest.approx(-0.1)
    assert phi_eps(1.0, 1.0, 0.0) == pytest.approx(2.0 - math.sqrt(2.0))
    assert phi_eps(-1.0, 0.0, 0.0) == pytest.approx(-2.0)


def test_phi_vector_form_matches_scalar():
    a = np.array([3.0, 0.0, 1.0, -1.0])
    b = np.array([0.0, 0.0, 1.0, 0.0])
    out = phi_eps(a, b, 0.5)
    for i in range(4):
        assert out[i] == phi_eps(a[i], b[i], 0.5)


def test_phi_no_overflow_at_extreme_magnitudes():
    assert np.isfinite(phi_eps(1e300, 1e300, 1e300))
    assert np.isfinite(phi_eps(-1e300, 1e300, 0.0))
    assert np.isfinite(phi_eps(1e200, 1e200, 1.0))


def test_phi_no_cancellation_when_sum_positive():
    # a + b and r agree to every digit here, so a + b - r reads 0; the
    # values are -2ab / (a + b + r) = -1 and -eps^2 / (1 + r) = -5e-19
    assert phi_eps(-1.0, 1.1e16, 0.0) == pytest.approx(-1.0, rel=1e-15)
    assert phi_eps(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1e-9) == pytest.approx([-5e-19, -5e-19], rel=1e-15)


def _r(y, v, eps):
    # sqrt(y^2 + v^2 + eps^2), as _evaluate forms it for a point
    return np.hypot(np.hypot(y, v), eps)


def test_coefficients_ratio_endpoints():
    # y = 0 gives gamma = 1 exactly; v >> eps drives mu to 0, and at
    # v / eps = 1e8 the ratio v / r rounds to 1
    y, v = np.zeros(2), np.array([1.0, 1e4])
    gamma, mu = _coefficients(y, v, _r(y, v, 1e-4), 0.0)
    assert gamma.tolist() == [1.0, 1.0]
    assert mu[0] == pytest.approx(5e-9, rel=1e-6)  # 1 - 1 / sqrt(1 + 1e-8)
    assert mu[1] == 0.0


def test_coefficients_three_four_five():
    # r = sqrt(3^2 + 4^2 + 12^2) = 13
    gamma, mu = _coefficients(np.array([3.0]), np.array([4.0]), np.array([13.0]), 0.01)
    assert gamma[0] == pytest.approx(10.0 / 13.0 + 0.01, abs=1e-15)
    assert mu[0] == pytest.approx(9.0 / 13.0 + 0.01, abs=1e-15)


def test_coefficients_delta_is_additive():
    y, v = np.array([0.3, -0.7]), np.array([1.5, 0.0])
    gamma, mu = _coefficients(y, v, _r(y, v, 0.2), 0.0)
    gamma_shifted, mu_shifted = _coefficients(y, v, _r(y, v, 0.2), 0.05)
    assert gamma_shifted == pytest.approx(gamma + 0.05)
    assert mu_shifted == pytest.approx(mu + 0.05)


# strict interval bounds hold in exact arithmetic; keep eps large enough
# relative to |a|, |b| that the clearance survives rounding
@settings(max_examples=200, deadline=None)
@given(a=st.floats(-100, 100), b=st.floats(-100, 100), eps=st.floats(1e-2, 10.0),
       delta=st.floats(0.0, 1.0))
def test_coefficient_ranges(a, b, eps, delta):
    y, v = np.array([a]), np.array([b])
    gamma, mu = _coefficients(y, v, _r(y, v, eps), delta)
    assert delta < gamma[0] < 2.0 + delta
    assert delta < mu[0] < 2.0 + delta


def _residual(p, z, v, eps):
    return _evaluate(p, np.concatenate([z, v]).astype(float), eps).F


def _smoothing_gap(p, z, v, eps):
    # (||F_eps - F_0||, sqrt(q) eps): the gap never exceeds the bound, and
    # equality needs every (v_i, y_i) at the origin
    gap = float(np.linalg.norm(_residual(p, z, v, eps) - _residual(p, z, v, 0.0)))
    return gap, math.sqrt(p.q) * eps


def test_residual_map_at_kkt_point(qp_1d):
    assert _residual(qp_1d, [0.5], [0.5], 0.0) == pytest.approx([0.0, 0.0], abs=1e-15)
    out = _residual(qp_1d, [0.5], [0.5], 0.1)
    assert out[0] == pytest.approx(0.0, abs=1e-15)
    assert out[1] == pytest.approx(0.5 - math.sqrt(0.26))


def test_residual_map_at_origin():
    rng = np.random.default_rng(11)
    p = QpProblem(np.eye(3), rng.standard_normal(3), rng.standard_normal((4, 3)),
                  rng.standard_normal(4))
    out = _residual(p, np.zeros(3), np.zeros(4), 0.0)
    assert out[:3] == pytest.approx(p.f)
    assert out[3:] == pytest.approx(p.b - np.abs(p.b))


def test_smoothing_gap_equality_at_origin():
    p = QpProblem(np.eye(1), np.zeros(1), np.eye(1), np.zeros(1))
    gap, bound = _smoothing_gap(p, np.zeros(1), np.zeros(1), 0.1)
    assert gap == pytest.approx(0.1)
    assert bound == pytest.approx(0.1)
    p4 = QpProblem(np.eye(4), np.zeros(4), np.eye(4), np.zeros(4))
    gap, bound = _smoothing_gap(p4, np.zeros(4), np.zeros(4), 0.5)
    assert gap == pytest.approx(1.0)
    assert bound == pytest.approx(1.0)


def test_smoothing_gap_small_away_from_origin():
    p = QpProblem(np.eye(2), np.zeros(2), np.eye(2), [50.0, 50.0])
    gap, bound = _smoothing_gap(p, np.zeros(2), np.array([40.0, 40.0]), 0.01)
    assert gap <= 1e-4 * bound


# --- root characterization: |phi_0| is equivalent to |min| with sharp
# constants 2 -/+ sqrt(2); the additive slack absorbs cancellation at very
# lopsided magnitudes.
@settings(max_examples=500, deadline=None)
@given(a=wide, b=wide)
def test_phi0_equivalent_to_natural_residual(a, b):
    phi = abs(phi_eps(a, b, 0.0))
    m = abs(min(a, b))
    slack = 1e-9 * (1.0 + abs(a) + abs(b))
    assert (2.0 - math.sqrt(2.0)) * m - slack <= phi <= (2.0 + math.sqrt(2.0)) * m + slack


def test_phi0_roots_on_boundary_grid():
    for a in (0.0, 0.1, 1.0, 7.5, 1e3):
        assert abs(phi_eps(a, 0.0, 0.0)) <= 1e-12 * (1 + a)
        assert abs(phi_eps(0.0, a, 0.0)) <= 1e-12 * (1 + a)
    for a, b in ((-1.0, 2.0), (1.0, 1.0), (-3.0, -4.0), (0.5, 0.25)):
        assert phi_eps(a, b, 0.0) != 0.0


@settings(max_examples=300, deadline=None)
@given(b=st.floats(1e-3, 1e3), eps=st.floats(1e-6, 10.0))
def test_smoothed_root_curve(b, eps):
    # phi_eps(a, b) = 0 exactly on the hyperbola 2ab = eps^2 (both positive)
    a = eps**2 / (2.0 * b)
    assert abs(phi_eps(a, b, eps)) <= 1e-12 * (a + b + eps)


# strictness needs the true magnitude eps^2 / (2 hypot) to clear rounding, so
# keep eps away from zero relative to |a|, |b|
@settings(max_examples=300, deadline=None)
@given(a=st.floats(-100, 0.0), b=st.floats(-100, 100), eps=st.floats(1e-3, 10.0))
def test_smoothed_phi_negative_for_nonpositive_first_arg(a, b, eps):
    assert phi_eps(a, b, eps) < 0.0


@settings(max_examples=500, deadline=None)
@given(a=wide, b=wide, eps=st.floats(1e-8, 1e3))
def test_pointwise_smoothing_bound(a, b, eps):
    # algebraically, phi_eps - phi_0 = -eps^2 / (hypot(a, b, eps) + hypot(a, b))
    s = math.hypot(a, b)
    gap = eps**2 / (math.hypot(s, eps) + s)
    assert gap <= eps * (1.0 + 1e-15)
    measured = phi_eps(a, b, 0.0) - phi_eps(a, b, eps)
    assert measured == pytest.approx(gap, abs=1e-12 * (1.0 + abs(a) + abs(b)))
    if s >= 1e-3 * eps:
        assert gap < eps


@settings(max_examples=300, deadline=None)
@given(a=moderate, b=moderate, s=moderate, t=moderate, eps=st.floats(0.0, 10.0))
def test_phi_lipschitz(a, b, s, t, eps):
    # global Lipschitz constant is 1 + sqrt(2), attained along the negative diagonal
    diff = abs(phi_eps(a + s, b + t, eps) - phi_eps(a, b, eps))
    step = math.hypot(s, t)
    assert diff <= (1.0 + math.sqrt(2.0)) * step + 1e-9 * (1.0 + abs(a) + abs(b) + step)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-10, 10), b=st.floats(-10, 10), eps=st.floats(1e-2, 1.0))
def test_partials_match_finite_differences(a, b, eps):
    # coefficients at delta = 0 are exactly the partials of phi in (b, a) order
    y, v = np.array([b]), np.array([a])
    gamma, mu = _coefficients(y, v, _r(y, v, eps), 0.0)
    h = 1e-6
    fd_a = (phi_eps(a + h, b, eps) - phi_eps(a - h, b, eps)) / (2 * h)
    fd_b = (phi_eps(a, b + h, eps) - phi_eps(a, b - h, eps)) / (2 * h)
    assert mu[0] == pytest.approx(fd_a, rel=1e-6, abs=1e-6)
    assert gamma[0] == pytest.approx(fd_b, rel=1e-6, abs=1e-6)
