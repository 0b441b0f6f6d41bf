"""Linearizing law, state transform, and the Lie-derivative oracle."""

import numpy as np
import pytest

from bicopterlab.errors import IllConditioned, SingularThrust
from bicopterlab.linearizer import (
    U_MIN,
    alpha,
    beta,
    beta_inv,
    iol_w,
    lie_relative_degree_check,
    xi_of_chi,
)
from bicopterlab.model import PlantParams

M_TRUE, J_TRUE = 1.0, 0.05  # kg, kg m^2

# independently derived: 0.05 / 9.81 at 40-digit precision, rounded to f64
BETA_INV_HOVER = 0.0050968399592252805


def _random_mj(rng):
    """(m, J) drawn as the reciprocals of theta = (1/m, 1/J)."""
    return 1.0 / rng.uniform(0.5, 3.0), 1.0 / rng.uniform(5.0, 40.0)


def _random_chi(rng, lo=1.0, hi=20.0):
    chi = list(rng.normal(size=8))
    chi[6] = rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
    return tuple(chi)


def test_alpha_vanishes_without_spin():
    rng = np.random.default_rng(1)
    for _ in range(10):
        chi = list(rng.normal(size=8))
        chi[5] = 0.0
        assert alpha(tuple(chi), M_TRUE) == (0.0, 0.0)


def test_alpha_point_value():
    chi = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0)
    assert alpha(chi, M_TRUE) == pytest.approx((-6.0, -2.0), abs=1e-15)


def test_alpha_scales_with_inverse_mass():
    rng = np.random.default_rng(2)
    chi = _random_chi(rng)
    a1 = alpha(chi, 1.0)
    a2 = alpha(chi, 0.5)
    assert a2[0] == pytest.approx(2.0 * a1[0], rel=1e-14)
    assert a2[1] == pytest.approx(2.0 * a1[1], rel=1e-14)


def test_beta_point_value():
    chi = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.81, 0.0)
    b = beta(chi, M_TRUE, J_TRUE)
    assert b[0][0] == 0.0
    assert b[0][1] == pytest.approx(-196.2, rel=1e-14)
    assert b[1][0] == 1.0
    assert b[1][1] == 0.0


def test_beta_determinant_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(200):
        chi = _random_chi(rng)
        m, j = _random_mj(rng)
        det = np.linalg.det(beta(chi, m, j))
        want = chi[6] / (m**2 * j)
        assert det == pytest.approx(want, rel=1e-12)


def test_beta_singular_at_zero_thrust():
    chi = (0.0, 0.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert np.linalg.det(beta(chi, M_TRUE, J_TRUE)) == pytest.approx(0.0, abs=1e-15)


def test_beta_inv_point_value():
    chi = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.81, 0.0)
    binv = beta_inv(chi, M_TRUE, J_TRUE)
    assert binv[0][0] == 0.0
    assert binv[0][1] == 1.0
    assert binv[1][0] == pytest.approx(-BETA_INV_HOVER, rel=1e-15)
    assert binv[1][1] == 0.0


def test_beta_inverse_property():
    rng = np.random.default_rng(7)
    eye = np.eye(2)
    for _ in range(1000):
        chi = _random_chi(rng, lo=0.11)
        m, j = _random_mj(rng)
        prod = np.asarray(beta(chi, m, j)) @ np.asarray(beta_inv(chi, m, j))
        assert np.abs(prod - eye).max() < 1e-10


def test_beta_inv_guard():
    chi = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-9, 0.0)
    with pytest.raises(SingularThrust) as by_inv:
        beta_inv(chi, M_TRUE, J_TRUE)
    with pytest.raises(SingularThrust) as by_w:
        iol_w(chi, (0.0, 0.0), M_TRUE, J_TRUE)
    with pytest.raises(SingularThrust) as by_oracle:
        lie_relative_degree_check(chi, PlantParams())
    msg = "|chi7| = 1e-09 < u_min = 0.1"
    assert str(by_inv.value) == str(by_w.value) == str(by_oracle.value) == msg
    # the guard is strict: |chi7| = U_MIN is accepted
    edge = chi[:6] + (-U_MIN, 0.0)
    beta_inv(edge, M_TRUE, J_TRUE)
    iol_w(edge, (0.0, 0.0), M_TRUE, J_TRUE)
    lie_relative_degree_check(edge, PlantParams())


def test_iol_w_cancellation_point():
    rng = np.random.default_rng(9)
    for _ in range(10):
        chi = _random_chi(rng)
        w = iol_w(chi, alpha(chi, M_TRUE), M_TRUE, J_TRUE)
        assert w == pytest.approx((0.0, 0.0), abs=1e-12)


def test_iol_w_point_value():
    chi = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.81, 0.0)
    w = iol_w(chi, (1.0, 0.0), M_TRUE, J_TRUE)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(-BETA_INV_HOVER, rel=1e-14)


def test_iol_w_matches_matrix_product():
    rng = np.random.default_rng(12)
    for _ in range(50):
        chi = _random_chi(rng)
        m, j = _random_mj(rng)
        v = tuple(rng.normal(size=2))
        r = np.asarray(alpha(chi, m)) - np.asarray(v)
        want = -np.asarray(beta_inv(chi, m, j)) @ r
        assert iol_w(chi, v, m, j) == pytest.approx(tuple(want), rel=1e-12, abs=1e-12)


def test_xi_hover():
    chi = (3.0, -2.0, 0.0, 0.0, 0.0, 0.0, M_TRUE * 9.81, 0.0)
    xi = xi_of_chi(chi, M_TRUE, 9.81)
    assert xi == pytest.approx((3.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0), abs=1e-15)


def test_xi_quarter_turn():
    chi = (0.0, 0.0, np.pi / 2, 0.0, 0.0, 1.0, 2.0, 0.0)
    xi = xi_of_chi(chi, M_TRUE, 9.81)
    assert xi[2] == pytest.approx(-2.0, abs=1e-12)
    assert xi[3] == pytest.approx(0.0, abs=1e-12)
    assert xi[6] == pytest.approx(-9.81, abs=1e-12)
    assert xi[7] == pytest.approx(-2.0, abs=1e-12)


def test_xi_thrust_magnitude_identity():
    rng = np.random.default_rng(15)
    for _ in range(100):
        chi = _random_chi(rng)
        m, _ = _random_mj(rng)
        xi = xi_of_chi(chi, m, 9.81)
        lhs = xi[2] ** 2 + (xi[6] + 9.81) ** 2
        assert lhs == pytest.approx((chi[6] / m) ** 2, rel=1e-12)


def test_alpha_beta_periodic_in_attitude():
    rng = np.random.default_rng(20)
    for _ in range(10):
        chi = list(_random_chi(rng))
        shifted = list(chi)
        shifted[2] += 2.0 * np.pi
        a0, a1 = alpha(tuple(chi), M_TRUE), alpha(tuple(shifted), M_TRUE)
        assert a1 == pytest.approx(a0, rel=1e-9, abs=1e-9)
        b0, b1 = beta(tuple(chi), M_TRUE, J_TRUE), beta(tuple(shifted), M_TRUE, J_TRUE)
        assert np.asarray(b1) == pytest.approx(np.asarray(b0), rel=1e-9, abs=1e-9)


def test_xi_matches_numeric_output_derivatives():
    # The closed-form transform must agree with time derivatives of the
    # outputs measured on drift flows of the true plant.
    from bicopterlab.linearizer import _output_time_derivs

    p = PlantParams()
    rng = np.random.default_rng(31)
    for _ in range(5):
        chi = _random_chi(rng, lo=5.0, hi=15.0)
        xi = xi_of_chi(chi, M_TRUE, p.g)
        d = _output_time_derivs(chi, p)
        # rows: derivative orders 0..3 of (y1, y2)
        assert d[1][0] == pytest.approx(xi[1], rel=1e-6, abs=1e-6)
        assert d[2][0] == pytest.approx(xi[2], rel=1e-5, abs=1e-5)
        assert d[3][0] == pytest.approx(xi[3], rel=1e-4, abs=1e-4)
        assert d[1][1] == pytest.approx(xi[5], rel=1e-6, abs=1e-6)
        assert d[2][1] == pytest.approx(xi[6], rel=1e-5, abs=1e-5)
        assert d[3][1] == pytest.approx(xi[7], rel=1e-4, abs=1e-4)


def test_relative_degree_oracle_generic():
    p = PlantParams()
    chi = (0.4, -0.2, 0.3, 0.1, -0.5, 0.8, 9.81, 0.6)
    report = lie_relative_degree_check(chi, p)
    assert report.passed
    assert max(report.lower_order_max.values()) < 1e-6
    assert report.k3_rel_err < 1e-4


def test_relative_degree_verdict_uniform():
    p = PlantParams()
    rng = np.random.default_rng(40)
    verdicts = []
    for _ in range(2):
        chi = _random_chi(rng, lo=2.0, hi=15.0)
        verdicts.append(lie_relative_degree_check(chi, p).passed)
    assert verdicts[0] == verdicts[1] is True


def test_relative_degree_k3_tracks_thrust():
    # The k = 3 sensitivity matrix is beta, whose determinant vanishes
    # linearly in the thrust state: it must shrink with chi7.
    p = PlantParams()
    base = [0.1, 0.2, 0.25, -0.3, 0.15, 0.4, 0.0, 0.2]
    dets = []
    for chi7 in (0.3, 3.0):
        chi = tuple(base[:6]) + (chi7, base[7])
        report = lie_relative_degree_check(chi, p)
        dets.append(abs(np.linalg.det(np.asarray(report.k3_matrix))))
        want = chi7 / (p.m**2 * p.J)
        assert dets[-1] == pytest.approx(want, rel=1e-3)
    assert dets[0] < dets[1]


def test_diverging_drift_flow_is_ill_conditioned():
    # m = 1e-308 sends the drift acceleration to inf in the first RK4 stage
    # of the first flow the stencil runs, the backward one to t = -3h.
    chi = [0.3, -0.2, 0.4, 0.1, 0.2, 0.3, 9.0, 0.5]
    with pytest.raises(IllConditioned, match="drift flow diverged"):
        lie_relative_degree_check(chi, PlantParams(m=1e-308))
