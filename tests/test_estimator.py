"""Regressor, filters, data matrices, and the finite-time estimate flow."""

import math

import numpy as np
import pytest

from bicopterlab.errors import ValidationError
from bicopterlab.estimator import (
    DEAD_ZONE,
    THETA_FLOOR,
    EstimatorConfig,
    data_matrix_deriv,
    estimate_deriv,
    filter_deriv,
    filter_outputs,
    params_from_theta,
    regressor,
)
from bicopterlab.model import G, PlantParams, extended_deriv
from bicopterlab.sim import rk4_step

CFG = EstimatorConfig()

# independently derived at 40-digit precision:
# -6 * 0.01^0.2 - 3 * 0.01^1.2 = -2.400586238437588422...
TWO_POWER_RATE = -2.4005862384375884


def plant_deriv(x, u, p: PlantParams) -> tuple:
    """The 6-state plant rates: rows 1-6 of the extended model at chi7 = u1."""
    return extended_deriv((*x, u[0], 0.0), (0.0, u[1]), p)[0:6]


def test_config_invariants():
    for bad in (
        dict(c1=0.0),
        dict(c2=-1.0),
        dict(alpha1=1.0),
        dict(alpha2=1.0),
        dict(forgetting=0.0),
        dict(gamma=-1.0),
    ):
        with pytest.raises(ValidationError):
            EstimatorConfig(**bad)


def test_parameter_rows_are_disjoint():
    # The premise of the two-channel estimator: the kinematic rows carry no
    # parameter, 1/m moves only rows 3-4 and 1/J only row 5, so the two
    # columns of Phi have disjoint nonzero rows and phibar is diagonal.
    rng = np.random.default_rng(20)
    for _ in range(200):
        x = tuple(rng.normal(size=6))
        u = tuple(rng.normal(size=2) * 5.0)
        m, J = rng.uniform(0.5, 3.0), rng.uniform(0.01, 0.2)
        dx = plant_deriv(x, u, PlantParams(m=m, J=J))
        assert dx[0:3] == x[3:6]
        moved_by_m = plant_deriv(x, u, PlantParams(m=2.0 * m, J=J))
        moved_by_j = plant_deriv(x, u, PlantParams(m=m, J=2.0 * J))
        assert {i for i in range(6) if moved_by_m[i] != dx[i]} == {3, 4}
        assert {i for i in range(6) if moved_by_j[i] != dx[i]} == {5}


def test_regressor_identity():
    # plant_deriv - Psi = Phi (1/m, 1/J) in the parameter rows 3-5, for
    # random states/inputs.
    rng = np.random.default_rng(21)
    for _ in range(1000):
        p = PlantParams(m=rng.uniform(0.5, 3.0), J=rng.uniform(0.01, 0.2))
        x = tuple(rng.normal(size=6))
        u = tuple(rng.normal(size=2) * 5.0)
        psi4, phi = regressor(x, u)
        dx = plant_deriv(x, u, p)
        theta = (1.0 / p.m, 1.0 / p.J)
        assert dx[3] == pytest.approx(phi[0] * theta[0], rel=1e-12, abs=1e-12)
        assert dx[4] == pytest.approx(psi4 + phi[1] * theta[0], rel=1e-12, abs=1e-12)
        assert dx[5] == pytest.approx(phi[2] * theta[1], rel=1e-12, abs=1e-12)


def test_regressor_rows():
    psi4, phi = regressor((0.0,) * 6, (5.0, 0.2))
    assert psi4 == -9.81
    assert phi == (0.0, 5.0, 0.2)  # Phi[3][0] = -sin(0) u1


def test_regressor_no_excitation():
    rng = np.random.default_rng(22)
    _, phi = regressor(tuple(rng.normal(size=6)), (0.0, 0.0))
    assert phi == (0.0, 0.0, 0.0)


def test_filter_first_order_response():
    # Constant regressor entries filtered by 1/(s + 10) follow the
    # closed-form step response (1 - e^{-10 t}) / 10.
    gamma = 10.0
    x = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    u = (0.0, 1.0)  # unit torque puts a 1 in Phi[5][1]

    def deriv(z, t):
        return filter_deriv(z, x, u, gamma)

    z = [0.0] * 7
    dt = 1e-4
    for i in range(5000):
        z = rk4_step(z, i * dt, dt, deriv)
    step = (1.0 - np.exp(-gamma * 0.5)) / gamma
    assert z[6] == pytest.approx(step, rel=1e-9)
    assert z[3] == pytest.approx(-G * step, rel=1e-9)  # Psi[4] = -G
    assert z[0:3] == [0.0, 0.0, 0.0] and z[4:6] == [0.0, 0.0]


def test_filter_outputs_realization():
    # x_f is realized without differentiating x: x - gamma z1 - z2.
    rng = np.random.default_rng(23)
    z = tuple(rng.normal(size=7))
    x = tuple(rng.normal(size=6))
    xf, phif = filter_outputs(z, x, 10.0)
    assert xf == (x[3] - 10.0 * z[0], x[4] - 10.0 * z[1] - z[3], x[5] - 10.0 * z[2])
    assert phif == z[4:7]


def _full_phi(phi_f):
    """Rows 3-5 of Phi_f as a 3x2 matrix, zeros included."""
    return np.array([[phi_f[0], 0.0], [phi_f[1], 0.0], [0.0, phi_f[2]]])


def test_data_matrix_pure_decay():
    xbar = (0.4, -0.2)
    phibar = (1.0, 2.0)
    dxbar, dphibar = data_matrix_deriv(xbar, phibar, (0.0,) * 3, (0.0,) * 3, 80.0)
    assert dxbar == pytest.approx((-80.0 * 0.4, -80.0 * -0.2))
    assert dphibar == pytest.approx((-80.0 * 1.0, -80.0 * 2.0))


def test_data_matrix_equilibrium():
    # At xbar = Phi_f^T x_f / lambda and phibar = diag(Phi_f^T Phi_f) / lambda
    # the accumulators are stationary.
    rng = np.random.default_rng(24)
    lam = 80.0
    xf = tuple(rng.normal(size=3))
    phif = tuple(rng.normal(size=3))
    P = _full_phi(phif)
    xbar = tuple(P.T @ np.array(xf) / lam)
    phibar = tuple(np.diag(P.T @ P) / lam)
    dxbar, dphibar = data_matrix_deriv(xbar, phibar, xf, phif, lam)
    assert np.asarray(dxbar) == pytest.approx(np.zeros(2), abs=1e-12)
    assert np.asarray(dphibar) == pytest.approx(np.zeros(2), abs=1e-12)


def test_data_matrix_symmetry():
    # Phi_f^T Phi_f is symmetric with an exactly zero off-diagonal, so the
    # accumulated matrix is its diagonal.
    rng = np.random.default_rng(25)
    phif = tuple(rng.normal(size=3))
    P = _full_phi(phif)
    PtP = P.T @ P
    assert PtP[0, 1] == PtP[1, 0] == 0.0
    _, dphibar = data_matrix_deriv((0.0, 0.0), (0.0, 0.0), (0.0,) * 3, phif, 80.0)
    assert np.asarray(dphibar) == pytest.approx(np.diag(PtP), rel=1e-15)


def test_estimate_deriv_stationary_at_consistency():
    phibar = (1.0, 3.0)
    theta = (0.7, 1.4)
    xbar = (phibar[0] * theta[0], phibar[1] * theta[1])
    assert estimate_deriv(theta, xbar, phibar, CFG) == (0.0, 0.0)


def test_estimate_deriv_unit_norm():
    cfg = EstimatorConfig(c1=1.0, c2=1.0)
    # phibar = I, theta - xbar chosen so Xi = (0.6, 0.8), unit norm
    phibar = (1.0, 1.0)
    theta = (0.6, 0.8)
    dtheta = estimate_deriv(theta, (0.0, 0.0), phibar, cfg)
    assert dtheta == pytest.approx((-1.2, -1.6), rel=1e-14)


def test_estimate_deriv_two_power_value():
    # Xi = (0.01, 0) with the default gains; frozen high-precision value.
    phibar = (1.0, 1.0)
    theta = (0.01, 0.0)
    dtheta = estimate_deriv(theta, (0.0, 0.0), phibar, CFG)
    assert dtheta[0] == pytest.approx(TWO_POWER_RATE, rel=1e-14)
    assert dtheta[1] == 0.0


def test_estimate_deriv_descent_direction():
    rng = np.random.default_rng(26)
    for _ in range(100):
        phibar = tuple(rng.normal(size=2) ** 2)  # nonnegative like the accumulated diagonal
        theta = tuple(rng.normal(size=2))
        xbar = tuple(rng.normal(size=2))
        xi = np.array(phibar) * np.array(theta) - np.array(xbar)
        dtheta = np.asarray(estimate_deriv(theta, xbar, phibar, CFG))
        inner = float(dtheta @ xi)
        if np.linalg.norm(xi) <= DEAD_ZONE:
            assert inner == 0.0
        else:
            assert inner < 0.0


def test_estimate_deriv_scale_invariant_direction():
    phibar = (2.0, 1.0)
    theta = (1.0, -0.5)
    xbar = (0.2, 0.1)
    d1 = np.asarray(estimate_deriv(theta, xbar, phibar, CFG))
    # scale Xi by 7: scale phibar and xbar together
    d2 = np.asarray(
        estimate_deriv(theta, tuple(7.0 * v for v in xbar), tuple(7.0 * v for v in phibar), CFG)
    )
    assert d1 / np.linalg.norm(d1) == pytest.approx(d2 / np.linalg.norm(d2), rel=1e-12)


def test_estimate_deriv_dead_zone():
    # Xi = (x, 0) has |Xi| == x exactly: sqrt(fl(x * x)) == x for normal x.
    phibar = (1.0, 1.0)
    for theta in ((1e-13, 0.0), (DEAD_ZONE, 0.0)):
        assert estimate_deriv(theta, (0.0, 0.0), phibar, CFG) == (0.0, 0.0)
    above = math.nextafter(DEAD_ZONE, 1.0)
    rate = estimate_deriv((above, 0.0), (0.0, 0.0), phibar, CFG)
    assert rate[0] < 0.0 and rate[1] == 0.0


def test_params_from_theta():
    assert params_from_theta((1.0, 20.0)) == (1.0, 0.05)
    assert params_from_theta((2.0, 10.0)) == (0.5, 0.1)
    assert params_from_theta((-1.0, 5.0)) == (1000.0, 0.2)
    # the floor's edge: at it and one ulp below, the cap; one ulp above, 1/x
    below = math.nextafter(THETA_FLOOR, 0.0)
    above = math.nextafter(THETA_FLOOR, 1.0)
    cap = 1.0 / THETA_FLOOR
    assert params_from_theta((THETA_FLOOR, below)) == (cap, cap)
    assert params_from_theta((above, 0.5)) == (1.0 / above, 2.0)
    assert 1.0 / above < cap
