"""Plant and extended-plant dynamics."""

import numpy as np
import pytest

from bicopterlab.errors import ValidationError
from bicopterlab.model import PlantParams, extended_deriv, plant_deriv
from bicopterlab.sim import rk4_step

P = PlantParams()


def test_params_validation():
    inf = float("inf")
    for bad in (dict(m=-1.0), dict(J=0.0), dict(g=0.0), dict(m=inf), dict(J=inf)):
        with pytest.raises(ValidationError):
            PlantParams(**bad)


def test_hover_equilibrium():
    x = (0.0,) * 6
    assert plant_deriv(x, (P.m * P.g, 0.0), P) == (0.0,) * 6


def test_free_fall():
    got = plant_deriv((0.0,) * 6, (0.0, 0.0), P)
    assert got == (0.0, 0.0, 0.0, 0.0, -9.81, 0.0)


def test_tilted_thrust():
    # Thrust along the body axis at 90 degrees pushes purely horizontally.
    x = (0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0)
    dx = plant_deriv(x, (2.0, 0.1), P)
    assert dx[3] == pytest.approx(-2.0, abs=1e-15)
    assert dx[4] == pytest.approx(-9.81, abs=1e-12)
    assert dx[5] == pytest.approx(0.1 / 0.05, abs=1e-12)


def test_extended_hover():
    chi = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, P.m * P.g, 0.0)
    assert extended_deriv(chi, (0.0, 0.0), P) == (0.0,) * 8


def test_extended_input_rows():
    # The input columns feed only the thrust-acceleration and torque rows.
    rng = np.random.default_rng(11)
    for _ in range(20):
        chi = tuple(rng.normal(size=8))
        dchi = extended_deriv(chi, (0.0, 0.0), P)
        assert dchi[5] == 0.0  # torque row
        assert dchi[7] == 0.0  # thrust second-derivative row


def test_extended_thrust_chain():
    chi = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.81, 1.0)
    dchi = extended_deriv(chi, (2.0, 0.05), P)
    assert dchi[5] == pytest.approx(1.0)  # w2 / J = 0.05 / 0.05
    assert dchi[6] == pytest.approx(1.0)  # chi8
    assert dchi[7] == pytest.approx(2.0)  # w1


def test_extended_matches_plant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        chi = tuple(rng.normal(size=8))
        w = tuple(rng.normal(size=2))
        dchi = extended_deriv(chi, w, P)
        dx = plant_deriv(chi[0:6], (chi[6], w[1]), P)
        assert dchi[0:6] == dx


def test_thrust_sign_flips_under_half_turn():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = list(rng.normal(size=6))
        u = (rng.normal(), 0.0)
        a = plant_deriv(tuple(x), u, P)
        x[2] += np.pi
        b = plant_deriv(tuple(x), u, P)
        # gravity stays, the thrust contribution reverses
        assert b[3] == pytest.approx(-a[3], abs=1e-12)
        assert b[4] + P.g == pytest.approx(-(a[4] + P.g), abs=1e-12)


def test_ballistic_invariants():
    # With zero input, spin rate and horizontal velocity are conserved and
    # the vertical axis is in free fall.
    x = [1.0, 2.0, 0.3, 0.5, -0.2, 0.7]
    dt = 1e-3
    y = list(x)
    for i in range(1000):
        y = rk4_step(y, i * dt, dt, lambda s, t: plant_deriv(s, (0.0, 0.0), P))
    assert y[5] == pytest.approx(x[5], rel=1e-9)
    assert y[3] == pytest.approx(x[3], rel=1e-9)
    assert y[4] == pytest.approx(x[4] - P.g * 1.0, rel=1e-9)
    assert y[2] == pytest.approx(x[2] + x[5] * 1.0, rel=1e-9)
