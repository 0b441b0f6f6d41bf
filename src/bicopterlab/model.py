"""Planar bicopter rigid-body model and its dynamically extended form.

The vehicle moves in a vertical plane, under gravity G, with state

    x = (r1, r2, theta, r1_dot, r2_dot, theta_dot),

where (r1, r2) is the center-of-mass position in the inertial frame and
theta is the roll angle. The two propellers produce forces f1 and f2 along
the body vertical axis; the physical inputs are folded into

    u = (u1, u2) = (f1 + f2, ell * (f2 - f1)),

i.e. total thrust and differential torque; the model takes u, so it never
needs the rotor arm ell. The extended model appends the thrust and its rate
as states, chi = (x, u1, u1_dot), so that the new input w = (u1_ddot, u2)
enters through an invertible map away from chi7 = 0.

`rk4_step` is the one integrator, shared by the closed-loop simulation and
the drift flows of the relative-degree oracle.
"""

from dataclasses import dataclass, fields
from math import cos, isfinite, sin

from .errors import NonFiniteState, check_field

__all__ = [
    "PlantParams",
    "extended_deriv",
    "rk4_step",
]

G = 9.81  # gravity (m/s^2): exactly known to the controller, which estimates only m and J


@dataclass(frozen=True)
class PlantParams:
    """True mass and inertia of the simulated vehicle (SI units), the two the estimator learns."""

    m: float = 1.0
    J: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            check_field(self, f.name, positive=True)


def extended_deriv(chi, w, p: PlantParams) -> tuple:
    """Right-hand side of the 8-state thrust-extended dynamics.

    Rows 1-6 are the plant dynamics with u1 replaced by the state chi7;
    the thrust chain chi7, chi8 is a double integrator driven by w1, and
    w2 is the torque.
    """
    s3, c3 = sin(chi[2]), cos(chi[2])
    return (
        chi[3],
        chi[4],
        chi[5],
        -chi[6] * s3 / p.m,
        -G + chi[6] * c3 / p.m,
        w[1] / p.J,
        chi[7],
        w[0],
    )


def rk4_step(state, t: float, dt: float, deriv) -> list:
    """One classical 4th-order Runge-Kutta step of an arbitrary ODE.

    `state` is any sequence of floats and `deriv(state, t)` returns a
    sequence of the same length. dt may be negative, which integrates
    backwards in time.
    """
    n = len(state)
    k1 = deriv(state, t)
    h2 = 0.5 * dt
    k2 = deriv([state[i] + h2 * k1[i] for i in range(n)], t + h2)
    k3 = deriv([state[i] + h2 * k2[i] for i in range(n)], t + h2)
    k4 = deriv([state[i] + dt * k3[i] for i in range(n)], t + dt)
    sixth = dt / 6.0
    out = [state[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(n)]
    if not isfinite(sum(out)):
        if not all(isfinite(v) for v in out):
            raise NonFiniteState("integration step produced a non-finite entry")
    return out
