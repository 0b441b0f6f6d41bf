"""Online estimation of inverse mass and inverse inertia.

The rigid-body dynamics are linear in theta = (1/m, 1/J):

    x_dot - Psi(x) = Phi(x, u) theta,

    Psi = (x[3], x[4], x[5], 0, -G, 0)
    Phi = rows 0-2: (0, 0)
          row 3:    (-sin(x[2]) u[0], 0)
          row 4:    ( cos(x[2]) u[0], 0)
          row 5:    (0, u[1])

The kinematic rows 0-2 carry no parameter, 1/m enters only rows 3-4 and
1/J only row 5. The two columns of Phi have disjoint nonzero rows, so
Phi^T Phi, and with it the accumulated data matrix phibar, is exactly
diagonal: the estimator is two scalar channels k = 0, 1,

    Xi_k = phibar_k theta_hat_k - xbar_k,

coupled only through the norm |Xi| in the two-power flow. This is the
scalar-channel form that dynamic regressor extension and mixing (DREM)
constructs on purpose (Aranovskiy, Bobtsov, Ortega, Pyrkin, "Performance
enhancement of parameter estimators via dynamic regressor extension and
mixing", IEEE TAC 62(7), 2017); here the regressor has it by structure.
Only filter states of the parameter rows 3-5 that are not identically zero
are kept: rows 0-2 only ever meet zero rows of Phi.

Both sides are passed through the stable filter 1/(s + gamma) so that no
derivative of x is ever needed; the improper block s x/(s + gamma) is
realized as x - gamma * (x/(s + gamma)). Filter outputs feed
forgetting-factor data accumulators (xbar, phibar), and the estimate
follows a two-power gradient flow on the residual Xi, whose fractional
exponent drives the error to zero in finite time while the >1 exponent
keeps the far-field rate high. The flow is non-Lipschitz at Xi = 0; a dead
zone of radius DEAD_ZONE stops it at the zero start state.
"""

from dataclasses import dataclass, fields
from math import cos, sin

from .errors import ValidationError, check_field
from .model import G

__all__ = [
    "EstimatorConfig",
    "regressor",
    "filter_deriv",
    "filter_outputs",
    "data_matrix_deriv",
    "estimate_deriv",
    "params_from_theta",
]

# Residual norm |Xi| at or below which the flow stops: the fractional power
# is non-Lipschitz at Xi = 0, the zero start state. Later the flow never
# enters it: fixed-step RK4 parks |Xi| in a band ~dt^1.25, ~1e5 times wider.
DEAD_ZONE = 1e-12
# Least theta entry the control law inverts, so a transient estimate at or
# below zero still gives a finite, positive m_hat and j_hat. Its limit: it caps
# the controller's m_hat and j_hat at 1000 (kg and kg m^2), in a known run too,
# so verify's closed-loop check fails on plant.j = 2000 (rel err 1.5e+01).
THETA_FLOOR = 1e-3


@dataclass(frozen=True)
class EstimatorConfig:
    """Gains and rates of the finite-time estimator; its guards are module constants."""

    c1: float = 6.0
    c2: float = 3.0
    alpha1: float = 0.2
    alpha2: float = 1.2
    forgetting: float = 80.0  # exponential forgetting factor (1/s)
    gamma: float = 10.0  # regressor filter pole (1/s)

    def __post_init__(self):
        for f in fields(self):  # the exponents have ranges of their own
            check_field(self, f.name, positive=f.name not in ("alpha1", "alpha2"))
        if not 0.0 < self.alpha1 < 1.0:
            raise ValidationError("EstimatorConfig.alpha1 must lie in (0, 1)")
        if not self.alpha2 > 1.0:
            raise ValidationError("EstimatorConfig.alpha2 must be > 1")


def regressor(x, u) -> tuple:
    """Nonzero entries of Psi and Phi in the parameter rows 3-5.

    Returns (psi4, phi) with psi4 = Psi[4] = -G and
    phi = (Phi[3][0], Phi[4][0], Phi[5][1]). Rows 0-2 of Psi repeat
    x[3:6] and never reach the estimate; Psi[3] = Psi[5] = 0.
    """
    s3, c3 = sin(x[2]), cos(x[2])
    return -G, (-s3 * u[0], c3 * u[0], u[1])


def filter_deriv(z, x, u, gamma: float) -> tuple:
    """Derivatives of the live filter states.

    z = (z1[3], z1[4], z1[5], z2[4], zphi[3][0], zphi[4][0], zphi[5][1]):
    z1 filters x, z2 filters Psi and zphi filters Phi, each by
    1/(s + gamma) from zero.
    """
    psi4, phi = regressor(x, u)
    return (
        -gamma * z[0] + x[3],
        -gamma * z[1] + x[4],
        -gamma * z[2] + x[5],
        -gamma * z[3] + psi4,
        -gamma * z[4] + phi[0],
        -gamma * z[5] + phi[1],
        -gamma * z[6] + phi[2],
    )


def filter_outputs(z, x, gamma: float) -> tuple:
    """Filtered regressor pair (x_f, Phi_f) in rows 3-5.

    x_f realizes s x/(s+gamma) - Psi/(s+gamma) as x - gamma z1 - z2, so no
    derivative of x appears; Phi_f is the zphi filter state directly.
    """
    x_f = (x[3] - gamma * z[0], x[4] - gamma * z[1] - z[3], x[5] - gamma * z[2])
    return x_f, z[4:7]


def data_matrix_deriv(xbar, phibar, x_f, phi_f, forgetting: float) -> tuple:
    """Forgetting-factor accumulators per channel: (dxbar, dphibar).

    xbar collects Phi_f^T x_f and phibar the diagonal of Phi_f^T Phi_f,
    which stays nonnegative from zero initialization.
    """
    lam = forgetting
    dxbar = (
        -lam * xbar[0] + (phi_f[0] * x_f[0] + phi_f[1] * x_f[1]),
        -lam * xbar[1] + phi_f[2] * x_f[2],
    )
    dphibar = (
        -lam * phibar[0] + (phi_f[0] * phi_f[0] + phi_f[1] * phi_f[1]),
        -lam * phibar[1] + phi_f[2] * phi_f[2],
    )
    return dxbar, dphibar


def estimate_deriv(theta_hat, xbar, phibar, cfg: EstimatorConfig) -> tuple:
    """Two-power gradient flow on the residual Xi_k = phibar_k theta_hat_k - xbar_k."""
    xi0 = phibar[0] * theta_hat[0] - xbar[0]
    xi1 = phibar[1] * theta_hat[1] - xbar[1]
    n = (xi0 * xi0 + xi1 * xi1) ** 0.5
    if n <= DEAD_ZONE:
        return (0.0, 0.0)
    gain = cfg.c1 / n ** (1.0 - cfg.alpha1) + cfg.c2 / n ** (1.0 - cfg.alpha2)
    return (-gain * xi0, -gain * xi1)


def params_from_theta(theta_hat) -> tuple:
    """Invert theta = (1/m, 1/J) for the control law, each entry floored at THETA_FLOOR."""
    return (1.0 / max(theta_hat[0], THETA_FLOOR), 1.0 / max(theta_hat[1], THETA_FLOOR))
