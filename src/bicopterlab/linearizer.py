"""Exact linearization of the extended bicopter by thrust-map inversion.

The position output has relative degree 4 per axis, so the feedback

    w = -beta(chi)^-1 (alpha(chi) - v)

turns the extended dynamics into two decoupled 4-integrator chains in the
coordinates xi computed by `xi_of_chi`. The laws take the mass m and the
inertia J as plain numbers: the controller passes its estimates, the
oracles the true plant constants. alpha and beta are hard-coded closed
forms; `lie_relative_degree_check` re-derives them numerically from flows
of the drift field and is the independent oracle used by the `verify` CLI
subcommand.

The input map beta is singular at chi7 = 0 (zero net thrust), hence the
U_MIN guard on every inversion.
"""

from dataclasses import dataclass
from functools import reduce
from math import cos, inf, isfinite, sin, sqrt
from operator import add, mul

from .errors import NonFiniteState, SingularThrust
from .model import G, PlantParams, extended_deriv, rk4_step

__all__ = [
    "U_MIN",
    "alpha",
    "beta",
    "beta_inv",
    "iol_w",
    "xi_of_chi",
    "RelativeDegreeReport",
    "lie_relative_degree_check",
]

# Minimum |chi7| (N) accepted before inverting the input map. The math only
# needs chi7 != 0; the simulation must fail loudly instead of dividing by
# a vanishing thrust.
U_MIN = 0.1


def alpha(chi, m: float) -> tuple:
    """Drift part of the 4th output derivatives, (L_F^4 H1, L_F^4 H2)."""
    s3, c3 = sin(chi[2]), cos(chi[2])
    x6, x7, x8 = chi[5], chi[6], chi[7]
    return (
        -x6 * (2.0 * x8 * c3 - x6 * x7 * s3) / m,
        -x6 * (2.0 * x8 * s3 + x6 * x7 * c3) / m,
    )


def beta(chi, m: float, j: float) -> tuple:
    """Input map multiplying w in the 4th output derivatives, as two rows."""
    s3, c3 = sin(chi[2]), cos(chi[2])
    x7 = chi[6]
    return (
        (-s3 / m, -c3 * x7 / (m * j)),
        (c3 / m, -s3 * x7 / (m * j)),
    )


def _guarded_thrust(chi) -> float:
    """chi7, after checking it is far enough from zero to invert the input map."""
    x7 = chi[6]
    if abs(x7) < U_MIN:
        raise SingularThrust(f"|chi7| = {abs(x7):g} < u_min = {U_MIN:g}")
    return x7


def beta_inv(chi, m: float, j: float) -> tuple:
    """Closed-form inverse of `beta`, as two rows; valid only away from zero thrust.

    Its readers are acceptance criterion 8 and the unit tests. No command or
    run calls it: `iol_w` and the kernel in `sim._closed_loop` inline its rows.
    """
    x7 = _guarded_thrust(chi)
    s3, c3 = sin(chi[2]), cos(chi[2])
    return (
        (-m * s3, m * c3),
        (-j * m * c3 / x7, -j * m * s3 / x7),
    )


def iol_w(chi, v, m: float, j: float) -> tuple:
    """Linearizing feedback w = -beta^-1 (alpha - v), returned as (w1, w2)."""
    x7 = _guarded_thrust(chi)
    s3, c3 = sin(chi[2]), cos(chi[2])
    a1, a2 = alpha(chi, m)
    r1, r2 = v[0] - a1, v[1] - a2
    # Rows of beta_inv applied to (v - alpha); sim._closed_loop inlines them.
    return (
        -m * s3 * r1 + m * c3 * r2,
        -(j * m / x7) * (c3 * r1 + s3 * r2),
    )


def xi_of_chi(chi, m: float) -> tuple:
    """Integrator-chain coordinates (pos, vel, acc, jerk) per axis; G is exact, m an estimate."""
    s3, c3 = sin(chi[2]), cos(chi[2])
    x6, x7, x8 = chi[5], chi[6], chi[7]
    return (
        chi[0],
        chi[3],
        -s3 * x7 / m,
        (-c3 * x7 * x6 - s3 * x8) / m,
        chi[1],
        chi[4],
        -G + c3 * x7 / m,
        (-s3 * x7 * x6 + c3 * x8) / m,
    )


# --- numeric relative-degree oracle ---------------------------------------

# Offsets and weights of the centered stencils applied to output samples
# y(j*h) along the drift flow. The 3rd-derivative stencil is O(h^4).
_D1_W = (1.0, -8.0, 8.0, -1.0)
_D1_J = (-2, -1, 1, 2)
_D2_W = (-1.0, 16.0, -30.0, 16.0, -1.0)
_D2_J = (-2, -1, 0, 1, 2)
_D3_W = (1.0, -8.0, 13.0, -13.0, 8.0, -1.0)
_D3_J = (-3, -2, -1, 1, 2, 3)

# Stencil step along the drift flow (s), RK4 substeps per flow, and the
# size of the state perturbation that stands in for each input column.
_STENCIL_H = 2e-3
_FLOW_SUBSTEPS = 30
_PERTURB = 0.1


def _dot(ws, xs) -> float:
    """Sum of ws[k] * xs[k], added left to right from 0.0: sum() compensates on 3.12+."""
    return reduce(add, map(mul, ws, xs), 0.0)


def _drift_flow_output(chi, p: PlantParams, t: float) -> tuple:
    """Position output H(chi(t)) of the undriven extended flow, via RK4; t < 0 runs backwards."""

    def drift(y, _t):
        return extended_deriv(y, (0.0, 0.0), p)

    h = t / _FLOW_SUBSTEPS
    y = list(chi)
    try:
        for i in range(_FLOW_SUBSTEPS):
            y = rk4_step(y, i * h, h, drift)
    except NonFiniteState as exc:
        raise NonFiniteState("drift flow diverged inside the stencil") from exc
    return (y[0], y[1])


def _output_time_derivs(chi, p: PlantParams) -> tuple:
    """Derivatives d^k/dt^k H along the drift flow, k = 0..3: four rows of (y1, y2)."""
    h = _STENCIL_H
    samples = {}
    for j in range(-3, 4):
        samples[j] = (chi[0], chi[1]) if j == 0 else _drift_flow_output(chi, p, j * h)
    stencils = ((_D1_W, _D1_J, 12.0 * h), (_D2_W, _D2_J, 12.0 * h * h),
                (_D3_W, _D3_J, 8.0 * h ** 3))
    return (samples[0], *(
        tuple(_dot(ws, [samples[j][axis] for j in js]) / den for axis in range(2))
        for ws, js, den in stencils
    ))


def _frobenius(a) -> float:
    """Frobenius norm of a 2x2 matrix, its squares summed row by row."""
    (a11, a12), (a21, a22) = a
    return sqrt(a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22)


@dataclass
class RelativeDegreeReport:
    """Result of the numeric input-to-output-derivative probe."""

    lower_order_max: dict  # k in {0,1,2} -> max scaled |L_G L_F^k H| entry
    k3_matrix: tuple  # numeric L_G L_F^3 H, two rows of 2
    beta_matrix: tuple  # analytic beta at the same state, true params
    k3_rel_err: float
    passed: bool


def lie_relative_degree_check(chi, p: PlantParams) -> RelativeDegreeReport:
    """Numerically probe how the input reaches the output derivatives.

    For each input channel, the output derivatives along the drift flow are
    differenced across a perturbation in that channel's direction. Entries
    for derivative orders 0-2 must vanish (the input has not appeared yet);
    the order-3 sensitivity is the input map and must reproduce `beta`.

    The perturbation directions are the columns of the input matrix: a unit
    step on chi8 for w1 and a step on chi6 scaled by 1/J for w2. alpha and
    the order-3 derivatives are linear in chi6 and chi8, so the
    perturbation can be large, which keeps the divided stencil noise far
    below the tolerance. Raises SingularThrust below U_MIN, like the
    inversions, and NonFiniteState when the probe leaves the float range.
    """
    _guarded_thrust(chi)

    # (derivatives at chi + and - the perturbation, output scale) per input column
    probes = []
    for idx, col_scale in ((7, 1.0), (5, 1.0 / p.J)):
        chi_p, chi_m = list(chi), list(chi)
        chi_p[idx] += _PERTURB
        chi_m[idx] -= _PERTURB
        probes.append((_output_time_derivs(chi_p, p), _output_time_derivs(chi_m, p), col_scale))
    # num[k][i][c]: order k, output i, input column c
    num = tuple(
        tuple(tuple((d_p[k][i] - d_m[k][i]) / (2.0 * _PERTURB) * col_scale
                    for d_p, d_m, col_scale in probes) for i in range(2))
        for k in range(4)
    )
    scale = [max(1.0, *(abs(v) for d_p, d_m, _ in probes for v in (*d_p[k], *d_m[k])))
             for k in range(4)]
    lower = {k: max(abs(v) for row in num[k] for v in row) / scale[k] for k in range(3)}
    k3 = num[3]
    try:
        b = beta(chi, p.m, p.J)
        b_norm = _frobenius(b)
        rel = _frobenius([[x - y for x, y in zip(kr, br)] for kr, br in zip(k3, b)]) / b_norm
    except ZeroDivisionError:  # an extreme plant's m * J underflows to 0 inside beta
        b_norm = rel = inf  # which the check below rejects
    # verify's max() would pass over a NaN, so an overflowed probe ends here;
    # a non-finite derivative in `scale` leaves one in `num` too.
    finite = all(isfinite(v) for rows in num for row in rows for v in row) and isfinite(rel)
    if not (finite and 0.0 < b_norm < inf):
        raise NonFiniteState("relative-degree probe left the float range: k3, beta or |beta|")
    passed = all(lower[k] < 1e-6 for k in range(3)) and rel < 1e-4
    return RelativeDegreeReport(lower, k3, b, rel, passed)
