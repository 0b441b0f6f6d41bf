"""Integrator-chain matrices, pole placement, and the tracking law.

After exact linearization the error dynamics per output axis is a chain of
four integrators, so state feedback reduces to matching the coefficients
of the desired characteristic polynomial (companion-form placement). The
same 4-gain row is applied to both axes.

Sign convention: `place_gains` returns the plain 4-tuple k = -(a0, a1,
a2, a3) of gains on (pos, vel, acc, jerk) error, where
s^4 + a3 s^3 + a2 s^2 + a1 s + a0 is the product of (s - pole_i); with
K = np.kron(np.eye(2), k), the 2x8 matrix acting blockwise on both chains,
the closed loop A + B K is Hurwitz. Gain magnitudes are |k|.

A reference is the pair (xi_d, ff): xi_d stacks position through jerk of
axis 1, then axis 2 (8 floats); ff holds the 4th reference derivative per
axis (2 floats).
"""

from cmath import isfinite

from .errors import UnstablePoleRequest, ValidationError

__all__ = [
    "brunovsky_matrices",
    "place_gains",
    "tracking_v",
]


def brunovsky_matrices() -> tuple:
    """The two decoupled 4-integrator chains, (A, B) with A 8x8 and B 8x2."""
    import numpy as np

    A = np.zeros((8, 8))
    for row in (0, 1, 2, 4, 5, 6):
        A[row, row + 1] = 1.0
    B = np.zeros((8, 2))
    B[3, 0] = 1.0
    B[7, 1] = 1.0
    return A, B


def place_gains(poles) -> tuple:
    """Synthesize the feedback row k realizing the four requested poles.

    Complex poles must appear in conjugate pairs; the characteristic
    polynomial is expanded over them, so the resulting coefficients are
    real. For the dyadic-rational pole sets used here the expansion is
    exact in floating point.
    """
    poles = tuple(complex(s) for s in poles)
    if len(poles) != 4:
        raise ValidationError("exactly 4 poles are required")
    for s in poles:
        if not isfinite(s):
            raise ValidationError(f"pole {s} is not finite")
        if s.real >= 0.0:
            raise UnstablePoleRequest(f"pole {s} has nonnegative real part")
    conj_sorted = sorted(poles, key=lambda s: (s.real, s.imag))
    paired = sorted((s.conjugate() for s in poles), key=lambda s: (s.real, s.imag))
    if any(abs(a - b) > 1e-12 * max(1.0, abs(a)) for a, b in zip(conj_sorted, paired)):
        raise ValidationError("complex poles must appear in conjugate pairs")

    coeffs = [complex(1.0)]  # monic, ascending convolution with (s - pole)
    for s in poles:
        coeffs = [c for c in coeffs] + [complex(0.0)]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = coeffs[i] - s * coeffs[i - 1]
    # coeffs = [1, a3, a2, a1, a0]
    a3, a2, a1, a0 = (c.real for c in coeffs[1:])
    k = (-a0, -a1, -a2, -a3)
    if not all(isfinite(g) for g in k):
        raise ValidationError(f"poles {poles} give gains that are not finite")
    # A Hurwitz polynomial has only positive coefficients: a zero gain is a
    # coefficient that underflowed, and with it a pole the loop would not have.
    if max(k) >= 0.0:
        raise ValidationError(f"poles {poles} give a zero gain: a coefficient underflows")
    return k


def tracking_v(xi, des, k) -> tuple:
    """Virtual input v = K (xi - xi_d) + ff per axis, for des = (xi_d, ff)."""
    xd, ff = des
    v1 = (
        k[0] * (xi[0] - xd[0])
        + k[1] * (xi[1] - xd[1])
        + k[2] * (xi[2] - xd[2])
        + k[3] * (xi[3] - xd[3])
        + ff[0]
    )
    v2 = (
        k[0] * (xi[4] - xd[4])
        + k[1] * (xi[5] - xd[5])
        + k[2] * (xi[6] - xd[6])
        + k[3] * (xi[7] - xd[7])
        + ff[1]
    )
    return (v1, v2)
