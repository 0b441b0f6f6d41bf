"""Integrator-chain matrices, pole placement, and the tracking law.

After exact linearization the error dynamics per output axis is a chain of
four integrators, so state feedback reduces to matching the coefficients
of the desired characteristic polynomial (companion-form placement). The
same 4-gain row is applied to both axes.

Sign convention: `place_gains` returns the plain 4-tuple k = -(a0, a1,
a2, a3) of gains on (pos, vel, acc, jerk) error, where
s^4 + a3 s^3 + a2 s^2 + a1 s + a0 is the product of (s - pole_i). Applied
to both chains, k makes the closed loop A + B K Hurwitz; `_closed_loop_roots`
finds its roots again without numpy. Gain magnitudes are |k|.

A reference is the pair (xi_d, ff): xi_d stacks position through jerk of
axis 1, then axis 2 (8 floats); ff holds the 4th reference derivative per
axis (2 floats).
"""

from cmath import isfinite, rect
from math import frexp, ldexp, pi, prod

from .errors import ValidationError

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
            raise ValidationError(f"pole {s} has nonnegative real part")
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


def _closed_loop_roots(k) -> list:
    """The four roots of one axis's closed loop, s^4 - k4 s^3 - k3 s^2 - k2 s - k1.

    Durand-Kerner on t = s / 2^e (2^e above Fujiwara's root bound), started on
    the unit circle, not at the requested poles. The split into the two
    quadratic factors nearest to real makes the roots exactly real or exactly
    conjugate, and Newton steps polish them. ValidationError if a scaled
    coefficient underflows to 0.0 or a root comes out with Re >= 0.
    """
    e = frexp(max(-k[3], (-k[2]) ** 0.5, (-k[1]) ** (1 / 3), (-k[0] / 2) ** 0.25))[1] + 1
    c = [ldexp(-g, (i - 4) * e) for i, g in enumerate(k)]  # c[i] multiplies t^i
    if 0.0 in c:  # every gain is nonzero: place_gains rejects a zero one
        raise ValidationError(f"gains {k} underflow once scaled: the closed-loop roots are lost")
    p = lambda t: (((t + c[3]) * t + c[2]) * t + c[1]) * t + c[0]
    dp = lambda t: ((4 * t + 3 * c[3]) * t + 2 * c[2]) * t + c[1]
    size = lambda y: max(abs(y.real), abs(y.imag))  # unlike abs(y), cannot overflow
    z = [rect(1.0, 0.4 + i * pi / 2) for i in range(4)]
    for i in [0, 1, 2, 3] * 300:  # a fixed count: far out or at a repeated root, steps only halve
        d = prod(z[i] - w for j, w in enumerate(z) if j != i)
        t = z[i] - p(z[i]) / d if d else z[i]
        if size(t) <= 64.0:  # refuses nan, inf and any step that could overflow p
            z[i] = t
    unreal = lambda u, v: abs((u + v).imag) + abs((u * v).imag)
    z0, z1, z2, z3 = z  # three ways to split the roots into two quadratic factors
    orders = ((z0, z1, z2, z3), (z0, z2, z1, z3), (z0, z3, z1, z2))
    q = min(orders, key=lambda q: unreal(*q[:2]) + unreal(*q[2:]))  # (s - u)(s - v) nearest real
    roots = []
    for u, v in (q[:2], q[2:]):
        real = abs((u - v).real) >= abs((u - v).imag)  # the sign of the factor's discriminant
        roots += [u.real, v.real] if real else [(u + v.conjugate()) / 2, (u.conjugate() + v) / 2]
    for _ in range(60):  # a Newton step is taken only if it shrinks |p|
        roots = [min(x, x - p(x) / dp(x) if dp(x) else x, key=lambda x: size(p(x))) for x in roots]
    roots = [complex(ldexp(s.real, e), ldexp(s.imag, e)) for s in roots]
    for s in roots:  # the loop is Hurwitz, so such a root is the solve's own failure
        if not s.real < 0.0:
            raise ValidationError(f"gains {k} give a closed-loop root {s} that is not stable")
    return roots


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
