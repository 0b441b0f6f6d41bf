"""Symbolic proof of the closed forms: Lie derivatives of the extended model.

The extended dynamics are written here from the physics, independently of
`model.extended_deriv`, as a drift field F and input fields G1 (w1, the
thrust's second derivative) and G2 (w2, the torque), with output
H = (r1, r2). sympy differentiates them exactly:

  * L_G L_F^k H vanishes identically for k = 0, 1, 2, and the decoupling
    matrix L_G L_F^3 H has determinant chi7 / (m^2 J): relative degree 4
    per axis wherever the thrust is nonzero, proved rather than probed;
  * alpha = L_F^4 H, beta = L_G L_F^3 H and xi = (L_F^k H, k = 0..3) per
    axis are what `alpha`, `beta` and `xi_of_chi` compute, and F + G w is
    what `extended_deriv` computes, to 1e-14 relative on random states at
    the model's gravity `model.G`.
"""

import numpy as np
import sympy as sp

from bicopterlab import model
from bicopterlab.linearizer import alpha, beta, xi_of_chi
from bicopterlab.model import PlantParams, extended_deriv

CHI = sp.symbols("r1 r2 theta dr1 dr2 dtheta u1 du1", real=True)
M, J, GRAV = sp.symbols("m J g", positive=True)
W = sp.symbols("w1 w2", real=True)

r1, r2, th, dr1, dr2, dth, u1, du1 = CHI
# Newton-Euler in the plane: thrust u1 along the body vertical, torque w2.
F = sp.Matrix([dr1, dr2, dth, -u1 * sp.sin(th) / M, -GRAV + u1 * sp.cos(th) / M, 0, du1, 0])
G1 = sp.Matrix([0, 0, 0, 0, 0, 0, 0, 1])
G2 = sp.Matrix([0, 0, 0, 0, 0, 1 / J, 0, 0])
H = (r1, r2)


def _lie(h, field):
    return sp.expand((sp.Matrix([h]).jacobian(CHI) * field)[0])


# LF[i][k] = L_F^k H_i for k = 0..4
LF = []
for h in H:
    chain = [h]
    for _ in range(4):
        chain.append(_lie(chain[-1], F))
    LF.append(chain)


def test_input_does_not_reach_the_first_three_derivatives():
    for i in range(2):
        for k in range(3):
            for field in (G1, G2):
                assert sp.simplify(_lie(LF[i][k], field)) == 0, (i, k)


def test_decoupling_matrix_is_invertible_away_from_zero_thrust():
    b = sp.Matrix([[_lie(LF[i][3], field) for field in (G1, G2)] for i in range(2)])
    assert sp.simplify(b.det() - u1 / (M ** 2 * J)) == 0


def _lambdify(exprs):
    return sp.lambdify([CHI, M, J, GRAV, W], list(exprs), modules="math")


SYM_ALPHA = _lambdify(LF[i][4] for i in range(2))
SYM_BETA = _lambdify(_lie(LF[i][3], field) for i in range(2) for field in (G1, G2))
SYM_XI = _lambdify(LF[i][k] for i in range(2) for k in range(4))
SYM_DERIV = _lambdify(F + G1 * W[0] + G2 * W[1])


def _states(n=200):
    rng = np.random.default_rng(4)
    for _ in range(n):
        chi = list(rng.normal(size=8))
        chi[6] = rng.uniform(1.0, 20.0) * rng.choice((-1.0, 1.0))
        m, j = 1.0 / rng.uniform(0.5, 3.0), 1.0 / rng.uniform(5.0, 40.0)
        yield tuple(chi), m, j, tuple(rng.normal(size=2))


def _assert_close(got, want):
    got, want = np.ravel(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_closed_forms_match_the_lie_derivatives():
    for chi, m, j, w in _states():
        args = (chi, m, j, model.G, w)
        _assert_close(alpha(chi, m), SYM_ALPHA(*args))
        _assert_close(beta(chi, m, j), SYM_BETA(*args))
        _assert_close(xi_of_chi(chi, m), SYM_XI(*args))
        _assert_close(extended_deriv(chi, w, PlantParams(m=m, J=j)), SYM_DERIV(*args))
