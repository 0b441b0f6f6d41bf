"""Brunovsky matrices, pole placement, the closed-loop roots, and the tracking law."""

from cmath import isfinite

import numpy as np
import pytest

from bicopterlab.errors import ValidationError
from bicopterlab.sim import rk4_step
from bicopterlab.sim import SimConfig
from bicopterlab.tracker import _closed_loop_roots, brunovsky_matrices, place_gains, tracking_v

DESIGN_POLES = (-4.5, -4.0, -5.0, -5.5)
DESIGN_GAINS = (-495.0, -422.75, -134.75, -19.0)


def test_brunovsky_structure():
    A, B = brunovsky_matrices()
    assert np.all(np.linalg.matrix_power(A, 4) == 0.0)
    assert np.all(A @ np.eye(8)[0] == 0.0)
    assert np.array_equal(A @ np.eye(8)[1], np.eye(8)[0])
    assert B[3, 0] == 1.0 and B[7, 1] == 1.0
    assert np.count_nonzero(B) == 2


def test_brunovsky_controllable():
    A, B = brunovsky_matrices()
    ctrl = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(4)])
    assert np.linalg.matrix_rank(ctrl) == 8


def test_place_gains_design_poles_exact():
    # dyadic-rational poles make the polynomial expansion exact in floats
    assert place_gains(DESIGN_POLES) == DESIGN_GAINS


def test_place_gains_binomial():
    assert place_gains((-1.0, -1.0, -1.0, -1.0)) == (-1.0, -4.0, -6.0, -4.0)


def test_place_gains_rejects_unstable():
    with pytest.raises(ValidationError, match="nonnegative real part"):
        place_gains((0.0, -1.0, -2.0, -3.0))
    with pytest.raises(ValidationError, match="nonnegative real part"):
        place_gains((-1.0, -2.0, -3.0, 0.5 + 1.0j))


@pytest.mark.parametrize(
    "poles",
    [
        (-1.0, -2.0, -3.0),  # wrong count
        (float("nan"), -4.0, -5.0, -5.5),  # not finite
        (0.0, -1.0, -2.0, -3.0),  # Re >= 0
        (-1.0 + 1.0j, -1.0 + 2.0j, -2.0, -3.0),  # unpaired complex
        (-1e-200,) * 4,  # underflowing gain
    ],
)
def test_every_pole_fault_is_a_validation_error(poles):
    # one `except ValidationError` catches every pole place_gains rejects
    with pytest.raises(ValidationError):
        place_gains(poles)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), complex(-1.0, float("nan")), -1e308]
)
def test_place_gains_rejects_non_finite(bad):
    # -1e308 is finite, but its characteristic polynomial overflows
    with pytest.raises(ValidationError, match="not finite"):
        place_gains((bad, -4.0, -5.0, -5.5))


def test_place_gains_rejects_unpaired_complex():
    with pytest.raises(ValidationError, match="conjugate pairs"):
        place_gains((-1.0 + 1.0j, -1.0 + 2.0j, -2.0, -3.0))
    with pytest.raises(ValidationError, match="conjugate pairs"):
        SimConfig(poles=(-1.0 + 1.0j, -1.0, -2.0, -3.0))


@pytest.mark.parametrize("poles", [(-1e-200,) * 4, (-1e-200, -1e-200, -1.0, -1.0)])
def test_place_gains_rejects_underflowed_coefficients(poles):
    # every pole is stable, but a0 (and with four tiny poles a1 and a2)
    # underflows to 0: the row would leave a closed-loop pole at 0
    with pytest.raises(ValidationError, match="zero gain"):
        place_gains(poles)
    with pytest.raises(ValidationError, match="zero gain"):
        SimConfig(poles=poles)


def test_closed_loop_eigenvalues_doubled():
    A, B = brunovsky_matrices()
    for poles in (DESIGN_POLES, (-1.0, -2.0, -3.0, -4.0), (-1.0 + 1.0j, -1.0 - 1.0j, -2.0, -3.0)):
        K = np.kron(np.eye(2), place_gains(poles))
        eigs = np.linalg.eigvals(A + B @ K)
        want = sorted(list(poles) * 2, key=lambda s: (complex(s).real, complex(s).imag))
        got = sorted(eigs, key=lambda s: (s.real, s.imag))
        for a, b in zip(got, want):
            assert abs(a - complex(b)) < 1e-9


DISTINCT_POLES = [
    DESIGN_POLES,
    (-1.0, -2.0, -3.0, -4.0),
    (-0.001, -1000.0, -3.0, -7.0),
    (-5000.0, -4.0, -5.0, -5.5),
    (-1e6, -1.0, -1e-6, -2.0),
    (-1e75, -2e75, -3e75, -4e75),
    (-1e-300, -1.0, -2.0, -3.0),
    (-2.0 + 1.0j, -2.0 - 1.0j, -3.0, -5.0),  # library only: the CLI takes real poles
]
REPEATED_POLES = [(-4.0,) * 4, (-1e70,) * 4]


@pytest.mark.parametrize("poles", DISTINCT_POLES + REPEATED_POLES)
def test_closed_loop_roots(poles):
    distinct = poles in DISTINCT_POLES
    rel = 1e-9 if distinct else 1e-3  # a repeated root moves by about eps ** (1/4)
    k = place_gains(poles)
    roots = sorted(_closed_loop_roots(k), key=lambda s: (s.real, s.imag))
    want = sorted(map(complex, poles), key=lambda s: (s.real, s.imag))
    assert len(roots) == 4 and all(isfinite(s) for s in roots)
    for got, pole in zip(roots, want):
        assert abs(got - pole) <= rel * abs(pole)
        if distinct:
            assert (got.imag == 0.0) == (pole.imag == 0.0)  # a real pole's root is exactly real
    nonreal = [s for s in roots if s.imag != 0.0]
    assert sorted(nonreal, key=lambda s: (s.real, s.imag)) == sorted(
        (s.conjugate() for s in nonreal), key=lambda s: (s.real, s.imag)
    )
    # the reference: numpy's eigenvalues of the 4x4 companion matrix, which are
    # accurate relative to the largest root (they put -1e-300 at 0)
    companion = np.diag(np.ones(3), 1)
    companion[3] = k
    ref = sorted(np.linalg.eigvals(companion), key=lambda s: (s.real, s.imag))
    scale = max(abs(s) for s in want)
    assert all(abs(got - r) <= rel * scale for got, r in zip(roots, ref))


def test_tracking_v_zero_error():
    k = place_gains(DESIGN_POLES)
    xi = tuple(float(i) for i in range(8))
    assert tracking_v(xi, (xi, (0.0, 0.0)), k) == (0.0, 0.0)
    assert tracking_v(xi, (xi, (2.0, -1.0)), k) == (2.0, -1.0)


def test_tracking_v_position_gain_sign():
    k = place_gains(DESIGN_POLES)
    xi = (1.0,) + (0.0,) * 7
    assert tracking_v(xi, ((0.0,) * 8, (0.0, 0.0)), k) == (-495.0, 0.0)


def test_tracking_v_affine():
    rng = np.random.default_rng(8)
    k = place_gains(DESIGN_POLES)
    K = np.kron(np.eye(2), k)
    des = (tuple(rng.normal(size=8)), tuple(rng.normal(size=2)))
    for _ in range(20):
        xi = rng.normal(size=8)
        delta = rng.normal(size=8)
        va = np.asarray(tracking_v(tuple(xi + delta), des, k))
        vb = np.asarray(tracking_v(tuple(xi), des, k))
        assert va - vb == pytest.approx(K @ delta, rel=1e-10, abs=1e-10)


def test_error_decay_within_two_seconds():
    # A unit error in any coordinate leaves less than 2% position error
    # after 2 s under the design poles. (The full-state norm in mixed
    # units is dominated by the slower-shrinking jerk coordinate and does
    # not meet 2%; settling is a statement about position.)
    A, B = brunovsky_matrices()
    Acl = A + B @ np.kron(np.eye(2), place_gains(DESIGN_POLES))
    dt = 1e-3
    for j in range(8):
        e = list(np.eye(8)[j])
        for i in range(2000):
            e = rk4_step(e, i * dt, dt, lambda s, t: list(Acl @ s))
        assert abs(e[0]) < 0.02 and abs(e[4]) < 0.02
