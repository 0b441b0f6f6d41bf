"""Brunovsky matrices, pole placement, and the tracking law."""

import numpy as np
import pytest

from bicopterlab.errors import UnstablePoleRequest, ValidationError
from bicopterlab.sim import rk4_step
from bicopterlab.tracker import DesiredState, brunovsky_matrices, place_gains, tracking_v

DESIGN_POLES = (-4.5, -4.0, -5.0, -5.5)
DESIGN_MAGNITUDES = (495.0, 422.75, 134.75, 19.0)


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
    gains = place_gains(DESIGN_POLES)
    # dyadic-rational poles make the polynomial expansion exact in floats
    assert gains.magnitudes == DESIGN_MAGNITUDES


def test_place_gains_binomial():
    gains = place_gains((-1.0, -1.0, -1.0, -1.0))
    assert gains.magnitudes == (1.0, 4.0, 6.0, 4.0)


def test_place_gains_rejects_unstable():
    with pytest.raises(UnstablePoleRequest):
        place_gains((0.0, -1.0, -2.0, -3.0))
    with pytest.raises(UnstablePoleRequest):
        place_gains((-1.0, -2.0, -3.0, 0.5 + 1.0j))


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), complex(-1.0, float("nan")), -1e308]
)
def test_place_gains_rejects_non_finite(bad):
    # -1e308 is finite, but its characteristic polynomial overflows
    with pytest.raises(ValidationError, match="not finite"):
        place_gains((bad, -4.0, -5.0, -5.5))


def test_place_gains_rejects_unpaired_complex():
    with pytest.raises(ValueError):
        place_gains((-1.0 + 1.0j, -1.0 + 2.0j, -2.0, -3.0))


def test_closed_loop_eigenvalues_doubled():
    A, B = brunovsky_matrices()
    for poles in (DESIGN_POLES, (-1.0, -2.0, -3.0, -4.0), (-1.0 + 1.0j, -1.0 - 1.0j, -2.0, -3.0)):
        gains = place_gains(poles)
        eigs = np.linalg.eigvals(A + B @ gains.K)
        want = sorted(list(poles) * 2, key=lambda s: (complex(s).real, complex(s).imag))
        got = sorted(eigs, key=lambda s: (s.real, s.imag))
        for a, b in zip(got, want):
            assert abs(a - complex(b)) < 1e-9


def test_tracking_v_zero_error():
    gains = place_gains(DESIGN_POLES)
    xi = tuple(float(i) for i in range(8))
    des = DesiredState(xi_d=xi, ff=(0.0, 0.0))
    assert tracking_v(xi, des, gains) == (0.0, 0.0)
    des_ff = DesiredState(xi_d=xi, ff=(2.0, -1.0))
    assert tracking_v(xi, des_ff, gains) == (2.0, -1.0)


def test_tracking_v_position_gain_sign():
    gains = place_gains(DESIGN_POLES)
    xi = (1.0,) + (0.0,) * 7
    des = DesiredState(xi_d=(0.0,) * 8, ff=(0.0, 0.0))
    assert tracking_v(xi, des, gains) == (-495.0, 0.0)


def test_tracking_v_affine():
    rng = np.random.default_rng(8)
    gains = place_gains(DESIGN_POLES)
    des = DesiredState(xi_d=tuple(rng.normal(size=8)), ff=tuple(rng.normal(size=2)))
    for _ in range(20):
        xi = rng.normal(size=8)
        delta = rng.normal(size=8)
        va = np.asarray(tracking_v(tuple(xi + delta), des, gains))
        vb = np.asarray(tracking_v(tuple(xi), des, gains))
        assert va - vb == pytest.approx(gains.K @ delta, rel=1e-10, abs=1e-10)


def test_error_decay_within_two_seconds():
    # A unit error in any coordinate leaves less than 2% position error
    # after 2 s under the design poles. (The full-state norm in mixed
    # units is dominated by the slower-shrinking jerk coordinate and does
    # not meet 2%; settling is a statement about position.)
    A, B = brunovsky_matrices()
    gains = place_gains(DESIGN_POLES)
    Acl = A + B @ gains.K
    dt = 1e-3
    for j in range(8):
        e = list(np.eye(8)[j])
        for i in range(2000):
            e = rk4_step(e, i * dt, dt, lambda s, t: list(Acl @ s))
        assert abs(e[0]) < 0.02 and abs(e[4]) < 0.02
