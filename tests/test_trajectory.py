"""Ellipse and Hilbert reference trajectories."""

from dataclasses import replace
from math import cos, radians, sin

import numpy as np
import pytest

from bicopterlab.cli import _KINDS, parse_config
from bicopterlab.errors import ValidationError
from bicopterlab.sim import SimConfig, simulate
from bicopterlab.trajectory import (
    EllipseSpec,
    HilbertSpec,
    ellipse_ref,
    hilbert_ref,
    hilbert_waypoints,
)

ELLIPSE = EllipseSpec()
HILBERT = HilbertSpec()

# independently derived: -3 sin(45 deg), 10 cos(45 deg) at high precision
START_VEL = -2.1213203435596424
FAR_POINT = 7.0710678118654755


def test_spec_validation():
    with pytest.raises(ValidationError):
        EllipseSpec(a=-1.0)
    with pytest.raises(ValidationError):
        EllipseSpec(omega=0.0)
    with pytest.raises(ValidationError):
        HilbertSpec(size=0.0)
    with pytest.raises(ValidationError):
        HilbertSpec(seg_time=-1.0)
    with pytest.raises(ValidationError):
        HilbertSpec(origin=(0.0, 0.0, 0.0))


def test_ellipse_starts_at_origin():
    xi_d, _ = ellipse_ref(0.0, ELLIPSE)
    assert xi_d[0] == pytest.approx(0.0, abs=1e-15)
    assert xi_d[4] == pytest.approx(0.0, abs=1e-15)
    assert xi_d[1] == pytest.approx(START_VEL, rel=1e-15)


def test_ellipse_half_period():
    xi_d, _ = ellipse_ref(np.pi, ELLIPSE)
    assert xi_d[0] == pytest.approx(FAR_POINT, rel=1e-12)
    assert xi_d[4] == pytest.approx(FAR_POINT, rel=1e-12)


def test_ellipse_locus():
    # Unrotating about the center recovers the canonical 5 x 3 ellipse.
    spec = ELLIPSE
    c = np.asarray(spec.center)
    phi = radians(spec.phi_deg)
    R = np.array(
        [
            [np.cos(-phi), -np.sin(-phi)],
            [np.sin(-phi), np.cos(-phi)],
        ]
    )
    for t in np.linspace(0.0, 2.0 * np.pi, 97):
        xi_d, _ = ellipse_ref(float(t), spec)
        p = np.array([xi_d[0], xi_d[4]])
        q = R @ (p - c)
        assert (q[0] / 5.0) ** 2 + (q[1] / 3.0) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_ellipse_derivative_chain():
    # Each listed derivative is the time derivative of the one before it,
    # including the fourth-derivative feedforward.
    h = 1e-5
    for t in (0.0, 0.7, 2.3, 5.1):
        lo = ellipse_ref(t - h, ELLIPSE)[0]
        hi = ellipse_ref(t + h, ELLIPSE)[0]
        mid, mid_ff = ellipse_ref(t, ELLIPSE)
        for axis in (0, 4):
            for k in range(3):
                fd = (hi[axis + k] - lo[axis + k]) / (2.0 * h)
                assert fd == pytest.approx(mid[axis + k + 1], rel=1e-6, abs=1e-6)
            fd4 = (hi[axis + 3] - lo[axis + 3]) / (2.0 * h)
            assert fd4 == pytest.approx(mid_ff[axis // 4], rel=1e-6, abs=1e-6)


def test_ellipse_feedforward_closed_form():
    # For a harmonic path the 4th derivative is omega^4 (pos - center).
    spec = ELLIPSE
    for t in (0.3, 1.1, 4.0):
        xi_d, ff = ellipse_ref(t, spec)
        assert ff[0] == pytest.approx(spec.omega**4 * (xi_d[0] - spec.center[0]), rel=1e-12)
        assert ff[1] == pytest.approx(spec.omega**4 * (xi_d[4] - spec.center[1]), rel=1e-12)


def test_hilbert_waypoints_shape():
    pts = hilbert_waypoints(HILBERT)
    assert len(pts) == 16
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == (1.0, 0.0)
    assert pts[2] == (1.0, 1.0)
    assert pts[3] == (0.0, 1.0)
    assert pts[15] == (3.0, 0.0)


def test_hilbert_waypoints_cover_grid():
    pts = hilbert_waypoints(HILBERT)
    assert len(set(pts)) == 16
    cells = {(round(x / 1.0), round(y / 1.0)) for x, y in pts}
    assert cells == {(i, j) for i in range(4) for j in range(4)}


def test_hilbert_unit_steps():
    pts = hilbert_waypoints(HilbertSpec(size=6.0, origin=(1.0, -2.0)))
    step = 6.0 / 3.0
    for a, b in zip(pts, pts[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        assert {abs(dx), abs(dy)} == {0.0, step}


def test_hilbert_ref_endpoints():
    xi_d, ff = hilbert_ref(0.0, HILBERT)
    assert (xi_d[0], xi_d[4]) == hilbert_waypoints(HILBERT)[0]
    assert ff == (0.0, 0.0)
    mid = hilbert_ref(HILBERT.seg_time / 2.0, HILBERT)[0]
    assert (mid[0], mid[4]) == (0.5, 0.0)


def test_hilbert_ref_segment_velocity():
    xi_d, _ = hilbert_ref(0.5, HILBERT)
    speed = (HILBERT.size / 3.0) / HILBERT.seg_time
    assert (xi_d[1], xi_d[5]) == (speed, 0.0)
    # acceleration and jerk are declared zero on the linear segments
    assert xi_d[2] == xi_d[3] == xi_d[6] == xi_d[7] == 0.0


def test_hilbert_corner_is_nonsmooth():
    # One-sided velocities at a corner time differ by a right angle.
    tc = HILBERT.seg_time  # first corner
    before = hilbert_ref(tc - 1e-9, HILBERT)[0]
    after = hilbert_ref(tc + 1e-9, HILBERT)[0]
    va = np.array([before[1], before[5]])
    vb = np.array([after[1], after[5]])
    assert float(va @ vb) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(va) > 0.0 and np.linalg.norm(vb) > 0.0


def test_hilbert_clamps_past_end():
    xi_d, ff = hilbert_ref(HILBERT.duration + 5.0, HILBERT)
    assert (xi_d[0], xi_d[4]) == hilbert_waypoints(HILBERT)[-1]
    assert xi_d[1] == xi_d[5] == 0.0
    assert ff == (0.0, 0.0)


def test_hilbert_path_length_and_duration():
    pts = hilbert_waypoints(HILBERT)
    length = sum(
        np.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])
    )
    assert length == pytest.approx(15.0 * HILBERT.size / 3.0)
    assert HILBERT.duration == pytest.approx(15.0 * HILBERT.seg_time)


def test_hilbert_ff_zero_everywhere():
    for t in np.linspace(0.0, HILBERT.duration, 301):
        assert hilbert_ref(float(t), HILBERT)[1] == (0.0, 0.0)


def _bits(des):
    # float.hex tells -0.0 from 0.0, so the comparison is bit for bit
    xi_d, ff = des
    return [v.hex() for v in xi_d + ff]


def _hilbert_ref_per_call(t, spec):
    """Reference copy: rebuild the waypoints and interpolate on every call."""
    pts = hilbert_waypoints(spec)
    seg = int(t // spec.seg_time) if t >= 0.0 else 0
    if seg >= 15:
        px, py = pts[15]
        return (px, 0.0, 0.0, 0.0, py, 0.0, 0.0, 0.0), (0.0, 0.0)
    frac = (t - seg * spec.seg_time) / spec.seg_time
    (x0, y0), (x1, y1) = pts[seg], pts[seg + 1]
    px = x0 + frac * (x1 - x0)
    py = y0 + frac * (y1 - y0)
    vx = (x1 - x0) / spec.seg_time
    vy = (y1 - y0) / spec.seg_time
    return (px, vx, 0.0, 0.0, py, vy, 0.0, 0.0), (0.0, 0.0)


def _ellipse_ref_per_call(t, spec):
    """Reference copy: every coefficient recomputed on every call."""
    w = spec.omega
    phi = radians(spec.phi_deg)
    cphi, sphi = cos(phi), sin(phi)
    cw, sw = cos(w * t), sin(w * t)
    A1, B1 = -spec.a * cphi, -spec.b * sphi
    A2, B2 = -spec.a * sphi, spec.b * cphi
    c1, c2 = spec.center
    xi_d = (
        c1 + A1 * cw + B1 * sw,
        w * (-A1 * sw + B1 * cw),
        -w * w * (A1 * cw + B1 * sw),
        w ** 3 * (A1 * sw - B1 * cw),
        c2 + A2 * cw + B2 * sw,
        w * (-A2 * sw + B2 * cw),
        -w * w * (A2 * cw + B2 * sw),
        w ** 3 * (A2 * sw - B2 * cw),
    )
    return xi_d, (w ** 4 * (A1 * cw + B1 * sw), w ** 4 * (A2 * cw + B2 * sw))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hilbert_table_matches_per_call_interpolation(seed):
    rng = np.random.default_rng(seed)
    spec = HilbertSpec(
        size=float(3.0 + rng.uniform(-0.5, 0.5)),
        seg_time=float(2.0 + rng.uniform(-0.3, 0.3)),
        origin=(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))),
    )
    times = [-1.0, -1e-12, 0.0, spec.duration, spec.duration + 1e-9, spec.duration + 7.0]
    for k in range(16):
        tk = k * spec.seg_time
        times += [tk, np.nextafter(tk, -np.inf), np.nextafter(tk, np.inf), tk + 0.37]
    times += list(rng.uniform(0.0, spec.duration, 200))
    for t in times:
        t = float(t)
        assert _bits(hilbert_ref(t, spec)) == _bits(_hilbert_ref_per_call(t, spec)), t


@pytest.mark.parametrize("phi_deg, omega", [(45.0, 1.0), (-17.5, 0.73), (130.0, 2.4)])
def test_ellipse_table_matches_per_call_formula(phi_deg, omega):
    spec = EllipseSpec(a=4.2, b=2.6, phi_deg=phi_deg, omega=omega)
    for t in np.linspace(-1.0, 25.0, 401):
        t = float(t)
        assert _bits(ellipse_ref(t, spec)) == _bits(_ellipse_ref_per_call(t, spec)), t


def test_built_table_leaves_spec_identity_alone():
    # The CLI builds the library's config for every kind, run length included.
    cases = [("", EllipseSpec)] + [(f"trajectory.kind = {k}", cls) for k, cls in _KINDS.items()]
    for text, cls in cases:
        fresh = SimConfig(traj=cls())
        cfg = parse_config(text)
        simulate(replace(cfg, t_end=0.05))
        assert "_table" in vars(cfg.traj)
        assert "_table" not in vars(fresh.traj)
        assert cfg == fresh and cfg.traj == fresh.traj
        assert hash(cfg) == hash(fresh) and hash(cfg.traj) == hash(fresh.traj)
        assert repr(cfg.traj) == repr(fresh.traj)
