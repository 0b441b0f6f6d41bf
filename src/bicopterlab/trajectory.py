"""Reference trajectories: a tilted ellipse and an order-2 Hilbert path.

Both generators return the plain pair (xi_d, ff): xi_d is the desired
chain state, position through jerk of axis 1 then axis 2 (8 floats), and
ff the 4th-derivative feedforward per axis (2 floats). The ellipse is smooth
and carries an exact analytic feedforward; the Hilbert path is piecewise
linear, so acceleration, jerk, and feedforward are zero and corners are
genuinely nonsmooth.

Each spec builds a table of the constants its reference needs on first
use and keeps it for its lifetime: the ellipse's center, axis
coefficients and powers of omega, and the Hilbert path's 15 segment rows
plus its clamped end state. The table is computed with the same float
operations, in the same order, as the per-call formulas it replaces, so
the references are bit-identical to recomputing everything each call.
It lives in the instance's __dict__ (`functools.cached_property`), not
in a field, so it takes no part in __eq__, __hash__ or __repr__.
"""

from dataclasses import dataclass
from functools import cached_property
from math import cos, radians, sin

from .errors import check_field

__all__ = [
    "EllipseSpec",
    "HilbertSpec",
    "ellipse_ref",
    "hilbert_waypoints",
    "hilbert_ref",
]


@dataclass(frozen=True)
class EllipseSpec:
    """Ellipse with semi-axes (a, b), tilted by phi, traversed at rate omega.

    The path starts at the origin: its center sits at a*(cos phi, sin phi)
    and the position at t = 0 is (0, 0).
    """

    a: float = 5.0
    b: float = 3.0
    phi: float = radians(45.0)
    omega: float = 1.0
    duration = 20.0  # s, the run length of a SimConfig that sets no t_end
    duration_rule = "EllipseSpec.duration"  # how a fault of that length names it

    def __post_init__(self):
        for name in ("a", "b", "phi", "omega"):
            check_field(self, name, positive=name != "phi")

    @property
    def center(self) -> tuple:
        return (self.a * cos(self.phi), self.a * sin(self.phi))

    def start(self) -> tuple:
        return (0.0, 0.0)

    @cached_property
    def _table(self) -> tuple:
        """(c1, c2, A1, B1, A2, B2, w, -w*w, w**3, w**4) of ellipse_ref."""
        cphi, sphi = cos(self.phi), sin(self.phi)
        w = self.omega
        return (
            *self.center,
            -self.a * cphi, -self.b * sphi,
            -self.a * sphi, self.b * cphi,
            w, -w * w, w ** 3, w ** 4,
        )


def ellipse_ref(t: float, spec: EllipseSpec) -> tuple:
    """The (xi_d, ff) pair of the ellipse at time t.

    Per axis the position is c + A cos(wt) + B sin(wt), so every
    derivative is analytic and the 4th derivative is w^4 (pos - c).
    """
    # position = center + (A, B) acting on (cos, sin) per axis
    c1, c2, A1, B1, A2, B2, w, nw2, w3, w4 = spec._table
    cw, sw = cos(w * t), sin(w * t)
    p1 = c1 + A1 * cw + B1 * sw
    p2 = c2 + A2 * cw + B2 * sw
    v1 = w * (-A1 * sw + B1 * cw)
    v2 = w * (-A2 * sw + B2 * cw)
    a1 = nw2 * (A1 * cw + B1 * sw)
    a2 = nw2 * (A2 * cw + B2 * sw)
    j1 = w3 * (A1 * sw - B1 * cw)
    j2 = w3 * (A2 * sw - B2 * cw)
    f1 = w4 * (A1 * cw + B1 * sw)
    f2 = w4 * (A2 * cw + B2 * sw)
    return (p1, v1, a1, j1, p2, v2, a2, j2), (f1, f2)


@dataclass(frozen=True)
class HilbertSpec:
    """Order-2 Hilbert curve over a square of side `size`.

    The 16 grid cells of the 4x4 stage are visited by 15 axis-aligned
    segments of length size/3, each traversed in seg_time seconds at
    constant speed.
    """

    size: float = 3.0
    seg_time: float = 2.0
    origin: tuple = (0.0, 0.0)
    duration_rule = "HilbertSpec.duration = 15 * seg_time"

    def __post_init__(self):
        check_field(self, "size", positive=True)
        check_field(self, "seg_time", positive=True)
        check_field(self, "origin", size=2)

    def start(self) -> tuple:
        return hilbert_waypoints(self)[0]

    @property
    def duration(self) -> float:
        return 15.0 * self.seg_time

    @cached_property
    def _table(self) -> tuple:
        """(segments, end) of hilbert_ref.

        segments holds one row (x0, y0, dx, dy, vx, vy) per segment; end is
        the (xi_d, ff) pair clamped at the last waypoint.
        """
        pts = hilbert_waypoints(self)
        segments = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            dx, dy = x1 - x0, y1 - y0
            segments.append((x0, y0, dx, dy, dx / self.seg_time, dy / self.seg_time))
        px, py = pts[15]
        return tuple(segments), ((px, 0.0, 0.0, 0.0, py, 0.0, 0.0, 0.0), (0.0, 0.0))


# Grid cells (col, row) of the order-2 curve on its 4x4 stage, in traversal order.
_HILBERT_CELLS = (
    (0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (1, 2),
    (2, 2), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1), (2, 0), (3, 0),
)


def hilbert_waypoints(spec: HilbertSpec) -> list:
    """The 16 vertices of the scaled curve, in traversal order."""
    step = spec.size / 3.0
    ox, oy = spec.origin
    return [(ox + step * cx, oy + step * cy) for cx, cy in _HILBERT_CELLS]


def hilbert_ref(t: float, spec: HilbertSpec) -> tuple:
    """Piecewise-linear interpolation along the waypoint path.

    Constant speed (size/3)/seg_time on each segment; past the last
    waypoint the reference clamps there with zero velocity. Feedforward is
    always zero: the path is nonsmooth and carries no 4th derivative.
    """
    segments, end = spec._table
    seg_time = spec.seg_time
    seg = int(t // seg_time) if t >= 0.0 else 0
    if seg >= 15:
        return end
    x0, y0, dx, dy, vx, vy = segments[seg]
    frac = (t - seg * seg_time) / seg_time
    return (x0 + frac * dx, vx, 0.0, 0.0, y0 + frac * dy, vy, 0.0, 0.0), (0.0, 0.0)
