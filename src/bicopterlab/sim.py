"""Closed-loop simulation: plant, controller, and estimator in one ODE.

All continuous-time laws (extended plant, regressor filters, data
accumulators, estimate flow) are stacked into a single flat state vector
and integrated synchronously with a fixed-step classical Runge-Kutta
scheme; there is no sample-and-hold. Runs are bitwise deterministic for a
fixed config.

Composite state layout (flat, N_STATE = 21 floats):

    0..7    chi        (plant + thrust chain)
    8..9    theta_hat
    10..12  z1[3:6]    (filter on x)
    13      z2[4]      (filter on Psi)
    14..16  zphi       (filter on Phi[3][0], Phi[4][0], Phi[5][1])
    17..18  xbar       (one entry per estimator channel)
    19..20  phibar     (diagonal; the off-diagonal is identically zero)

A run without adaptation integrates only chi, 8 floats: its controller holds
the plant's own parameters, theta_true, and nothing it logs or feeds back
reads the estimator states. Filter states that are identically zero, or that
only ever meet a zero row of Phi, are never integrated; see the estimator
module for why the two parameter channels decouple.

The derivative and the logged row are one kernel, `_closed_loop`. It
inlines `tracking_v`, `iol_w`, `extended_deriv`, the estimator's filters
and data matrices and `params_from_theta`. It keeps calling `xi_of_chi`,
the reference, `estimate_deriv` and, once per step, `rk4_step`: the
benchmark's tests pin those call counts. The layered functions remain the
kernel's oracle, read by the tests, `verify` and the acceptance gate.

A run's log is one flat array("d") of rows. `to_csv`, `from_csv` and `summarize`
(its sums exactly rounded by `math.fsum`) read it in plain Python, so only `gains`
imports numpy; `TimeSeries.rows` shows the same memory as a numpy array, for tests.
"""

from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import cos, fsum, hypot, inf, isfinite, sin, sqrt

from .errors import (
    EmptySeries,
    NonFiniteState,
    ParseError,
    SingularThrust,
    ValidationError,
    check_field,
)
# The kernel inlines the layers below that it does not call; perfbench's tracer
# still patches them here, until ROADMAP item 1 re-layers the benchmark.
from .estimator import (  # noqa: F401
    THETA_FLOOR,
    EstimatorConfig,
    data_matrix_deriv,
    estimate_deriv,
    filter_deriv,
    filter_outputs,
    params_from_theta,
)
from .linearizer import U_MIN, _guarded_thrust, iol_w, xi_of_chi  # noqa: F401
from .model import G, PlantParams, extended_deriv, rk4_step  # noqa: F401
from .tracker import place_gains, tracking_v  # noqa: F401
from .trajectory import EllipseSpec, ellipse_ref, hilbert_ref

__all__ = [
    "SimConfig",
    "TimeSeries",
    "Metrics",
    "COLUMNS",
    "simulate",
    "summarize",
]

N_STATE = 21
_CHI = slice(0, 8)
_THETA = slice(8, 10)
_FILTERS = slice(10, 17)
_XBAR = slice(17, 19)
_PHIBAR = slice(19, 21)

# Most RK4 steps (t_end / dt) one run may take: under a minute at the 20-40k
# steps/s of a 2-core host and, at log_every = 1, a million logged rows
# (about 272 MB of float64). The canonical runs take at most 30,000.
MAX_STEPS = 1_000_000

# Settling thresholds used by the summary metrics.
SETTLE_POS_TOL = 0.05  # m
THETA_CONVERGE_TOL = 1e-6
RMSE_T_START = 3.0  # s


@dataclass(frozen=True)
class SimConfig:
    """Full description of one deterministic experiment.

    An unset `t_end` takes the trajectory's duration once, when built; so
    `replace(cfg, traj=..., t_end=None)` takes the new trajectory's.
    `theta0` seeds only an adaptive run's estimate; a known run flies `theta_true`.
    """

    plant: PlantParams = PlantParams()
    poles: tuple = (-4.5, -4.0, -5.0, -5.5)
    est: EstimatorConfig = EstimatorConfig()
    traj: object = EllipseSpec()
    dt: float = 1e-3
    t_end: float | None = None  # None: traj.duration; replace keeps a resolved value
    adaptive: bool = True
    theta0: tuple = (2.0, 10.0)
    x0: tuple | None = None  # defaults to trajectory start, at rest, level
    log_every: int = 10

    def __post_init__(self):
        self.gains  # places the poles, which checks them
        why = ""  # a fault of an unset t_end names the trajectory duration it took
        if self.t_end is None:
            object.__setattr__(self, "t_end", self.traj.duration)
            why = (f"; t_end is unset, so it is the trajectory's duration, "
                   f"{self.traj.duration_rule} = {self.t_end:g} s")
        check_field(self, "dt", positive=True)
        try:
            check_field(self, "t_end")
        except ValidationError as exc:
            raise ValidationError(f"{exc}{why}") from None
        check_field(self, "theta0", positive=True, size=2)
        if self.x0 is not None:
            check_field(self, "x0", size=6)
        if not self.t_end >= self.dt:
            raise ValidationError(f"SimConfig.t_end must be >= dt{why}")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValidationError(f"SimConfig.t_end / dt must be at most {MAX_STEPS} steps{why}")
        if not self.log_every >= 1:
            raise ValidationError("SimConfig.log_every must be >= 1")
        if self.log_every % 1 != 0:  # inf % 1 is nan
            raise ValidationError("SimConfig.log_every must be a whole number")

    @cached_property
    def gains(self) -> tuple:
        """The gain row of `poles`, placed once per config.

        It lives in the instance's __dict__, not in a field, so it is no
        config key and takes no part in __eq__, __hash__ or __repr__.
        """
        return place_gains(self.poles)

    @property
    def theta_true(self) -> tuple:
        return (1.0 / self.plant.m, 1.0 / self.plant.J)

    def initial_state(self) -> list:
        """Flat composite state at t = 0.

        The vehicle starts at the trajectory start point, at rest and
        level, with hover thrust computed from the initial mass estimate
        (the true mass without adaptation); all estimator states are zero.
        Without adaptation the state is chi alone.
        """
        if self.x0 is not None:
            x = tuple(self.x0)
        else:
            sx, sy = self.traj.start()
            x = (sx, sy, 0.0, 0.0, 0.0, 0.0)
        theta = self.theta0 if self.adaptive else self.theta_true
        chi = [*x, G / theta[0], 0.0]
        return [*chi, *theta] + [0.0] * (N_STATE - _FILTERS.start) if self.adaptive else chi


COLUMNS = (
    ("t",)
    + ("r1", "r2", "theta", "dr1", "dr2", "dtheta")
    + ("u1", "u2")
    + ("w1", "w2")
    + tuple(f"xi{i}" for i in range(1, 9))
    + tuple(f"xid{i}" for i in range(1, 9))
    + ("v1", "v2")
    + ("theta_hat1", "theta_hat2")
    + ("theta_err_norm",)
    + ("pos_err1", "pos_err2")
)


@dataclass(eq=False)
class TimeSeries:
    """Logged per-step records of one simulation run, one float64 row per record.

    `data` holds the rows back to back in one flat array("d"). `rows` is the
    same memory as one C-contiguous (rows, len(COLUMNS)) numpy array, made on
    first use, so numpy loads only for the code that asks for it.
    """

    data: array = field(default_factory=lambda: array("d"))

    @cached_property
    def rows(self):
        import numpy as np

        return np.frombuffer(self.data).reshape(-1, len(COLUMNS))

    def view(self, name: str) -> memoryview:
        """Column `name` as a strided view of `data`; it copies nothing."""
        return memoryview(self.data)[COLUMNS.index(name)::len(COLUMNS)]

    def column(self, name: str):
        return self.rows[:, COLUMNS.index(name)].copy()

    def to_csv(self, path) -> None:
        # One row at a time: converting the whole block to Python floats at
        # once would cost about 1.2 KB per row.
        n, data = len(COLUMNS), self.data
        fmt = ",".join(["%.17g"] * n) + "\n"
        with open(path, "w") as f:
            f.write(",".join(COLUMNS) + "\n")
            f.writelines(fmt % tuple(data[i:i + n]) for i in range(0, len(data), n))

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        """Read a telemetry CSV written by to_csv; ParseError names the bad line.

        Undecodable bytes become U+FFFD, which no header or number matches.
        """
        with open(path, errors="replace") as f:
            if tuple(f.readline().strip().split(",")) != COLUMNS:
                raise ParseError("header does not match the telemetry columns", 1)
            buf = array("d")
            for line_no, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                try:
                    row = tuple(map(float, line.split(",")))
                except ValueError as exc:
                    raise ParseError(f"bad field: {exc}", line_no) from exc
                if len(row) != len(COLUMNS):
                    raise ParseError(
                        f"expected {len(COLUMNS)} fields, got {len(row)}", line_no
                    )
                if not isfinite(sum(row)) and not all(map(isfinite, row)):
                    raise ParseError("non-finite field", line_no)
                buf.extend(row)
        return cls(buf)


def _closed_loop(cfg: SimConfig) -> tuple:
    """The run's (derivative, logged row) functions, its constants bound once.

    `law` is the one control law of both; its sin/cos pair of chi[2] also
    feeds the plant and the regressor. Each float operation keeps the order
    and grouping of the layered function it inlines (the module docstring
    lists them, and the calls kept), so the rows are theirs bit for bit. A
    known run inverts theta_true once, here.
    """
    g, pm, pj = G, cfg.plant.m, cfg.plant.J
    est = cfg.est
    gamma, lam = est.gamma, est.forgetting
    k0, k1, k2, k3 = cfg.gains
    traj = cfg.traj
    ref = ellipse_ref if isinstance(traj, EllipseSpec) else hilbert_ref
    adaptive, theta_true = cfg.adaptive, cfg.theta_true
    m0, j0 = params_from_theta(theta_true)
    m_inv, j_inv = theta_true

    def law(chi, m, j, t):
        """(w1, w2, sin, cos of chi[2], xi, xd, v1, v2) at the estimates m and j."""
        xi = xi_of_chi(chi, m)
        xd, ff = ref(t, traj)
        x6, x7, x8 = chi[5], chi[6], chi[7]
        if abs(x7) < U_MIN:
            _guarded_thrust(chi)
        s3, c3 = sin(chi[2]), cos(chi[2])
        v1 = (k0 * (xi[0] - xd[0]) + k1 * (xi[1] - xd[1]) + k2 * (xi[2] - xd[2])
              + k3 * (xi[3] - xd[3]) + ff[0])
        v2 = (k0 * (xi[4] - xd[4]) + k1 * (xi[5] - xd[5]) + k2 * (xi[6] - xd[6])
              + k3 * (xi[7] - xd[7]) + ff[1])
        a1 = -x6 * (2.0 * x8 * c3 - x6 * x7 * s3) / m
        a2 = -x6 * (2.0 * x8 * s3 + x6 * x7 * c3) / m
        r1, r2 = v1 - a1, v2 - a2
        w1 = -m * s3 * r1 + m * c3 * r2
        w2 = -(j * m / x7) * (c3 * r1 + s3 * r2)
        return w1, w2, s3, c3, xi, xd, v1, v2

    def deriv_known(chi, t: float) -> list:
        w1, w2, s3, c3, _, _, _, _ = law(chi, m0, j0, t)
        return [chi[3], chi[4], chi[5], -chi[6] * s3 / pm, -g + chi[6] * c3 / pm, w2 / pj,
                chi[7], w1]

    def deriv(y, t: float) -> list:
        th0, th1 = y[8], y[9]  # params_from_theta's max(), NaN included
        m, j = (1.0 / (THETA_FLOOR if th0 < THETA_FLOOR else th0),
                1.0 / (THETA_FLOOR if th1 < THETA_FLOOR else th1))
        w1, w2, s3, c3, _, _, _, _ = law(y, m, j, t)
        x3, x4, x5, x7 = y[3], y[4], y[5], y[6]
        z0, z1, z2, z3, z4, z5, z6, xb0, xb1, pb0, pb1 = y[10:21]
        xf0 = x3 - gamma * z0
        xf1 = x4 - gamma * z1 - z3
        xf2 = x5 - gamma * z2
        dtheta = estimate_deriv(y[_THETA], y[_XBAR], y[_PHIBAR], est)
        return [x3, x4, x5, -x7 * s3 / pm, -g + x7 * c3 / pm, w2 / pj, y[7], w1,
                dtheta[0], dtheta[1],
                -gamma * z0 + x3, -gamma * z1 + x4, -gamma * z2 + x5, -gamma * z3 + -g,
                -gamma * z4 + -s3 * x7, -gamma * z5 + c3 * x7, -gamma * z6 + w2,
                -lam * xb0 + (z4 * xf0 + z5 * xf1), -lam * xb1 + z6 * xf2,
                -lam * pb0 + (z4 * z4 + z5 * z5), -lam * pb1 + z6 * z6]

    def record(y, t: float) -> tuple:
        chi = y[_CHI]
        theta = y[_THETA] if adaptive else theta_true
        m, j = params_from_theta(theta) if adaptive else (m0, j0)
        w1, w2, _, _, xi, xd, v1, v2 = law(chi, m, j, t)
        theta_err = ((theta[0] - m_inv) ** 2 + (theta[1] - j_inv) ** 2) ** 0.5
        return (t, *chi[0:6], chi[6], w2, w1, w2, *xi, *xd, v1, v2, *theta, theta_err,
                chi[0] - xd[0], chi[1] - xd[4])

    return (deriv if adaptive else deriv_known), record


# Errors that end a run. Float overflow raises ArithmeticError, and math's
# sin and cos raise ValueError on the infinite angle of a diverged RK4 stage.
_ABORTS = (SingularThrust, NonFiniteState, ArithmeticError, ValueError)


def simulate(cfg: SimConfig) -> TimeSeries:
    """Integrate the closed loop from 0 to t_end with fixed step dt."""
    deriv, record = _closed_loop(cfg)
    y = cfg.initial_state()
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    buf = array("d")
    i = 0
    try:
        buf.extend(record(y, 0.0))
        for i in range(n_steps):
            y = rk4_step(y, i * dt, dt, deriv)
            if (i + 1) % cfg.log_every == 0 or i + 1 == n_steps:
                buf.extend(record(y, (i + 1) * dt))
    except _ABORTS as exc:
        raise _aborted(exc, i, i * dt) from exc
    return TimeSeries(buf)


def _aborted(exc: Exception, i: int, t: float) -> Exception:
    """The error that ends a run at step i; arithmetic faults end as NonFiniteState."""
    if isinstance(exc, (ArithmeticError, ValueError)):
        exc = NonFiniteState(f"{type(exc).__name__}: {exc}")
    return type(exc)(f"aborted at step {i} (t = {t:g} s): {exc}")


@dataclass
class Metrics:
    """Summary numbers of one run; inf marks a threshold never reached."""

    pos_rmse: float
    settle_time: float
    theta_converge_time: float
    max_thrust: float
    max_torque: float

    def lines(self):
        for f in fields(self):
            yield f"{f.name}: {getattr(self, f.name):.17g}"


def _first_sustained(t, values, tol: float) -> float:
    """Earliest logged time after which `values` stays below tol."""
    last_above = -1
    for i, value in enumerate(values):
        if not value < tol:
            last_above = i
    # past the last sample at or above tol; if that is the last sample, never
    return inf if last_above == len(t) - 1 else t[last_above + 1]


def summarize(ts: TimeSeries) -> Metrics:
    """Compute the summary metrics of a logged run from strided views of its block.

    pos_rmse is the root of the math.fsum mean of the squared error norms from RMSE_T_START on.
    """
    if not ts.data:
        raise EmptySeries("cannot summarize an empty time series")
    t, e1, e2 = ts.view("t"), ts.view("pos_err1"), ts.view("pos_err2")
    t0 = min(RMSE_T_START, t[-1])
    norms = array("d", (p for p, tt in zip(map(hypot, e1, e2), t) if tt >= t0))
    try:
        rmse = sqrt(fsum(p * p for p in norms) / len(norms))  # inf if a square is
    except OverflowError:  # finite squares whose sum is not
        rmse = inf
    if rmse == inf and (top := max(norms)) < inf:  # rescale the squares by the largest norm
        rmse = top * sqrt(fsum((p / top) * (p / top) for p in norms) / len(norms))
    return Metrics(
        pos_rmse=rmse,
        settle_time=_first_sustained(t, map(hypot, e1, e2), SETTLE_POS_TOL),
        theta_converge_time=_first_sustained(t, ts.view("theta_err_norm"), THETA_CONVERGE_TOL),
        max_thrust=max(map(abs, ts.view("u1"))),
        max_torque=max(map(abs, ts.view("u2"))),
    )
