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

A run without adaptation integrates only the N_KNOWN = 10 float prefix,
chi and theta_hat: nothing it logs or feeds back reads the estimator
states, and theta_hat stays exactly theta0. Filter states that are
identically zero, or that only ever meet a zero row of Phi, are never
integrated; see the estimator module for why the two parameter channels
decouple.
"""

from dataclasses import dataclass, field, fields
from math import isfinite

import numpy as np

from .errors import (
    EmptySeries,
    NonFiniteState,
    ParseError,
    SingularThrust,
    ValidationError,
)
from .estimator import (
    EstimatorConfig,
    data_matrix_deriv,
    estimate_deriv,
    filter_deriv,
    filter_outputs,
    params_from_theta,
)
from .linearizer import iol_w, xi_of_chi
from .model import PlantParams, extended_deriv, rk4_step
from .tracker import place_gains, tracking_v
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
N_KNOWN = 10
_CHI = slice(0, 8)
_THETA = slice(8, 10)
_FILTERS = slice(10, 17)
_XBAR = slice(17, 19)
_PHIBAR = slice(19, 21)

# Most RK4 steps (t_end / dt) one run may take: under a minute at the 20-40k
# steps/s of a 2-core host and, at log_every = 1, a million logged rows
# (about 1 GB). The canonical runs take at most 30,000.
MAX_STEPS = 1_000_000

# Settling thresholds used by the summary metrics.
SETTLE_POS_TOL = 0.05  # m
THETA_CONVERGE_TOL = 1e-6
RMSE_T_START = 3.0  # s


@dataclass(frozen=True)
class SimConfig:
    """Full description of one deterministic experiment."""

    plant: PlantParams = PlantParams()
    poles: tuple = (-4.5, -4.0, -5.0, -5.5)
    est: EstimatorConfig = EstimatorConfig()
    traj: object = EllipseSpec()
    dt: float = 1e-3
    t_end: float = 20.0
    adaptive: bool = True
    theta0: tuple = (2.0, 10.0)
    x0: tuple | None = None  # defaults to trajectory start, at rest, level
    log_every: int = 10

    def __post_init__(self):
        place_gains(self.poles)
        if not self.dt > 0.0:
            raise ValidationError("SimConfig.dt must be > 0")
        if not isfinite(self.t_end):
            raise ValidationError("SimConfig.t_end must be finite")
        if not self.t_end >= self.dt:
            raise ValidationError("SimConfig.t_end must be >= dt")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValidationError(f"SimConfig.t_end / dt must be at most {MAX_STEPS} steps")
        if not self.log_every >= 1:
            raise ValidationError("SimConfig.log_every must be >= 1")
        if len(self.theta0) != 2 or self.theta0[0] <= 0.0 or self.theta0[1] <= 0.0:
            raise ValidationError("SimConfig.theta0 entries must be > 0")
        if not all(isfinite(v) for v in self.theta0):
            raise ValidationError("SimConfig.theta0 entries must be finite")
        if self.x0 is not None:
            if len(self.x0) != 6:
                raise ValidationError("SimConfig.x0 must have 6 entries")
            if not all(isfinite(v) for v in self.x0):
                raise ValidationError("SimConfig.x0 entries must be finite")

    @property
    def theta_true(self) -> tuple:
        return (1.0 / self.plant.m, 1.0 / self.plant.J)

    def initial_state(self) -> list:
        """Flat composite state at t = 0.

        The vehicle starts at the trajectory start point, at rest and
        level, with hover thrust computed from the initial mass estimate;
        all estimator states are zero. Without adaptation only the
        N_KNOWN prefix is integrated.
        """
        if self.x0 is not None:
            x = tuple(self.x0)
        else:
            sx, sy = self.traj.start()
            x = (sx, sy, 0.0, 0.0, 0.0, 0.0)
        chi7 = self.plant.g / self.theta0[0]
        y = [*x, chi7, 0.0, *self.theta0]
        return y + [0.0] * (N_STATE - N_KNOWN) if self.adaptive else y


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


@dataclass
class TimeSeries:
    """Logged per-step records of one simulation run, one tuple per row."""

    rows: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        idx = COLUMNS.index(name)
        return np.array([r[idx] for r in self.rows])

    def to_csv(self, path) -> None:
        fmt = ",".join(["%.17g"] * len(COLUMNS)) + "\n"
        with open(path, "w") as f:
            f.write(",".join(COLUMNS) + "\n")
            f.writelines(fmt % row for row in self.rows)

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        """Read a telemetry CSV written by to_csv; ParseError names the bad line.

        Undecodable bytes become U+FFFD, which no header or number matches.
        """
        with open(path, errors="replace") as f:
            if tuple(f.readline().strip().split(",")) != COLUMNS:
                raise ParseError("header does not match the telemetry columns", 1)
            rows = []
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
                rows.append(row)
        return cls(rows=rows)


def _closed_loop(cfg: SimConfig) -> tuple:
    """The run's (derivative, logged row) functions, its constants bound once.

    Both evaluate the same control law. Without adaptation the derivative
    covers only the N_KNOWN prefix, and theta_hat's rate is exactly zero.
    """
    p = cfg.plant
    g = p.g
    est = cfg.est
    gamma, forgetting, floor = est.gamma, est.forgetting, est.theta_floor
    gains = place_gains(cfg.poles)
    traj = cfg.traj
    ellipse = isinstance(traj, EllipseSpec)
    adaptive = cfg.adaptive
    m_inv, j_inv = cfg.theta_true

    def control(chi, theta, t):
        m_hat, j_hat = params_from_theta(theta, floor)
        xi = xi_of_chi(chi, m_hat, g)
        des = ellipse_ref(t, traj) if ellipse else hilbert_ref(t, traj)
        v = tracking_v(xi, des, gains)
        return xi, des, v, iol_w(chi, v, m_hat, j_hat)

    def deriv(y, t: float) -> list:
        chi = y[_CHI]
        theta = y[_THETA]
        w = control(chi, theta, t)[3]
        dchi = extended_deriv(chi, w, p)
        if not adaptive:
            return [*dchi, 0.0, 0.0]
        x = chi[0:6]
        z = y[_FILTERS]
        xbar = y[_XBAR]
        phibar = y[_PHIBAR]
        dz = filter_deriv(z, x, (chi[6], w[1]), g, gamma)
        x_f, phi_f = filter_outputs(z, x, gamma)
        dxbar, dphibar = data_matrix_deriv(xbar, phibar, x_f, phi_f, forgetting)
        dtheta = estimate_deriv(theta, xbar, phibar, est)
        return [*dchi, *dtheta, *dz, *dxbar, *dphibar]

    def record(y, t: float) -> tuple:
        chi = y[_CHI]
        theta = y[_THETA]
        xi, des, v, w = control(chi, theta, t)
        theta_err = ((theta[0] - m_inv) ** 2 + (theta[1] - j_inv) ** 2) ** 0.5
        xd = des.xi_d
        return (t, *chi[0:6], chi[6], w[1], *w, *xi, *xd, *v, *theta, theta_err,
                chi[0] - xd[0], chi[1] - xd[4])

    return deriv, record


# Errors that end a run. Float overflow raises ArithmeticError, and math's
# sin and cos raise ValueError on the infinite angle of a diverged RK4 stage.
_ABORTS = (SingularThrust, NonFiniteState, ArithmeticError, ValueError)


def simulate(cfg: SimConfig) -> TimeSeries:
    """Integrate the closed loop from 0 to t_end with fixed step dt."""
    deriv, record = _closed_loop(cfg)
    y = cfg.initial_state()
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    ts = TimeSeries()
    try:
        ts.rows.append(record(y, 0.0))
    except _ABORTS as exc:
        raise _aborted(exc, 0, 0.0) from exc
    for i in range(n_steps):
        t = i * dt
        try:
            y = rk4_step(y, t, dt, deriv)
            if (i + 1) % cfg.log_every == 0 or i + 1 == n_steps:
                ts.rows.append(record(y, (i + 1) * dt))
        except _ABORTS as exc:
            raise _aborted(exc, i, t) from exc
    return ts


def _aborted(exc: Exception, i: int, t: float) -> Exception:
    """The error that ends a run at step i; arithmetic faults end as NonFiniteState."""
    if isinstance(exc, (ArithmeticError, ValueError)):
        exc = NonFiniteState(f"{type(exc).__name__}: {exc}")
    return type(exc)(f"aborted at step {i} (t = {t:g} s): {exc}")


_NOT_REACHED = float("inf")


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


def _first_sustained(t: np.ndarray, values: np.ndarray, tol: float) -> float:
    """Earliest logged time after which `values` stays below tol."""
    below = values < tol
    if not below[-1]:
        return _NOT_REACHED
    # index of the last sample at or above tol
    above = np.nonzero(~below)[0]
    if len(above) == 0:
        return float(t[0])
    idx = above[-1] + 1
    return float(t[idx]) if idx < len(t) else _NOT_REACHED


def summarize(ts: TimeSeries) -> Metrics:
    """Compute the summary metrics of a logged run."""
    if not ts.rows:
        raise EmptySeries("cannot summarize an empty time series")
    t = ts.column("t")
    pos_err = np.hypot(ts.column("pos_err1"), ts.column("pos_err2"))
    theta_err = ts.column("theta_err_norm")
    window = t >= min(RMSE_T_START, t[-1])
    rmse = float(np.sqrt(np.mean(pos_err[window] ** 2)))
    return Metrics(
        pos_rmse=rmse,
        settle_time=_first_sustained(t, pos_err, SETTLE_POS_TOL),
        theta_converge_time=_first_sustained(t, theta_err, THETA_CONVERGE_TOL),
        max_thrust=float(np.abs(ts.column("u1")).max()),
        max_torque=float(np.abs(ts.column("u2")).max()),
    )
