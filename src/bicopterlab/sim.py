"""Closed-loop simulation: plant, controller, and estimator in one ODE.

All continuous-time laws (extended plant, regressor filters, data
accumulators, estimate flow) are stacked into a single 21-state vector and
integrated synchronously with a fixed-step classical Runge-Kutta scheme;
there is no sample-and-hold. Runs are bitwise deterministic for a fixed
config.

Composite state layout (flat, 21 floats):

    0..7    chi        (plant + thrust chain)
    8..10   z1[3:6]    (filter on x)
    11      z2[4]      (filter on Psi)
    12..14  zphi       (filter on Phi[3][0], Phi[4][0], Phi[5][1])
    15..16  xbar       (one entry per estimator channel)
    17..18  phibar     (diagonal; the off-diagonal is identically zero)
    19..20  theta_hat

Filter states that are identically zero, or that only ever meet a zero
row of Phi, are not integrated; see the estimator module for why the two
parameter channels decouple.
"""

from dataclasses import dataclass, field, fields
from functools import lru_cache
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
from .linearizer import ParamEstimate, iol_w, xi_of_chi
from .model import PlantParams, extended_deriv, rk4_step
from .tracker import GainSet, place_gains, tracking_v
from .trajectory import EllipseSpec, HilbertSpec, ellipse_ref, hilbert_ref

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
_FILTERS = slice(8, 15)
_XBAR = slice(15, 17)
_PHIBAR = slice(17, 19)
_THETA = slice(19, 21)

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
        if len(self.poles) != 4:
            raise ValidationError("SimConfig.poles must have 4 entries")
        if not self.dt > 0.0:
            raise ValidationError("SimConfig.dt must be > 0")
        if not isfinite(self.t_end):
            raise ValidationError("SimConfig.t_end must be finite")
        if not self.t_end >= self.dt:
            raise ValidationError("SimConfig.t_end must be >= dt")
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

    def reference(self, t: float):
        if isinstance(self.traj, EllipseSpec):
            return ellipse_ref(t, self.traj)
        return hilbert_ref(t, self.traj)

    def initial_state(self) -> list:
        """Flat composite state at t = 0.

        The vehicle starts at the trajectory start point, at rest and
        level, with hover thrust computed from the initial mass estimate;
        all estimator states are zero.
        """
        if self.x0 is not None:
            x = tuple(self.x0)
        else:
            sx, sy = self.traj.start()
            x = (sx, sy, 0.0, 0.0, 0.0, 0.0)
        chi7 = self.plant.g / self.theta0[0]
        y = list(x) + [chi7, 0.0] + [0.0] * (N_STATE - 10)
        y[_THETA] = self.theta0
        return y


@lru_cache(maxsize=16)
def _gains_for(poles: tuple) -> GainSet:
    return place_gains(poles)


def _control(chi, theta, t: float, cfg: SimConfig) -> tuple:
    """Controller outputs (xi, des, v, w) at one instant."""
    m_hat, j_hat = params_from_theta(theta, cfg.est.theta_floor)
    est = ParamEstimate((1.0 / m_hat, 1.0 / j_hat))
    xi = xi_of_chi(chi, est, cfg.plant.g)
    des = cfg.reference(t)
    v = tracking_v(xi, des, _gains_for(cfg.poles))
    return xi, des, v, iol_w(chi, v, est)


def _deriv_flat(y, t: float, cfg: SimConfig) -> list:
    """Time derivative of the flat composite state."""
    p = cfg.plant
    ecfg = cfg.est
    chi = y[_CHI]
    theta = y[_THETA]
    w = _control(chi, theta, t, cfg)[3]
    dchi = extended_deriv(chi, w, p)

    x = chi[0:6]
    u = (chi[6], w[1])
    z = y[_FILTERS]
    xbar = y[_XBAR]
    phibar = y[_PHIBAR]
    dz = filter_deriv(z, x, u, p.g, ecfg.gamma)
    x_f, phi_f = filter_outputs(z, x, ecfg.gamma)
    dxbar, dphibar = data_matrix_deriv(xbar, phibar, x_f, phi_f, ecfg.forgetting)
    if cfg.adaptive:
        dtheta = estimate_deriv(theta, xbar, phibar, ecfg)
    else:
        dtheta = (0.0, 0.0)
    return [*dchi, *dz, *dxbar, *dphibar, *dtheta]


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

    columns: tuple = COLUMNS
    rows: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([r[idx] for r in self.rows])

    def to_csv(self, path) -> None:
        fmt = ",".join(["%.17g"] * len(self.columns)) + "\n"
        with open(path, "w") as f:
            f.write(",".join(self.columns) + "\n")
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


def _record(y, t: float, cfg: SimConfig) -> tuple:
    """Logged row at one instant; recomputes the controller outputs."""
    chi = y[_CHI]
    theta = y[_THETA]
    xi, des, v, w = _control(chi, theta, t, cfg)
    tt = cfg.theta_true
    theta_err = ((theta[0] - tt[0]) ** 2 + (theta[1] - tt[1]) ** 2) ** 0.5
    return (
        (t,)
        + tuple(chi[0:6])
        + (chi[6], w[1])
        + tuple(w)
        + tuple(xi)
        + tuple(des.xi_d)
        + tuple(v)
        + tuple(theta)
        + (theta_err,)
        + (chi[0] - des.xi_d[0], chi[1] - des.xi_d[4])
    )


def simulate(cfg: SimConfig) -> TimeSeries:
    """Integrate the closed loop from 0 to t_end with fixed step dt."""
    y = cfg.initial_state()
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    ts = TimeSeries()

    def deriv(state, t):
        return _deriv_flat(state, t, cfg)

    try:
        ts.rows.append(_record(y, 0.0, cfg))
    except (SingularThrust, NonFiniteState, ArithmeticError) as exc:
        raise _aborted(exc, 0, 0.0) from exc
    for i in range(n_steps):
        t = i * dt
        try:
            y = rk4_step(y, t, dt, deriv)
            if (i + 1) % cfg.log_every == 0 or i + 1 == n_steps:
                ts.rows.append(_record(y, (i + 1) * dt, cfg))
        except (SingularThrust, NonFiniteState, ArithmeticError) as exc:
            raise _aborted(exc, i, t) from exc
    return ts


def _aborted(exc: Exception, i: int, t: float) -> Exception:
    """The error that ends a run at step i; float overflow ends as NonFiniteState."""
    if isinstance(exc, ArithmeticError):
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


def summarize(ts: TimeSeries, cfg: SimConfig | None = None) -> Metrics:
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
