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

The derivative and the logged row are one kernel, `_closed_loop`. It inlines
`tracking_v`, `iol_w`, `extended_deriv`, the estimator's filters and data
matrices and, in the adaptive derivative, `params_from_theta` and `xi_of_chi`.
The benchmark's tests count the calls left through this module's globals: the
reference (4 per step, 1 per row), `estimate_deriv`, `params_from_theta`,
`rk4_step`, and `xi_of_chi` in the known derivative and the row, pinned at 4 per
step plus 1 per row on a known run until ROADMAP item 1a. The layered functions
remain the kernel's oracle, read by the tests, `verify` and the gate.

A run's log is one flat array("d") of rows. `to_csv`, `from_csv` and `summarize`
(its sums exactly rounded by `math.fsum`) read it in plain Python, so no command
imports numpy; `TimeSeries.rows` shows the same memory as a numpy array, for tests.
"""

from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import cos, fsum, hypot, inf, isfinite, sin, sqrt

from .errors import (
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

    Each writes the control law out, with one unpack of the state, of the
    reference and of `xi_of_chi`'s result, which `deriv` writes out too; the
    sin/cos pair of chi[2] also feeds the plant and the regressor. Each float
    operation keeps the order and grouping of the layered function it inlines,
    and a hoisted constant (-gamma, -G, j0 * m0, ...) is the float it replaces,
    so the rows are theirs bit for bit. The U_MIN guard runs after `xi_of_chi`
    and the reference, as in the layered law. A known run inverts theta_true once.
    """
    pm, pj = cfg.plant.m, cfg.plant.J
    est = cfg.est
    gamma, ngamma, nlam, ng = est.gamma, -est.gamma, -est.forgetting, -G
    k0, k1, k2, k3 = cfg.gains
    traj = cfg.traj
    ref = ellipse_ref if isinstance(traj, EllipseSpec) else hilbert_ref
    adaptive, theta_true = cfg.adaptive, cfg.theta_true
    m0, j0 = params_from_theta(theta_true)
    nm0, jm0 = -m0, j0 * m0
    m_inv, j_inv = theta_true
    err0 = ((theta_true[0] - m_inv) ** 2 + (theta_true[1] - j_inv) ** 2) ** 0.5

    def deriv_known(chi, t: float) -> list:
        _, _, x3, x4, x5, x6, x7, x8 = chi
        xi1, xi2, xi3, xi4, xi5, xi6, xi7, xi8 = xi_of_chi(chi, m0)
        (d1, d2, d3, d4, d5, d6, d7, d8), (f1, f2) = ref(t, traj)
        if abs(x7) < U_MIN:
            _guarded_thrust(chi)
        s3, c3 = sin(x3), cos(x3)
        nx6, x8_2, x67 = -x6, 2.0 * x8, x6 * x7
        r1 = (k0 * (xi1 - d1) + k1 * (xi2 - d2) + k2 * (xi3 - d3) + k3 * (xi4 - d4) + f1
              - nx6 * (x8_2 * c3 - x67 * s3) / m0)
        r2 = (k0 * (xi5 - d5) + k1 * (xi6 - d6) + k2 * (xi7 - d7) + k3 * (xi8 - d8) + f2
              - nx6 * (x8_2 * s3 + x67 * c3) / m0)
        return [x4, x5, x6, -x7 * s3 / pm, ng + x7 * c3 / pm,
                -(jm0 / x7) * (c3 * r1 + s3 * r2) / pj, x8, nm0 * s3 * r1 + m0 * c3 * r2]

    def deriv(y, t: float) -> list:
        (x1, x2, x3, x4, x5, x6, x7, x8, th0, th1,
         z0, z1, z2, z3, z4, z5, z6, xb0, xb1, pb0, pb1) = y
        m, j = (1.0 / (THETA_FLOOR if th0 < THETA_FLOOR else th0),  # params_from_theta's
                1.0 / (THETA_FLOOR if th1 < THETA_FLOOR else th1))  # max(), NaN included
        s3, c3 = sin(x3), cos(x3)  # xi_of_chi's, in its order of operations
        xi3, xi4 = -s3 * x7 / m, (-c3 * x7 * x6 - s3 * x8) / m
        xi7, xi8 = ng + c3 * x7 / m, (-s3 * x7 * x6 + c3 * x8) / m
        (d1, d2, d3, d4, d5, d6, d7, d8), (f1, f2) = ref(t, traj)
        if abs(x7) < U_MIN:
            _guarded_thrust(y)
        nx6, x8_2, x67 = -x6, 2.0 * x8, x6 * x7
        r1 = (k0 * (x1 - d1) + k1 * (x4 - d2) + k2 * (xi3 - d3) + k3 * (xi4 - d4) + f1
              - nx6 * (x8_2 * c3 - x67 * s3) / m)
        r2 = (k0 * (x2 - d5) + k1 * (x5 - d6) + k2 * (xi7 - d7) + k3 * (xi8 - d8) + f2
              - nx6 * (x8_2 * s3 + x67 * c3) / m)
        w2 = -(j * m / x7) * (c3 * r1 + s3 * r2)
        xf0, xf1, xf2 = x4 - gamma * z0, x5 - gamma * z1 - z3, x6 - gamma * z2
        dth0, dth1 = estimate_deriv((th0, th1), (xb0, xb1), (pb0, pb1), est)
        return [x4, x5, x6, -x7 * s3 / pm, ng + x7 * c3 / pm, w2 / pj, x8,
                -m * s3 * r1 + m * c3 * r2,
                dth0, dth1,
                ngamma * z0 + x4, ngamma * z1 + x5, ngamma * z2 + x6, ngamma * z3 + ng,
                ngamma * z4 + -s3 * x7, ngamma * z5 + c3 * x7, ngamma * z6 + w2,
                nlam * xb0 + (z4 * xf0 + z5 * xf1), nlam * xb1 + z6 * xf2,
                nlam * pb0 + (z4 * z4 + z5 * z5), nlam * pb1 + z6 * z6]

    def record(y, t: float) -> tuple:
        x1, x2, x3, x4, x5, x6, x7, x8 = chi = y[_CHI]
        theta = y[_THETA] if adaptive else theta_true
        m, j = params_from_theta(theta) if adaptive else (m0, j0)
        xi = xi1, xi2, xi3, xi4, xi5, xi6, xi7, xi8 = xi_of_chi(chi, m)
        xd, (f1, f2) = ref(t, traj)
        d1, d2, d3, d4, d5, d6, d7, d8 = xd
        if abs(x7) < U_MIN:
            _guarded_thrust(chi)
        s3, c3 = sin(x3), cos(x3)
        nx6, x8_2, x67 = -x6, 2.0 * x8, x6 * x7
        v1 = k0 * (xi1 - d1) + k1 * (xi2 - d2) + k2 * (xi3 - d3) + k3 * (xi4 - d4) + f1
        v2 = k0 * (xi5 - d5) + k1 * (xi6 - d6) + k2 * (xi7 - d7) + k3 * (xi8 - d8) + f2
        r1 = v1 - nx6 * (x8_2 * c3 - x67 * s3) / m
        r2 = v2 - nx6 * (x8_2 * s3 + x67 * c3) / m
        w2 = -(j * m / x7) * (c3 * r1 + s3 * r2)
        err = ((theta[0] - m_inv) ** 2 + (theta[1] - j_inv) ** 2) ** 0.5 if adaptive else err0
        return (t, x1, x2, x3, x4, x5, x6, x7, w2, -m * s3 * r1 + m * c3 * r2, w2, *xi, *xd,
                v1, v2, *theta, err, x1 - d1, x2 - d5)

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

    pos_rmse is the root of the math.fsum mean of the squared error norms from
    RMSE_T_START on; a run that ends before RMSE_T_START averages all of its rows.
    """
    if not ts.data:
        raise ValidationError("cannot summarize an empty time series")
    t, e1, e2 = ts.view("t"), ts.view("pos_err1"), ts.view("pos_err2")
    t0 = RMSE_T_START if t[-1] >= RMSE_T_START else -inf
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
