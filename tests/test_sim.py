"""Closed-loop integration, logging, and summary metrics."""

import hashlib
import json
from array import array
from dataclasses import fields, replace
from math import fsum, isfinite, nextafter, sqrt
from pathlib import Path

import numpy as np
import pytest

from bicopterlab import sim
from bicopterlab.errors import NonFiniteState, SingularThrust, ValidationError
from bicopterlab.estimator import (
    THETA_FLOOR,
    data_matrix_deriv,
    estimate_deriv,
    filter_deriv,
    filter_outputs,
    params_from_theta,
)
from bicopterlab.linearizer import U_MIN, iol_w, xi_of_chi
from bicopterlab.model import G, PlantParams, extended_deriv
from bicopterlab.sim import (
    COLUMNS,
    MAX_STEPS,
    N_STATE,
    Metrics,
    SimConfig,
    TimeSeries,
    _closed_loop,
    rk4_step,
    simulate,
    summarize,
)
from bicopterlab.tracker import place_gains, tracking_v
from bicopterlab.trajectory import EllipseSpec, HilbertSpec, ellipse_ref, hilbert_ref

KNOWN = SimConfig(adaptive=False, theta0=(1.0, 20.0))

# sha256 of the seed-0 telemetry of the benchmark's three workloads.
DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(dt=0.0)
    with pytest.raises(ValidationError):
        SimConfig(t_end=1e-4, dt=1e-3)
    with pytest.raises(ValidationError):
        SimConfig(log_every=0)
    with pytest.raises(ValidationError):
        SimConfig(theta0=(2.0, -1.0))
    with pytest.raises(ValidationError):
        SimConfig(poles=(-1.0, -2.0, -3.0))
    # poles are placed where they enter, not at the first step
    with pytest.raises(ValidationError, match="not finite"):
        SimConfig(poles=(float("nan"), -4.0, -5.0, -5.5))
    with pytest.raises(ValidationError, match="nonnegative real part"):
        SimConfig(poles=(0.5, -4.0, -5.0, -5.5))
    # step budget: huge horizons and tiny steps fail here, not by hanging
    for kwargs in ({"t_end": 1e300}, {"dt": 1e-300}, {"dt": 5e-324}):
        with pytest.raises(ValidationError, match=f"at most {MAX_STEPS} steps"):
            SimConfig(**kwargs)
    SimConfig(t_end=MAX_STEPS * 1e-3)  # the budget itself is admitted


def test_poles_are_placed_once_per_config(monkeypatch):
    placed = []

    def counting_place_gains(poles):
        placed.append(poles)
        return place_gains(poles)

    monkeypatch.setattr(sim, "place_gains", counting_place_gains)
    cfg = replace(KNOWN, t_end=0.05)
    assert cfg.gains == (-495.0, -422.75, -134.75, -19.0)
    simulate(cfg)
    assert placed == [cfg.poles]  # at construction, not again by the run
    # the row is cached, not a field: no config key, no part in eq or repr
    assert "gains" not in {f.name for f in fields(SimConfig)}
    assert cfg == replace(cfg) and "gains" not in repr(cfg)


def test_rk4_constant():
    y = [1.0, -2.0, 3.0]
    out = rk4_step(y, 0.0, 0.1, lambda s, t: [0.0, 0.0, 0.0])
    assert out == y


def test_rk4_stability_polynomial():
    # One step on dy = -y reproduces the degree-4 Taylor polynomial of
    # e^{-h} exactly: 1 - h + h^2/2 - h^3/6 + h^4/24 at h = 0.1.
    out = rk4_step([1.0], 0.0, 0.1, lambda s, t: [-s[0]])
    assert out[0] == pytest.approx(0.9048375, abs=1e-12)


def test_rk4_negative_step_runs_backwards():
    # The drift flows of the relative-degree stencil integrate to t < 0.
    out = rk4_step([1.0], 0.0, -0.1, lambda s, t: [-s[0]])
    assert out[0] == pytest.approx(1.0 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6 + 0.1**4 / 24, abs=1e-12)


def test_rk4_fourth_order_convergence():
    def run(n):
        y = [1.0]
        h = 1.0 / n
        for i in range(n):
            y = rk4_step(y, i * h, h, lambda s, t: [-s[0]])
        return abs(y[0] - np.exp(-1.0))

    e1, e2 = run(50), run(100)
    assert e1 / e2 == pytest.approx(16.0, rel=0.05)


def _indexed_rk4_step(state, t, dt, deriv):
    # rk4_step as an indexed loop over the entries, the form its written-out
    # stages replace: the oracle for their float operations and their order
    n = len(state)
    k1 = deriv(state, t)
    h2 = 0.5 * dt
    k2 = deriv([state[i] + h2 * k1[i] for i in range(n)], t + h2)
    k3 = deriv([state[i] + h2 * k2[i] for i in range(n)], t + h2)
    k4 = deriv([state[i] + dt * k3[i] for i in range(n)], t + dt)
    sixth = dt / 6.0
    out = [state[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(n)]
    if not isfinite(sum(out)):
        if not all(isfinite(v) for v in out):
            raise NonFiniteState("integration step produced a non-finite entry")
    return out


def test_rk4_step_is_the_indexed_loop_bit_for_bit():
    # Same stages, same times and the same result, float.hex for float.hex, on
    # random states and derivatives of every kind the docstring admits.
    rng = np.random.default_rng(31)

    def traced(step, state, t, dt, c, kind):
        calls = []

        def deriv(s, tt):
            calls.append([float(v).hex() for v in (*s, tt)])
            return kind(c[i] * s[i] - s[i - 1] * s[i - 1] + tt for i in range(len(s)))

        return [v.hex() for v in step(state, t, dt, deriv)], calls

    for n in (1, 2, 8, 21, 34):
        for dt in (1e-3, -0.37):
            for state_kind in (list, tuple):
                for deriv_kind in (list, tuple):
                    state = state_kind(float(v) for v in rng.normal(scale=3.0, size=n))
                    c = [float(v) for v in rng.normal(scale=2.0, size=n)]
                    t = float(rng.uniform(-5.0, 5.0))
                    got = traced(rk4_step, state, t, dt, c, deriv_kind)
                    assert got == traced(_indexed_rk4_step, state, t, dt, c, deriv_kind)
    # the non-finite guard: a sum that overflows is no fault while every entry is finite
    assert rk4_step([1e308, 1e308], 0.0, 0.1, lambda s, t: [0.0, 0.0]) == [1e308, 1e308]
    for bad in (float("inf"), float("nan")):
        with pytest.raises(NonFiniteState, match="^integration step produced a non-finite entry$"):
            rk4_step([1.0, bad], 0.0, 0.1, lambda s, t: [0.0, 0.0])


def test_closed_loop_deriv_equilibrium():
    # Hovering on the clamped endpoint of the Hilbert path with true
    # parameters: the plant/controller states are stationary and the
    # known-parameter run integrates no estimator state.
    cfg = SimConfig(traj=HilbertSpec(), t_end=40.0, adaptive=False, theta0=(1.0, 20.0),
                    x0=(3.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    y = cfg.initial_state()
    assert y[0:8] == [3.0, 0.0, 0.0, 0.0, 0.0, 0.0, cfg.plant.m * G, 0.0]
    d = _closed_loop(cfg)[0](y, 35.0)
    assert len(y) == len(d) == 8
    assert np.asarray(d) == pytest.approx(np.zeros(8), abs=1e-12)


def test_t_end_defaults_to_the_trajectory_duration():
    assert SimConfig().t_end == 20.0 == EllipseSpec.duration
    assert SimConfig(t_end=None) == SimConfig()
    assert SimConfig(traj=HilbertSpec()).t_end == 30.0
    assert SimConfig(traj=HilbertSpec(seg_time=3.0)).t_end == 45.0
    assert SimConfig(traj=HilbertSpec(seg_time=3.0), t_end=7.0).t_end == 7.0
    # replace keeps a resolved t_end; None works it out again
    assert replace(SimConfig(), traj=HilbertSpec()).t_end == 20.0
    assert replace(SimConfig(), traj=HilbertSpec(), t_end=None).t_end == 30.0
    # the ellipse's duration is a class constant, not a field or config key
    assert "duration" not in {f.name for f in fields(EllipseSpec)}


def test_initial_state_length_follows_adaptation():
    assert len(SimConfig().initial_state()) == N_STATE
    # a known run starts at the hover thrust of the plant's own mass, not theta0's
    plant = PlantParams(m=1.5)
    adaptive = SimConfig(plant=plant).initial_state()
    known = SimConfig(plant=plant, adaptive=False).initial_state()
    assert len(known) == 8
    assert adaptive[6] == G / 2.0
    assert known == adaptive[:6] + [G / (1.0 / 1.5), 0.0]


def test_known_kernel_is_the_adaptive_kernel_on_chi():
    # The estimator states feed nothing back into chi: on random chi and
    # random plants the known-parameter kernel gives the adaptive kernel's
    # chi rate bit for bit, at theta_hat = theta_true.
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, j = (float(v) for v in 1.0 / rng.uniform(0.5, 30.0, size=2))
        adaptive = SimConfig(plant=PlantParams(m=m, J=j), traj=HilbertSpec())
        chi = [float(v) for v in (*rng.uniform(-2.0, 2.0, size=6), rng.uniform(2.0, 20.0),
                                  rng.normal())]
        rest = [float(v) for v in rng.normal(size=N_STATE - 10)]
        t = float(rng.uniform(0.0, 30.0))
        want = _closed_loop(adaptive)[0](chi + list(adaptive.theta_true) + rest, t)[0:8]
        got = _closed_loop(replace(adaptive, adaptive=False))[0](chi, t)
        assert len(got) == 8
        assert [v.hex() for v in got] == [v.hex() for v in want]


def _layered_loop(cfg):
    """(deriv, record) of cfg assembled from the layered functions the kernel inlines."""
    p, est, traj = cfg.plant, cfg.est, cfg.traj
    ref = ellipse_ref if isinstance(traj, EllipseSpec) else hilbert_ref

    def control(chi, theta, t):
        m_hat, j_hat = params_from_theta(theta)
        xi = xi_of_chi(chi, m_hat)
        des = ref(t, traj)
        v = tracking_v(xi, des, cfg.gains)
        return xi, des, v, iol_w(chi, v, m_hat, j_hat)

    def deriv(y, t):
        if not cfg.adaptive:
            return extended_deriv(y, control(y, cfg.theta_true, t)[3], p)
        chi, theta, z, xbar, phibar = y[0:8], y[8:10], y[10:17], y[17:19], y[19:21]
        w = control(chi, theta, t)[3]
        dz = filter_deriv(z, chi[0:6], (chi[6], w[1]), est.gamma)
        x_f, phi_f = filter_outputs(z, chi[0:6], est.gamma)
        dxbar, dphibar = data_matrix_deriv(xbar, phibar, x_f, phi_f, est.forgetting)
        dtheta = estimate_deriv(theta, xbar, phibar, est)
        return [*extended_deriv(chi, w, p), *dtheta, *dz, *dxbar, *dphibar]

    def record(y, t):
        chi = y[0:8]
        theta = y[8:10] if cfg.adaptive else cfg.theta_true
        xi, (xd, _), v, w = control(chi, theta, t)
        m_inv, j_inv = cfg.theta_true
        err = ((theta[0] - m_inv) ** 2 + (theta[1] - j_inv) ** 2) ** 0.5
        return (t, *chi[0:6], chi[6], w[1], *w, *xi, *xd, *v, *theta, err,
                chi[0] - xd[0], chi[1] - xd[4])

    return deriv, record


def _outcome(fn, y, t):
    """fn(y, t) as float.hex strings, or the type and message of what it raised."""
    try:
        return [float(v).hex() for v in fn(y, t)]
    except SingularThrust as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cfg", [
    SimConfig(),
    SimConfig(traj=HilbertSpec()),
    KNOWN,
    replace(KNOWN, traj=HilbertSpec(), plant=PlantParams(m=1.0 / THETA_FLOOR, J=2.0 / THETA_FLOOR)),
], ids=["ellipse_adaptive", "hilbert_adaptive", "ellipse_known", "hilbert_known_floored"])
def test_kernel_matches_the_layered_functions(cfg):
    # The kernel inlines the layered functions; on random states it must
    # give their derivative and logged row bit for bit, and their abort
    # below U_MIN. Theta entries at and below THETA_FLOOR, a NaN entry and
    # the dead zone's zero start state are included.
    rng = np.random.default_rng(16)
    kernel, layered = _closed_loop(cfg), _layered_loop(cfg)
    thetas = [(THETA_FLOOR, 1.0), (0.5 * THETA_FLOOR, THETA_FLOOR), (-0.3, 0.0), (2.0, -5.0),
              (float("nan"), 3.0)]
    for i in range(200):
        chi = [float(v) for v in rng.normal(scale=2.0, size=8)]
        thrust = U_MIN * rng.uniform(0.0, 1.0) if i % 20 == 1 else rng.uniform(U_MIN, 25.0)
        chi[6] = float(rng.choice([-1.0, 1.0]) * thrust)
        theta = thetas[i] if i < len(thetas) else tuple(rng.uniform(-1.0, 40.0, size=2))
        rest = [0.0] * 11 if i % 10 == 0 else [float(v) for v in rng.normal(size=11)]
        y = chi + [float(v) for v in theta] + rest if cfg.adaptive else chi
        t = float(rng.uniform(0.0, cfg.t_end + 5.0))
        for got, want in zip(kernel, layered):
            assert _outcome(got, y, t) == _outcome(want, y, t)
    # The guards at their edges: chi7 at U_MIN and one float inside it, and
    # theta entries at THETA_FLOOR and one float below it (a known run's
    # kernel reads no theta entry of the state).
    below_u, below_floor = nextafter(U_MIN, 0.0), nextafter(THETA_FLOOR, 0.0)
    for x7 in (U_MIN, -U_MIN, below_u, -below_u):
        for theta in ((THETA_FLOOR, below_floor), (below_floor, THETA_FLOOR)):
            chi = [float(v) for v in rng.normal(scale=2.0, size=8)]
            chi[6] = x7
            y = chi + [*theta, *(float(v) for v in rng.normal(size=11))] if cfg.adaptive else chi
            t = float(rng.uniform(0.0, cfg.t_end + 5.0))
            for got, want in zip(kernel, layered):
                outcome = _outcome(got, y, t)
                assert outcome == _outcome(want, y, t)
                assert (outcome[0] is SingularThrust) == (abs(x7) < U_MIN)


def test_known_run_logs_theta_true():
    cfg = replace(KNOWN, plant=PlantParams(m=0.8, J=0.04), theta0=(1.25, 17.5), t_end=1.0)
    ts = simulate(cfg)
    assert len(ts.rows) == 101
    for name, want in zip(("theta_hat1", "theta_hat2"), cfg.theta_true):
        assert all(v == want for v in ts.column(name))
    assert not ts.column("theta_err_norm").any()


def test_known_run_needs_no_theta0(ellipse_known_io):
    # theta0 seeds only the estimate of an adaptive run; the default (2, 10)
    # flies the canonical known run row for row
    ts = simulate(SimConfig(adaptive=False, log_every=1))
    assert ts.rows.tobytes() == ellipse_known_io.rows.tobytes()


@pytest.mark.parametrize("workload", ["ellipse_adaptive", "hilbert_adaptive", "ellipse_known_io"])
def test_canonical_telemetry_is_byte_identical(workload, request, tmp_path):
    # The behaviour contract: the canonical runs write exactly the pinned CSV.
    # The runs are session fixtures, shared with the acceptance gate and the
    # pinned CLI stdout.
    path = tmp_path / "run.csv"
    request.getfixturevalue(workload).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[workload]


def test_simulate_known_params_tracks():
    # KNOWN's theta0 = (1, 20) is the default plant's theta_true, not the heavier one's
    for plant in (PlantParams(), PlantParams(m=1.5, J=0.08)):
        met = summarize(simulate(replace(KNOWN, plant=plant, t_end=6.0)))
        assert met.pos_rmse < 1e-2
        assert met.settle_time < 2.0
        assert np.isfinite(met.max_thrust) and np.isfinite(met.max_torque)


def test_simulate_reports_abort_step():
    # An absurd initial mass estimate, or a known plant as light, yields
    # sub-guard hover thrust and the run must abort immediately, naming the
    # step; a coarse step diverges and ends in the estimate flow's division.
    # The messages are the ones the layered law gave, word for word.
    singular = "aborted at step 0 (t = 0 s): |chi7| = 0.04905 < u_min = 0.1"
    cases = (
        (SimConfig(theta0=(200.0, 10.0), t_end=1.0), SingularThrust, singular),
        (SimConfig(plant=PlantParams(m=0.005), t_end=1.0, adaptive=False), SingularThrust,
         singular),
        (SimConfig(dt=0.2, t_end=4.0), NonFiniteState,
         "aborted at step 2 (t = 0.4 s): ZeroDivisionError: float division by zero"),
    )
    for cfg, kind, message in cases:
        with pytest.raises(kind) as info:
            simulate(cfg)
        assert type(info.value) is kind and str(info.value) == message


def _assert_float64_block(ts, n):
    assert isinstance(ts.rows, np.ndarray)
    assert ts.rows.dtype == np.float64 and ts.rows.flags.c_contiguous
    assert ts.rows.shape == (n, len(COLUMNS))


def test_log_decimation_and_columns():
    cfg = replace(KNOWN, t_end=0.1, log_every=10)
    ts = simulate(cfg)
    _assert_float64_block(ts, 11)  # t = 0 plus every 10th of 100 steps
    assert ts.column("t")[1] == pytest.approx(0.01)


def test_row_schedule_of_a_whole_float_log_every():
    # log_every = 10.0 is a whole number, so it logs the rows of 10: t = 0,
    # every tenth of the 105 steps, and the last step
    cfg = replace(KNOWN, t_end=0.105, log_every=10)
    ts = simulate(cfg)
    assert simulate(replace(cfg, log_every=10.0)).data.tobytes() == ts.data.tobytes()
    t = ts.view("t")
    assert len(t) == 12 and t[-1] == 0.105


def test_column_is_a_copy():
    ts = simulate(replace(KNOWN, t_end=0.05, log_every=5))
    t = ts.column("t")
    t[:] = -1.0
    assert ts.rows[0, 0] == 0.0 and ts.column("t")[-1] == pytest.approx(0.05)


def test_csv_round_trip(tmp_path):
    cfg = replace(KNOWN, t_end=0.05, log_every=5)
    ts = simulate(cfg)
    path = tmp_path / "run.csv"
    ts.to_csv(path)
    back = TimeSeries.from_csv(path)
    _assert_float64_block(back, 11)
    assert back.rows.tobytes() == ts.rows.tobytes()


def test_logged_xi_follows_linear_model():
    # With true parameters the logged transformed state obeys the Brunovsky
    # model: finite differences of xi match A xi + B v to integration order.
    from bicopterlab.tracker import brunovsky_matrices

    A, B = brunovsky_matrices()
    cfg = replace(KNOWN, t_end=2.0, log_every=1)
    ts = simulate(cfg)
    t = ts.column("t")
    h = t[1] - t[0]
    xi = np.column_stack([ts.column(f"xi{i}") for i in range(1, 9)])
    v = np.column_stack([ts.column("v1"), ts.column("v2")])
    dxi = (xi[2:] - xi[:-2]) / (2.0 * h)
    model = xi[1:-1] @ A.T + v[1:-1] @ B.T
    settled = t[1:-1] >= 0.5  # skip the fast startup transient
    assert np.abs(dxi - model)[settled].max() < 1e-3


def test_adaptive_estimate_error_monotone():
    # The two-power flow only ever shrinks the estimation error once the
    # data matrices have charged up.
    cfg = SimConfig(t_end=5.0)
    ts = simulate(cfg)
    t = ts.column("t")
    te = ts.column("theta_err_norm")
    after = te[t >= 0.5]
    assert np.all(np.diff(after) <= 1e-9)


def test_estimate_band_scales_as_dt_to_the_1_25():
    # Fixed-step RK4 parks the 1/m residual of the non-Lipschitz flow in a
    # band where gain * phibar * dt is of the order of RK4's stability
    # limit; the gain grows as |Xi|^-0.8, so the band scales as
    # dt^(1 / (1 - alpha1)) = dt^1.25. All three runs log at the same times.
    bands, times = [], []
    for dt, log_every in ((1e-3, 10), (5e-4, 20), (2.5e-4, 40)):
        ts = simulate(SimConfig(t_end=6.0, dt=dt, log_every=log_every))
        t = ts.column("t")
        times.append(t)
        bands.append(np.abs(ts.column("theta_hat1") - 1.0)[t >= 3.0].max())
    assert np.allclose(times[0], times[1]) and np.allclose(times[0], times[2])
    for coarse, fine in zip(bands, bands[1:]):
        assert coarse / fine == pytest.approx(2.0 ** 1.25, rel=0.05)


def _series_with(pos_err, theta_err, dt=0.1):
    rows = np.zeros((len(pos_err), len(COLUMNS)))
    rows[:, COLUMNS.index("t")] = np.arange(len(pos_err)) * dt
    rows[:, COLUMNS.index("pos_err1")] = pos_err
    rows[:, COLUMNS.index("theta_err_norm")] = theta_err
    return TimeSeries(array("d", rows.tobytes()))


def test_summarize_zero_error():
    ts = _series_with([0.0] * 50, [0.0] * 50)
    met = summarize(ts)
    assert met.settle_time == 0.0
    assert met.theta_converge_time == 0.0
    assert met.pos_rmse == 0.0


def test_summarize_threshold_crossing():
    theta = [1.0 if k * 0.1 < 0.4 else 1e-9 for k in range(50)]
    ts = _series_with([0.0] * 50, theta)
    met = summarize(ts)
    assert met.theta_converge_time == pytest.approx(0.4)


def test_summarize_constant_error_rmse():
    ts = _series_with([0.1] * 100, [1.0] * 100)
    met = summarize(ts)
    assert met.pos_rmse == pytest.approx(0.1)
    assert met.settle_time == float("inf")
    assert met.theta_converge_time == float("inf")


def test_summarize_empty_series():
    with pytest.raises(ValidationError, match="empty time series"):
        summarize(TimeSeries())


def test_summarize_rmse_is_the_exactly_rounded_mean():
    # pos_rmse is the root of math.fsum's mean of the window's squares, which
    # numpy's pairwise order rounds differently on this series
    err = np.random.default_rng(1).normal(size=200).tolist()
    ts = _series_with(err, [0.0] * 200)
    window = [e for e, t in zip(err, ts.view("t")) if t >= sim.RMSE_T_START]
    want = sqrt(fsum(e * e for e in window) / len(window))
    assert float(np.sqrt(np.mean(np.square(window)))) != want
    assert summarize(ts).pos_rmse == want


def test_summarize_short_run_averages_all_rows():
    # a run that ends before RMSE_T_START has no window; pos_rmse covers all of
    # its rows, not the last one alone
    err = np.random.default_rng(2).normal(size=20).tolist()
    ts = _series_with(err, [0.0] * 20)
    assert ts.view("t")[-1] < sim.RMSE_T_START
    assert summarize(ts).pos_rmse == sqrt(fsum(e * e for e in err) / len(err))
