"""Closed-loop integration, logging, and summary metrics."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bicopterlab.errors import EmptySeries, SingularThrust, UnstablePoleRequest, ValidationError
from bicopterlab.sim import (
    COLUMNS,
    MAX_STEPS,
    N_KNOWN,
    N_STATE,
    Metrics,
    SimConfig,
    TimeSeries,
    _closed_loop,
    rk4_step,
    simulate,
    summarize,
)
from bicopterlab.trajectory import HilbertSpec

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
    with pytest.raises(UnstablePoleRequest):
        SimConfig(poles=(0.5, -4.0, -5.0, -5.5))
    # step budget: huge horizons and tiny steps fail here, not by hanging
    for kwargs in ({"t_end": 1e300}, {"dt": 1e-300}, {"dt": 5e-324}):
        with pytest.raises(ValidationError, match=f"at most {MAX_STEPS} steps"):
            SimConfig(**kwargs)
    SimConfig(t_end=MAX_STEPS * 1e-3)  # the budget itself is admitted


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


def test_closed_loop_deriv_equilibrium():
    # Hovering on the clamped endpoint of the Hilbert path with true
    # parameters: the plant/controller states are stationary and the
    # known-parameter run integrates no estimator state.
    cfg = SimConfig(traj=HilbertSpec(), t_end=40.0, adaptive=False, theta0=(1.0, 20.0),
                    x0=(3.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    y = cfg.initial_state()
    assert y[0:8] == [3.0, 0.0, 0.0, 0.0, 0.0, 0.0, cfg.plant.m * cfg.plant.g, 0.0]
    d = _closed_loop(cfg)[0](y, 35.0)
    assert len(y) == len(d) == N_KNOWN
    assert np.asarray(d[0:8]) == pytest.approx(np.zeros(8), abs=1e-12)
    assert d[8:] == [0.0, 0.0]


def test_initial_state_length_follows_adaptation():
    assert len(SimConfig().initial_state()) == N_STATE
    known = SimConfig(adaptive=False).initial_state()
    assert len(known) == N_KNOWN
    assert known == SimConfig().initial_state()[:N_KNOWN]


def test_known_kernel_is_the_adaptive_kernel_on_chi():
    # The estimator states feed nothing back into chi: on random (chi,
    # theta_hat) the known-parameter kernel gives chi's rate bit for bit.
    rng = np.random.default_rng(11)
    adaptive = SimConfig(traj=HilbertSpec(), t_end=30.0)
    deriv_a = _closed_loop(adaptive)[0]
    deriv_k = _closed_loop(replace(adaptive, adaptive=False))[0]
    for _ in range(50):
        chi = [*rng.uniform(-2.0, 2.0, size=6), rng.uniform(2.0, 20.0), rng.normal()]
        theta = list(rng.uniform(0.5, 30.0, size=2))
        rest = list(rng.normal(size=N_STATE - N_KNOWN))
        t = float(rng.uniform(0.0, 30.0))
        y = [float(v) for v in chi + theta]
        want = deriv_a(y + [float(v) for v in rest], t)[0:8]
        got = deriv_k(y, t)
        assert [v.hex() for v in got[0:8]] == [v.hex() for v in want]
        assert got[8:] == [0.0, 0.0]


def test_known_run_keeps_theta0():
    cfg = replace(KNOWN, theta0=(1.25, 17.5), t_end=1.0)
    ts = simulate(cfg)
    assert len(ts.rows) == 101
    for name, want in zip(("theta_hat1", "theta_hat2"), cfg.theta0):
        assert all(v == want for v in ts.column(name))


@pytest.mark.parametrize("workload", ["ellipse_adaptive", "hilbert_adaptive", "ellipse_known_io"])
def test_canonical_telemetry_is_byte_identical(workload, request, tmp_path):
    # The behaviour contract: the canonical runs write exactly the pinned CSV.
    # The adaptive runs are the session fixtures the acceptance gate also reads.
    if workload == "ellipse_known_io":
        ts = simulate(SimConfig(adaptive=False, theta0=(1.0, 20.0), log_every=1))
    else:
        ts = request.getfixturevalue(workload)
    path = tmp_path / "run.csv"
    ts.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[workload]


def test_simulate_known_params_tracks():
    cfg = replace(KNOWN, t_end=6.0)
    ts = simulate(cfg)
    met = summarize(ts)
    assert met.pos_rmse < 1e-2
    assert met.settle_time < 2.0
    assert np.isfinite(met.max_thrust) and np.isfinite(met.max_torque)


def test_simulate_reports_abort_step():
    # An absurd initial mass estimate yields sub-guard hover thrust and the
    # run must abort immediately, naming the step.
    cfg = SimConfig(theta0=(200.0, 10.0), t_end=1.0)
    with pytest.raises(SingularThrust, match="aborted at step 0"):
        simulate(cfg)


def test_log_decimation_and_columns():
    cfg = replace(KNOWN, t_end=0.1, log_every=10)
    ts = simulate(cfg)
    assert len(ts.rows) == 11  # t = 0 plus every 10th of 100 steps
    assert ts.column("t")[1] == pytest.approx(0.01)
    assert all(len(row) == len(COLUMNS) for row in ts.rows)


def test_csv_round_trip(tmp_path):
    cfg = replace(KNOWN, t_end=0.05, log_every=5)
    ts = simulate(cfg)
    path = tmp_path / "run.csv"
    ts.to_csv(path)
    back = TimeSeries.from_csv(path)
    assert back.rows == [tuple(r) for r in ts.rows]


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


def _series_with(pos_err, theta_err, dt=0.1):
    ts = TimeSeries()
    i_pe1 = COLUMNS.index("pos_err1")
    i_pe2 = COLUMNS.index("pos_err2")
    i_te = COLUMNS.index("theta_err_norm")
    for k, (pe, te) in enumerate(zip(pos_err, theta_err)):
        row = [0.0] * len(COLUMNS)
        row[0] = k * dt
        row[i_pe1] = pe
        row[i_pe2] = 0.0
        row[i_te] = te
        ts.rows.append(tuple(row))
    return ts


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
    with pytest.raises(EmptySeries):
        summarize(TimeSeries())
