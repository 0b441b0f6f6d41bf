"""Acceptance gate: the ten primary criteria, one test (and one verdict
line) each.

Each test prints a single `criterion N (<name>): PASS/FAIL` line with the
measured numbers, then asserts. Expensive simulations are shared through
fixtures: the canonical adaptive runs come from conftest.py, the rest are
module-scoped here.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from bicopterlab.estimator import EstimatorConfig, filter_outputs
from bicopterlab.linearizer import beta, beta_inv, lie_relative_degree_check
from bicopterlab.model import PlantParams
from bicopterlab.sim import (
    _CHI,
    _FILTERS,
    _PHIBAR,
    SimConfig,
    _closed_loop,
    rk4_step,
    simulate,
    summarize,
)
from bicopterlab.tracker import brunovsky_matrices, place_gains
from bicopterlab.trajectory import HilbertSpec, hilbert_waypoints
from bicopterlab.verify import fourth_derivative_rel_err

DESIGN_POLES = (-4.5, -4.0, -5.0, -5.5)
KNOWN_CFG = SimConfig(adaptive=False, theta0=(1.0, 20.0))
ADAPTIVE_CFG = SimConfig()


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


@pytest.fixture(scope="module")
def ellipse_known():
    """Known-parameters ellipse run, with its wall-clock duration."""
    t0 = time.perf_counter()
    ts = simulate(KNOWN_CFG)
    return ts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def adaptive_internals():
    """5 s adaptive run integrated by hand to expose estimator internals.

    Returns the worst filtered-regressor residual over the parameter rows
    3-5 for t >= 1 s, and the smallest eigenvalue of the accumulated data
    matrix over the run. phibar is diagonal, so its eigenvalues are its
    diagonal entries.
    """
    cfg = replace(ADAPTIVE_CFG, t_end=5.0)
    y = cfg.initial_state()
    dt = cfg.dt
    theta = cfg.theta_true
    deriv = _closed_loop(cfg)[0]
    worst_resid = 0.0
    min_eig = np.inf
    for i in range(int(round(cfg.t_end / dt))):
        y = rk4_step(y, i * dt, dt, deriv)
        if (i + 1) % cfg.log_every == 0:
            x_f, phi_f = filter_outputs(y[_FILTERS], y[_CHI][:6], cfg.est.gamma)
            # rows 3 and 4 carry 1/m, row 5 carries 1/J
            resid = np.array(
                [x_f[0] - phi_f[0] * theta[0], x_f[1] - phi_f[1] * theta[0],
                 x_f[2] - phi_f[2] * theta[1]]
            )
            if (i + 1) * dt >= 1.0:
                worst_resid = max(worst_resid, float(np.linalg.norm(resid)))
            min_eig = min(min_eig, *y[_PHIBAR])
    return worst_resid, min_eig


def test_criterion_01_gain_reproduction():
    gains = place_gains(DESIGN_POLES)
    magnitudes = tuple(map(abs, gains))
    exact = magnitudes == (495.0, 422.75, 134.75, 19.0)
    A, B = brunovsky_matrices()
    eigs = sorted(
        np.linalg.eigvals(A + B @ np.kron(np.eye(2), gains)), key=lambda s: (s.real, s.imag)
    )
    want = sorted(list(DESIGN_POLES) * 2)
    eig_err = max(abs(a - b) for a, b in zip(eigs, want))
    ok = exact and eig_err < 1e-9
    _verdict(1, "gain reproduction", ok, f"magnitudes={magnitudes}, eig_err={eig_err:.2e}")
    assert ok


def test_criterion_02_relative_degree_oracle():
    p = PlantParams()
    rng = np.random.default_rng(2023)
    worst_lower = 0.0
    worst_k3 = 0.0
    for _ in range(20):
        chi = list(rng.normal(size=8))
        chi[6] = rng.uniform(1.0, 20.0) * rng.choice((-1.0, 1.0))
        report = lie_relative_degree_check(tuple(chi), p)
        worst_lower = max(worst_lower, max(report.lower_order_max.values()))
        worst_k3 = max(worst_k3, report.k3_rel_err)
    ok = worst_lower < 1e-6 and worst_k3 < 1e-4
    _verdict(2, "relative degree", ok, f"lower_max={worst_lower:.2e}, k3_rel={worst_k3:.2e}")
    assert ok


def test_criterion_03_exact_linearization_identity(ellipse_known):
    ts, _ = ellipse_known
    worst = fourth_derivative_rel_err(ts)
    ok = worst < 1e-3
    _verdict(3, "exact linearization", ok, f"worst fd4-vs-v rel err={worst:.2e}")
    assert ok


def test_criterion_04_tracking_performance(ellipse_known):
    ts, runtime = ellipse_known
    t = ts.column("t")
    pos_err = np.hypot(ts.column("pos_err1"), ts.column("pos_err2"))
    worst_late = float(pos_err[t > 2.0].max())
    met = summarize(ts)
    ok = worst_late < 0.05 and met.pos_rmse < 1e-2 and runtime < 5.0
    _verdict(
        4,
        "tracking performance",
        ok,
        f"max err t>2s={worst_late:.4f} m, rmse={met.pos_rmse:.2e} m, runtime={runtime:.2f} s",
    )
    assert ok


def test_criterion_05_finite_time_estimation(ellipse_adaptive):
    met = summarize(ellipse_adaptive)
    primary = met.theta_converge_time <= 1.0
    if primary:
        _verdict(5, "finite-time estimation", True,
                 f"theta_converge_time={met.theta_converge_time:.3f} s")
        return

    # Stated fallback for an integrator-sensitive threshold: convergence
    # speeds up with c1 and the error trace is non-increasing after the
    # filter transients. The torque channel on the ellipse is ~1e-2 N m,
    # so its row of the data matrix is ~1e-8 and the inertia axis of the
    # two-power flow moves orders of magnitude too slowly to cross 1e-6
    # within 1 s at any step size; the primary threshold is unreachable
    # under the pinned configuration.
    finals = []
    for c1 in (3.0, 6.0, 12.0):
        cfg = replace(ADAPTIVE_CFG, est=EstimatorConfig(c1=c1), t_end=5.0)
        finals.append(float(simulate(cfg).column("theta_err_norm")[-1]))
    faster_with_c1 = finals[0] > finals[1] > finals[2]

    t = ellipse_adaptive.column("t")
    te = ellipse_adaptive.column("theta_err_norm")
    after = te[t >= 0.5]
    monotone = bool(np.all(np.diff(after) <= 1e-9 * np.maximum(after[:-1], 1e-12)))

    ok = faster_with_c1 and monotone
    _verdict(
        5,
        "finite-time estimation",
        ok,
        "primary FAIL (theta_converge_time=inf, final err "
        f"{te[-1]:.3f}); fallback: err(5s) at c1=3,6,12 = "
        f"{finals[0]:.3f} > {finals[1]:.3f} > {finals[2]:.3f}, "
        f"monotone after 0.5 s = {monotone}",
    )
    assert ok


def test_criterion_06_regressor_consistency(adaptive_internals):
    worst_resid, _ = adaptive_internals
    ok = worst_resid < 1e-3
    _verdict(6, "regressor consistency", ok, f"max |x_f - Phi_f Theta| t>=1s = {worst_resid:.2e}")
    assert ok


def test_criterion_07_hilbert_run(hilbert_adaptive):
    ts = hilbert_adaptive
    spec = HilbertSpec()
    t = ts.column("t")
    r1, r2 = ts.column("r1"), ts.column("r2")
    # ff = 0 is exercised at every step by construction (hilbert_ref always
    # returns zero feedforward); asserted over a sampling of the horizon.
    from bicopterlab.trajectory import hilbert_ref

    ff_zero = all(
        hilbert_ref(float(tq), spec)[1] == (0.0, 0.0) for tq in np.linspace(0.0, 30.0, 601)
    )
    errs = []
    for k, (wx, wy) in enumerate(hilbert_waypoints(spec)):
        i = int(np.argmin(np.abs(t - k * spec.seg_time)))
        errs.append(float(np.hypot(r1[i] - wx, r2[i] - wy)))
    worst = max(errs)
    worst_k = int(np.argmax(errs))
    completed = t[-1] == pytest.approx(30.0)
    ok = completed and ff_zero and worst < 0.1
    _verdict(
        7,
        "hilbert run",
        ok,
        f"completed={completed}, ff_zero={ff_zero}, worst waypoint err="
        f"{worst:.4f} m at waypoint {worst_k} "
        f"(others max {max(e for i, e in enumerate(errs) if i != worst_k):.4f} m)",
    )
    assert ok


def test_criterion_08_matrix_identities(adaptive_internals):
    rng = np.random.default_rng(1000)
    eye = np.eye(2)
    worst_inv = 0.0
    worst_det = 0.0
    for _ in range(1000):
        chi = list(rng.normal(size=8))
        chi[6] = rng.uniform(0.2, 20.0) * rng.choice((-1.0, 1.0))
        m, j = 1.0 / rng.uniform(0.5, 3.0), 1.0 / rng.uniform(5.0, 40.0)
        b = np.asarray(beta(tuple(chi), m, j))
        worst_inv = max(worst_inv, float(np.abs(b @ np.asarray(beta_inv(tuple(chi), m, j)) - eye).max()))
        det_want = chi[6] / (m**2 * j)
        worst_det = max(worst_det, abs(np.linalg.det(b) - det_want) / abs(det_want))
    A, _ = brunovsky_matrices()
    nilpotent = bool(np.all(np.linalg.matrix_power(A, 4) == 0.0))
    _, min_eig = adaptive_internals
    psd = min_eig >= -1e-12
    ok = worst_inv < 1e-10 and worst_det < 1e-12 and nilpotent and psd
    _verdict(
        8,
        "matrix identities",
        ok,
        f"beta*inv err={worst_inv:.2e}, det rel err={worst_det:.2e}, "
        f"A^4=0: {nilpotent}, min eig(phibar)={min_eig:.2e}",
    )
    assert ok


def test_criterion_09_integrator_order(ellipse_known):
    errs = []
    steps = (25, 50, 100, 200)
    for n in steps:
        h = 1.0 / n
        y = [1.0]
        for i in range(n):
            y = rk4_step(y, i * h, h, lambda s, t: [-s[0]])
        errs.append(abs(y[0] - np.exp(-1.0)))
    slopes = [
        np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(len(errs) - 1)
    ]
    order = min(slopes)

    ts, _ = ellipse_known
    half = simulate(replace(KNOWN_CFG, dt=KNOWN_CFG.dt / 2.0))
    d_final = float(
        np.hypot(
            ts.column("r1")[-1] - half.column("r1")[-1],
            ts.column("r2")[-1] - half.column("r2")[-1],
        )
    )
    ok = order >= 3.9 and d_final < 1e-6
    _verdict(9, "integrator order", ok, f"measured order={order:.2f}, dt-halving shift={d_final:.2e} m")
    assert ok


def test_criterion_10_determinism(ellipse_adaptive, tmp_path):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    ellipse_adaptive.to_csv(pa)
    simulate(ADAPTIVE_CFG).to_csv(pb)
    ok = pa.read_bytes() == pb.read_bytes()
    _verdict(10, "determinism", ok, f"byte-identical CSV: {ok} ({pa.stat().st_size} bytes)")
    assert ok
