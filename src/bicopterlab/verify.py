"""Numeric verification suite behind the `verify` CLI subcommand.

Three independent oracles, each checking the analytic control law against
a computation that does not share its code path:

  1. relative-degree probe: flow-based input-to-output sensitivities must
     vanish for derivative orders 0-2 and reproduce beta at order 3;
  2. inverse identity: beta @ beta_inv = I over random states;
  3. closed-loop identity: with exact parameters, finite differences of
     the logged output 4th derivative must match the logged virtual input.
"""

from dataclasses import replace
from math import ceil

import numpy as np

from .errors import IllConditioned, ValidationError
from .linearizer import beta, beta_inv, lie_relative_degree_check
from .sim import SimConfig, simulate

__all__ = ["run_verification"]

# Smallest step of the 4th-derivative stencil (s): the default log interval.
STENCIL_MIN_STEP = 0.01
# Stencil centers before this time (s) fall in the startup transient.
STENCIL_CUTOFF = 0.5
# Random states probed by the relative-degree and the inverse checks.
RELATIVE_DEGREE_STATES = 5
BETA_INVERSE_STATES = 1000


def _random_chi(rng: np.random.Generator, chi7_lo: float = 1.0, chi7_hi: float = 20.0):
    chi = rng.uniform(-2.0, 2.0, size=8)
    chi[6] = rng.uniform(chi7_lo, chi7_hi) * rng.choice((-1.0, 1.0))
    return chi


def _check_relative_degree(cfg: SimConfig, emit) -> bool:
    rng = np.random.default_rng(2023)
    worst_lower = 0.0
    worst_k3 = 0.0
    ok = True
    for _ in range(RELATIVE_DEGREE_STATES):
        report = lie_relative_degree_check(_random_chi(rng), cfg.plant)
        worst_lower = max(worst_lower, *report.lower_order_max.values())
        worst_k3 = max(worst_k3, report.k3_rel_err)
        ok = ok and report.passed
    emit(f"relative_degree_lower_order_max: {worst_lower:.6e}")
    emit(f"relative_degree_k3_rel_err_max: {worst_k3:.6e}")
    emit(f"relative_degree_pass: {str(ok).lower()}")
    return ok


def _check_beta_inverse(cfg: SimConfig, emit) -> bool:
    rng = np.random.default_rng(7)
    m, j = cfg.plant.m, cfg.plant.J
    worst = 0.0
    eye = np.eye(2)
    with np.errstate(all="ignore"):  # a product off the float range raises below
        for _ in range(BETA_INVERSE_STATES):
            chi = _random_chi(rng, 0.11, 20.0)
            err = np.abs(beta(chi, m, j) @ beta_inv(chi, m, j) - eye).max()
            if not np.isfinite(err):
                raise IllConditioned("beta inverse check left the float range")
            worst = max(worst, err)
    ok = worst < 1e-10
    emit(f"beta_inverse_max_err: {worst:.6e}")
    emit(f"beta_inverse_pass: {str(ok).lower()}")
    return ok


def fourth_derivative_rel_err(ts) -> float:
    """Worst relative gap between the stencil's y^(4) and the logged v, t > 0.5 s.

    y^(4) is differenced from the logged positions r1, r2 and compared with
    v1, v2 at the stencil centers. The stencil takes every stride-th logged
    row, with the smallest stride whose step is at least STENCIL_MIN_STEP:
    rounding in the differences grows as h^-4, so a denser log must not
    shrink the step. A run with no stencil center past STENCIL_CUTOFF
    raises ValidationError.
    """
    t = ts.column("t")
    # the slack keeps rounding in an exact ratio (10 + 2e-15) from adding 1
    stride = max(1, ceil(STENCIL_MIN_STEP / (t[1] - t[0]) - 1e-9))
    t_last = t[-1]
    t = t[::stride]
    center = slice(3, len(t) - 3)
    mask = t[center] > STENCIL_CUTOFF
    if not mask.any():
        raise ValidationError(
            f"the closed-loop identity needs a stencil center past the {STENCIL_CUTOFF:g} s"
            f" cutoff; the logged run ends at {t_last:g} s"
        )
    h = t[1] - t[0]
    # 7-point central 4th-derivative stencil, O(h^4): the startup transient
    # carries large 6th derivatives, so the plain 5-point O(h^2) stencil is
    # not accurate enough right after the 0.5 s cutoff.
    w = (-1.0 / 6.0, 2.0, -6.5, 28.0 / 3.0, -6.5, 2.0, -1.0 / 6.0)
    worst = 0.0
    for pos_col, v_col in (("r1", "v1"), ("r2", "v2")):
        y = ts.column(pos_col)[::stride]
        v = ts.column(v_col)[::stride]
        d4 = sum(w[k] * y[k : len(y) - 6 + k] for k in range(6)) + w[6] * y[6:]
        d4 /= h ** 4
        rel = np.abs(d4 - v[center]) / np.maximum(1.0, np.abs(v[center]))
        worst = max(worst, float(rel[mask].max()))
    return worst


def _check_closed_loop_identity(cfg: SimConfig, emit) -> bool:
    """y^(4) reconstructed from logged positions must equal logged v."""
    run_cfg = replace(
        cfg,
        adaptive=False,
        theta0=cfg.theta_true,
        t_end=min(cfg.t_end, 5.0),
    )
    worst = fourth_derivative_rel_err(simulate(run_cfg))
    ok = worst < 1e-3
    emit(f"closed_loop_fourth_derivative_rel_err: {worst:.6e}")
    emit(f"closed_loop_identity_pass: {str(ok).lower()}")
    return ok


def run_verification(cfg: SimConfig, emit=print) -> bool:
    """Run all oracles; emit key: value lines; return overall verdict."""
    results = [
        _check_relative_degree(cfg, emit),
        _check_beta_inverse(cfg, emit),
        _check_closed_loop_identity(cfg, emit),
    ]
    ok = all(results)
    emit(f"all_pass: {str(ok).lower()}")
    return ok
