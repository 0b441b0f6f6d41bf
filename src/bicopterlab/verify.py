"""Numeric verification suite behind the `verify` CLI subcommand.

Two independent oracles, each checking a structural claim of the control
law against a computation that does not share its code path:

  1. relative-degree probe: flow-based input-to-output sensitivities must
     vanish for derivative orders 0-2 and reproduce beta at order 3;
  2. closed-loop identity: with exact parameters, finite differences of
     the logged output 4th derivative must match the logged virtual input.
     The oracle flies its own run, the default ellipse on its own uniform
     log grid, so of the config it reads only the plant, the poles and dt.

Only this module draws random numbers, from the stdlib generator. The
stencil runs on Python floats, reading the log through strided views, so
`verify` does not import numpy.
"""

from math import isfinite
from random import Random

from .errors import BicopterError, ValidationError
from .linearizer import _dot, lie_relative_degree_check
from .sim import MAX_STEPS, SimConfig, simulate

__all__ = ["run_verification"]

# Log interval of the closed-loop run (s), to the nearest whole number of
# steps: rounding in the 4th-derivative stencil grows as h^-4.
STENCIL_STEP = 0.01
# Log intervals the closed-loop run spans: 5 s at the default step.
STENCIL_INTERVALS = 500
# Stencil centers before this time (s) fall in the startup transient.
STENCIL_CUTOFF = 0.5
# Random states probed by the relative-degree check.
RELATIVE_DEGREE_STATES = 5


def _random_chi(rng: Random) -> list:
    chi = [rng.uniform(-2.0, 2.0) for _ in range(8)]
    chi[6] = rng.uniform(1.0, 20.0) * rng.choice((-1.0, 1.0))
    return chi


def _check_relative_degree(cfg: SimConfig, emit) -> bool:
    rng = Random(2023)
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


def fourth_derivative_rel_err(ts) -> float:
    """Worst relative gap between the stencil's y^(4) and the logged v, t > 0.5 s.

    y^(4) is differenced from the logged positions r1, r2 and compared with
    v1, v2 at the stencil centers. Precondition: every row lies on one
    uniform log grid, and some stencil center lies past STENCIL_CUTOFF.
    """
    t = ts.view("t")
    h4 = (t[1] - t[0]) ** 4
    # 7-point central 4th-derivative stencil, O(h^4): the startup transient
    # carries large 6th derivatives, so the plain 5-point O(h^2) stencil is
    # not accurate enough right after the 0.5 s cutoff.
    w = (-1.0 / 6.0, 2.0, -6.5, 28.0 / 3.0, -6.5, 2.0, -1.0 / 6.0)
    worst = 0.0
    for pos_col, v_col in (("r1", "v1"), ("r2", "v2")):
        y, v = ts.view(pos_col), ts.view(v_col)
        for c in (c for c in range(3, len(t) - 3) if t[c] > STENCIL_CUTOFF):
            worst = max(worst, abs(_dot(w, y[c - 3:c + 4]) / h4 - v[c]) / max(1.0, abs(v[c])))
    return worst


def _check_closed_loop_identity(cfg: SimConfig, emit) -> bool:
    """y^(4) differenced from a known-parameter ellipse run must equal its logged v.

    The run keeps the config's step, which a stiff pole set needs, and spans
    a whole number of log intervals, so every logged row lies on the grid.
    It flies the default ellipse: v jumps at each Hilbert corner, and no
    stencil spans a jump.
    """
    every = max(1, round(min(STENCIL_STEP / cfg.dt, MAX_STEPS)))
    t_end = STENCIL_INTERVALS * every * cfg.dt
    if not isfinite(t_end):
        raise ValidationError(
            f"the closed-loop oracle needs a finer sim.dt: {STENCIL_INTERVALS} log "
            f"intervals of {cfg.dt:g} s overflow the float range"
        )
    if not t_end / cfg.dt <= MAX_STEPS:  # SimConfig's own test, so it cannot blame t_end
        raise ValidationError(
            f"the closed-loop oracle needs a coarser sim.dt: at {cfg.dt:g} s its "
            f"{STENCIL_INTERVALS} log intervals take more than {MAX_STEPS} steps"
        )
    run_cfg = SimConfig(
        plant=cfg.plant, poles=cfg.poles, dt=cfg.dt, t_end=t_end,
        adaptive=False, log_every=every,
    )
    try:
        ts = simulate(run_cfg)
    except BicopterError as exc:  # name the oracle: the user's config asked for no such run
        raise type(exc)(f"the closed-loop oracle at sim.dt = {cfg.dt:g} s: {exc}") from exc
    worst = fourth_derivative_rel_err(ts)
    ok = worst < 1e-3
    emit(f"closed_loop_fourth_derivative_rel_err: {worst:.6e}")
    emit(f"closed_loop_identity_pass: {str(ok).lower()}")
    return ok


def run_verification(cfg: SimConfig, emit=print) -> bool:
    """Run all oracles; emit key: value lines; return overall verdict."""
    results = [
        _check_relative_degree(cfg, emit),
        _check_closed_loop_identity(cfg, emit),
    ]
    ok = all(results)
    emit(f"all_pass: {str(ok).lower()}")
    return ok
