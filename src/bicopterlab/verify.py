"""Numeric verification suite behind the `verify` CLI subcommand.

Two independent oracles, each checking a structural claim of the control
law against a computation that does not share its code path:

  1. relative-degree probe: flow-based input-to-output sensitivities must
     vanish for derivative orders 0-2 and reproduce beta at order 3;
  2. closed-loop identity: with exact parameters each axis's error e = xi - xi_d
     must follow the exact solution of e'''' = k e, expm(A t) e(0), on a run of
     its own (5 s of the default ellipse): it reads only the plant, poles and dt.

Only this module draws random numbers, from the stdlib generator. It reads the
log through strided views into Python floats, so `verify` does not import numpy.
"""

from math import frexp, fsum, inf, isfinite, ldexp
from operator import mul, sub
from random import Random

from .errors import BicopterError, ValidationError
from .linearizer import lie_relative_degree_check
from .sim import MAX_STEPS, SimConfig, simulate

__all__ = ["run_verification"]

# The closed-loop run: about 5 s (at least one step) in 500 equal log intervals or fewer.
ORACLE_HORIZON = 5.0
ORACLE_INTERVALS = 500
# Largest gap (m) between a logged and the exact position error. RK4's gap goes
# as dt^4, 6.0e-7 m at dt = 0.01 s and 1.0e-5 m at 0.02 s: a log-scale midpoint.
CLOSED_LOOP_BOUND = 2.5e-6
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


def _expm4(k, h: float) -> list:
    """expm(A h) as 4 rows, A the companion matrix of one axis's e'''' = k e.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005): the Taylor
    sum to order 18 (its tail is below 1e-22) of A h / 2^s, of row-sum norm <= 1/2.
    """
    matmul = lambda a, b: [[fsum(map(mul, row, col)) for col in zip(*b)] for row in a]
    s = max(0, frexp(h * max(1.0, fsum(map(abs, k))))[1] + 1)
    x = ldexp(h, -s)
    a = [[0.0, x, 0.0, 0.0], [0.0, 0.0, x, 0.0], [0.0, 0.0, 0.0, x], [g * x for g in k]]
    p = [[float(i == j) for j in range(4)] for i in range(4)]
    for n in range(18, 0, -1):  # Horner's rule: p = I + a p / n
        p = [[float(i == j) + v / n for j, v in enumerate(r)] for i, r in enumerate(matmul(a, p))]
    for _ in range(s):
        p = matmul(p, p)
    return p


def closed_loop_gap(ts, k) -> tuple:
    """The largest |e1 - e1_exact| and the largest |e1| (m) over both axes of a log.

    e_exact starts at each axis's first logged e and steps by expm(A h), h the
    first log interval. A NaN or inf in the logged or propagated e is an inf gap.
    """
    t = ts.view("t")
    step = _expm4(k, t[1] - t[0])
    gap = top = 0.0
    for cols in (range(1, 5), range(5, 9)):
        errors = zip(*(map(sub, ts.view(f"xi{i}"), ts.view(f"xid{i}")) for i in cols))
        exact = None
        for e in errors:
            exact = e if exact is None else [fsum(map(mul, row, exact)) for row in step]
            d = abs(e[0] - exact[0]) if all(map(isfinite, (*e, *exact))) else inf
            gap, top = max(gap, d), max(top, abs(e[0]))
    return gap, top


def _check_closed_loop_identity(cfg: SimConfig, emit) -> bool:
    if not ORACLE_HORIZON / cfg.dt <= MAX_STEPS:
        raise ValidationError(f"the closed-loop oracle needs a coarser sim.dt: at {cfg.dt:g} s "
                              f"its {ORACLE_HORIZON:g} s take more than {MAX_STEPS} steps")
    steps = max(1, round(ORACLE_HORIZON / cfg.dt))  # at the config's step: stiff poles need it
    every = max(1, steps // ORACLE_INTERVALS)
    run_cfg = SimConfig(plant=cfg.plant, poles=cfg.poles, dt=cfg.dt, adaptive=False,
                        t_end=steps // every * every * cfg.dt, log_every=every)
    try:
        ts = simulate(run_cfg)
    except BicopterError as exc:  # name the oracle: the user's config asked for no such run
        raise type(exc)(f"the closed-loop oracle at sim.dt = {cfg.dt:g} s: {exc}") from exc
    gap, top = closed_loop_gap(ts, cfg.gains)
    ok = gap <= CLOSED_LOOP_BOUND
    emit(f"closed_loop_exact_gap_max: {gap:.6e}")
    emit(f"closed_loop_error_max: {top:.6e}")
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
