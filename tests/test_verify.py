"""The closed-loop oracle of `verify`: its matrix exponential and its gap.

`_expm4` is checked against closed forms of expm(A t) and against mpmath's
expm (which sympy brings) at 40 digits. `closed_loop_gap` is checked on a
known run it must pass and on logs it must fail: one with a NaN entry, and
the adaptive canonical run, whose controller does not know the plant.
"""

from array import array
from math import exp, fsum, inf, isnan, prod

import mpmath as mp
import pytest

from bicopterlab.sim import COLUMNS, SimConfig, TimeSeries, simulate
from bicopterlab.tracker import place_gains
from bicopterlab.verify import CLOSED_LOOP_BOUND, _expm4, closed_loop_gap

DESIGN_POLES = (-4.5, -4.0, -5.0, -5.5)
STIFF_POLES = (-5000.0, -4.0, -5.0, -5.5)
# For slow poles the row-sum norm bound on A h is tight, so a Taylor sum cut
# at order 6 misses expm by 7e-9; for the design poles the loose bound hides it.
SLOW_POLES = (-0.1, -0.2, -0.3, -0.4)
TIMES = (1e-3, 0.01, 0.3, 1.0, 5.0)


@pytest.mark.parametrize("t", TIMES)
def test_expm4_matches_the_repeated_pole_closed_form(t):
    # For (s + 4)^4, e with e(0) = (1, 0, 0, 0) is e^{-4t}(1 + 4t + 8t^2 + 32t^3/3)
    got = _expm4(place_gains((-4.0,) * 4), t)[0][0]
    want = exp(-4.0 * t) * (1.0 + 4.0 * t + 8.0 * t**2 + 32.0 * t**3 / 3.0)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("t", TIMES)
def test_expm4_matches_the_distinct_pole_closed_form(t):
    # For distinct poles s_j the same e1 is sum_j e^{s_j t} prod_{m != j} s_m / (s_m - s_j)
    got = _expm4(place_gains(DESIGN_POLES), t)[0][0]
    want = fsum(
        exp(sj * t) * prod(sm / (sm - sj) for sm in DESIGN_POLES if sm != sj) for sj in DESIGN_POLES
    )
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "poles, rel",
    [(DESIGN_POLES, 2e-12), ((-4.0,) * 4, 2e-12), (SLOW_POLES, 2e-12), (STIFF_POLES, 1e-10)],
)
@pytest.mark.parametrize("t", TIMES)
def test_expm4_matches_expm_at_40_digits(poles, rel, t):
    k = place_gains(poles)
    with mp.workdps(40):
        want = mp.expm(mp.matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], list(k)]) * t)
    got = _expm4(k, t)
    scale = max(1.0, *(abs(float(want[i, j])) for i in range(4) for j in range(4)))
    assert max(abs(got[i][j] - float(want[i, j])) for i in range(4) for j in range(4)) <= rel * scale


def test_expm4_of_zero_time_is_the_identity():
    assert _expm4(place_gains(DESIGN_POLES), 0.0) == [[float(i == j) for j in range(4)] for i in range(4)]


@pytest.fixture(scope="module")
def known_log():
    """One second of the known-parameter default ellipse, logged every 10 ms."""
    cfg = SimConfig(adaptive=False, t_end=1.0)
    return simulate(cfg), cfg.gains


def test_known_run_follows_the_exact_solution(known_log):
    ts, k = known_log
    gap, top = closed_loop_gap(ts, k)
    assert gap <= CLOSED_LOOP_BOUND
    # e1 of each axis is the logged position error
    assert top == max(*map(abs, ts.view("pos_err1")), *map(abs, ts.view("pos_err2")))


@pytest.mark.parametrize("column", ["xi1", "xi3", "xid6"])
@pytest.mark.parametrize("row", [0, 50, 100])
def test_one_nan_entry_fails_the_gap(known_log, column, row):
    # A NaN fails the verdict wherever it lies, also where later rows are
    # finite again and also where it does not enter the position gap itself.
    ts, k = known_log
    data = array("d", ts.data)
    data[row * len(COLUMNS) + COLUMNS.index(column)] = float("nan")
    gap, _ = closed_loop_gap(TimeSeries(data), k)
    assert gap == inf
    assert not gap <= CLOSED_LOOP_BOUND


def test_propagated_nan_fails_the_gap(known_log):
    # a NaN gain makes every propagated e NaN from the second row on
    ts, k = known_log
    gap, _ = closed_loop_gap(ts, (float("nan"), *k[1:]))
    assert not gap <= CLOSED_LOOP_BOUND and not isnan(gap)


def test_adaptive_run_misses_the_exact_solution(ellipse_adaptive):
    # Negative control: the adaptive controller starts on theta0, not on the
    # plant, so its error dynamics are not the placed ones.
    gap, _ = closed_loop_gap(ellipse_adaptive, SimConfig().gains)
    assert gap > 1.0
