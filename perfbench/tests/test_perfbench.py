"""Self-tests of the benchmark harness, all on short horizons.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bicopterlab.cli import parse_config  # noqa: E402
from bicopterlab.sim import SimConfig  # noqa: E402
from bicopterlab.trajectory import HilbertSpec  # noqa: E402

from perfbench.run import Operation, declared_units, per_layer  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, config_text  # noqa: E402

SHORT = "sim.t_end = 0.05\n"  # 50 steps; the last assignment of a key wins


def test_config_text_is_deterministic_in_seed():
    for workload in WORKLOADS:
        for seed in (0, 1, 7, 123):
            assert config_text(workload, seed) == config_text(workload, seed)
        assert config_text(workload, 1) != config_text(workload, 2)


def test_seed_zero_is_the_canonical_config():
    assert parse_config(config_text("ellipse_adaptive", 0)) == SimConfig()
    assert parse_config(config_text("hilbert_adaptive", 0)) == SimConfig(
        traj=HilbertSpec(), t_end=30.0)
    assert parse_config(config_text("ellipse_known_io", 0)) == SimConfig(
        adaptive=False, theta0=(1.0, 20.0), log_every=1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perturbed_seeds_keep_the_step_and_row_counts(workload):
    base = parse_config(config_text(workload, 0))
    for seed in range(1, 20):
        cfg = parse_config(config_text(workload, seed))
        assert cfg != base
        assert (cfg.dt, cfg.t_end, cfg.log_every, cfg.adaptive) == (
            base.dt, base.t_end, base.log_every, base.adaptive)
        assert type(cfg.traj) is type(base.traj)
        if isinstance(cfg.traj, HilbertSpec):
            assert cfg.traj.seg_time == base.traj.seg_time


def _traced_op(workload, tmp_path, seed=3):
    op = Operation(workload, seed, None, tmp_path)
    op.cfg_text += SHORT
    tracer = Tracer()
    wall, _, problems = op.run(1, tracer)
    assert problems == []
    return op, tracer, wall


def test_traced_counts_match_the_structure(tmp_path):
    op, tracer, wall = _traced_op("ellipse_known_io", tmp_path)
    steps = tracer.counted("simulate", "sim.steps")
    rows = tracer.counted("simulate", "sim.rows")
    assert (steps, rows) == (50, 51)
    assert tracer.counted("simulate", "sim.deriv") == 4 * steps
    assert tracer.totals("simulate", "linearizer.xi_of_chi")[0] == 4 * steps + rows
    assert tracer.totals("simulate", "estimator.estimate_deriv")[0] == 0
    m = per_layer(tracer, [wall], [wall], op.csv_bytes)
    assert set(m) == set(declared_units("per_layer"))
    assert m["sim.deriv_calls_per_step"] == 4.0
    assert m["sim.rows_logged"] == 51
    assert m["sim.to_csv.bytes"] == op.csv_path.stat().st_size
    assert m["verify.run_verification.ms"] > 0
    assert m["trajectory.hilbert_ref.calls_per_step"] == 0.0
    assert m["trajectory.ref.us_per_call"] > 0 and m["estimator.us_per_step"] > 0


def test_adaptive_counts_repeat_exactly(tmp_path):
    runs = [_traced_op("hilbert_adaptive", tmp_path) for _ in range(2)]
    counts = [sorted((k, v[0]) for k, v in tracer.stats.items()) for _, tracer, _ in runs]
    assert counts[0] == counts[1]
    tracer = runs[0][1]
    assert tracer.totals("simulate", "estimator.estimate_deriv")[0] == 4 * 50
    assert tracer.totals("simulate", "trajectory.hilbert_ref")[0] == 4 * 50 + 6


def test_tracer_restores_the_wrapped_names(tmp_path):
    import bicopterlab.cli as cli
    import bicopterlab.sim as sim

    before = (sim.rk4_step, sim.filter_deriv, cli.simulate, sim.TimeSeries.__dict__["from_csv"])
    _traced_op("ellipse_adaptive", tmp_path)
    after = (sim.rk4_step, sim.filter_deriv, cli.simulate, sim.TimeSeries.__dict__["from_csv"])
    assert before == after


def test_a_wrong_digest_fails_the_operation(tmp_path):
    op = Operation("ellipse_adaptive", 0, "0" * 64, tmp_path)
    op.cfg_text += SHORT
    _, _, problems = op.run(1)
    assert any("pinned" in p for p in problems)


def test_verify_is_timed_on_a_workload_without_it(tmp_path):
    op, tracer, _ = _traced_op("ellipse_adaptive", tmp_path)
    assert tracer.totals("verify", "verify.run_verification")[0] == 0
    assert op.run_verify(2, tracer) == []
    assert tracer.totals("verify", "verify.run_verification")[0] == 1
    assert tracer.totals("verify", "linearizer.lie_relative_degree_check")[0] == 5
