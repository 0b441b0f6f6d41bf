"""The CLI's stdout on the canonical configs, pinned as text.

The three `simulate` runs are the seed-0 configs of the benchmark's
workloads. Their series come from the session fixtures, so this file
integrates no run of its own: the CLI's `simulate` is handed the fixture's
series after checking that the config it parsed is the fixture's.
"""

import tracemalloc

import pytest

import bicopterlab.cli as cli
from bicopterlab.cli import run_cli
from bicopterlab.sim import SimConfig, summarize
from bicopterlab.trajectory import HilbertSpec

GAINS = """\
K1: 495
K2: 422.75
K3: 134.75
K4: 19
eig1: -5.5+0j
eig2: -5.5+0j
eig3: -5+0j
eig4: -5+0j
eig5: -4.5+0j
eig6: -4.5+0j
eig7: -4+0j
eig8: -4+0j
"""

VERIFY = """\
relative_degree_lower_order_max: 3.061322e-09
relative_degree_k3_rel_err_max: 2.428380e-07
relative_degree_pass: true
closed_loop_fourth_derivative_rel_err: 1.820371e-05
closed_loop_identity_pass: true
all_pass: true
"""

# workload -> (config text, the config it parses to, simulate's stdout)
SIMULATE = {
    "ellipse_adaptive": ("", SimConfig(), """\
pos_rmse: 0.0022774296201554262
settle_time: 2.3799999999999999
theta_converge_time: inf
max_thrust: 22.723775990130424
max_torque: 3.9103509561029757
"""),
    "hilbert_adaptive": (
        "trajectory.kind = hilbert\n",
        SimConfig(traj=HilbertSpec()),
        """\
pos_rmse: 0.10648880810705599
settle_time: 29.330000000000002
theta_converge_time: inf
max_thrust: 15.291896830617077
max_torque: 2.2700608668588451
""",
    ),
    "ellipse_known_io": (
        "sim.adaptive = false\nsim.theta0 = 1, 20\nsim.log_every = 1\n",
        SimConfig(adaptive=False, theta0=(1.0, 20.0), log_every=1),
        """\
pos_rmse: 8.5650370936473738e-05
settle_time: 1.8360000000000001
theta_converge_time: 0
max_thrust: 19.899856565066166
max_torque: 1.9551754780514878
""",
    ),
}


@pytest.mark.parametrize(
    "argv, want", [(["gains", "--", "-4.5", "-4", "-5", "-5.5"], GAINS), (["verify"], VERIFY)]
)
def test_stdout_is_pinned(argv, want, capsys):
    assert run_cli(argv) == 0
    assert capsys.readouterr() == (want, "")


# Negative poles in exponent form or with a trailing point, which argparse
# alone reads as flags; they need no "--".
@pytest.mark.parametrize(
    "poles", [["-4.5e0", "-4", "-5", "-5.5"], ["-45e-1", "-4.", "-5E0", "-5.5"]]
)
def test_gains_reads_exponent_form_poles(poles, capsys):
    assert run_cli(["gains", *poles]) == 0
    assert capsys.readouterr() == (GAINS, "")


@pytest.mark.parametrize("workload", list(SIMULATE))
def test_simulate_stdout_is_pinned(workload, request, monkeypatch, tmp_path, capsys):
    text, cfg, want = SIMULATE[workload]
    ts = request.getfixturevalue(workload)

    def fixture_run(parsed):
        assert parsed == cfg
        return ts

    monkeypatch.setattr(cli, "simulate", fixture_run)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert run_cli(["simulate", str(cfg_path), str(tmp_path / "run.csv")]) == 0
    assert capsys.readouterr() == (want, "")


def test_summarize_reads_views_of_the_block(ellipse_known_io):
    # summarize allocates no copy of the columns it reads: its tracemalloc
    # peak stays within 4 columns, and its metrics are simulate's pinned ones
    column_bytes = len(ellipse_known_io.rows) * 8
    tracemalloc.start()
    try:
        metrics = summarize(ellipse_known_io)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * column_bytes
    assert "".join(f"{line}\n" for line in metrics.lines()) == SIMULATE["ellipse_known_io"][2]
