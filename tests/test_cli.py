"""Config parsing and the command-line entry points."""

import builtins
import inspect
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import hypot, inf, isfinite
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bicopterlab
from bicopterlab.cli import _KEYS, parse_config, run_cli
from bicopterlab.errors import BicopterError, ParseError, SingularThrust, ValidationError
from bicopterlab.sim import COLUMNS, SimConfig
from bicopterlab.trajectory import EllipseSpec, HilbertSpec
from test_cli_stdout import GAINS, VERIFY

README = Path(__file__).resolve().parents[1] / "README.md"


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.plant.m == 1.0
    assert cfg.plant.J == 0.05
    assert cfg.poles == (-4.5, -4.0, -5.0, -5.5)
    assert cfg.est.c1 == 6.0 and cfg.est.c2 == 3.0
    assert cfg.est.alpha1 == 0.2 and cfg.est.alpha2 == 1.2
    assert cfg.est.forgetting == 80.0 and cfg.est.gamma == 10.0
    assert isinstance(cfg.traj, EllipseSpec)
    assert cfg.dt == 1e-3 and cfg.t_end == 20.0
    assert cfg.theta0 == (2.0, 10.0)
    assert cfg.adaptive is True


def test_comments_and_overrides():
    cfg = parse_config(
        """
        # plant overrides
        plant.m = 1.5    # heavier vehicle
        estimator.c1 = 9
        sim.adaptive = false
        sim.theta0 = 1.0, 20.0
        estimator.lambda = 40   # the two keys that do not spell their field
        gains.poles = -1, -2, -3, -4
        """
    )
    assert cfg.plant.m == 1.5
    assert cfg.est.c1 == 9.0
    assert cfg.adaptive is False
    assert cfg.theta0 == (1.0, 20.0)
    assert cfg.est.forgetting == 40.0
    assert cfg.poles == (-1.0, -2.0, -3.0, -4.0)


def test_invalid_plant_mass():
    with pytest.raises(ValidationError):
        parse_config("plant.m = -1")


def test_unknown_key_names_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_config("plant.m = 1\n\nplant.mass = 1\n")


def test_bad_syntax_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("plant.m = 1\nnonsense\n")


def test_bad_value_names_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("plant.m = heavy")


def test_hilbert_kind_dispatch():
    cfg = parse_config("trajectory.kind = hilbert")
    assert isinstance(cfg.traj, HilbertSpec)
    assert cfg.traj.size == 3.0 and cfg.traj.seg_time == 2.0
    assert cfg.t_end == 30.0
    # the default length is the whole path, 15 segments; sim.t_end wins
    cfg = parse_config("trajectory.kind = hilbert\ntrajectory.seg_time = 3")
    assert cfg.t_end == 45.0 and cfg == SimConfig(traj=HilbertSpec(seg_time=3.0))
    cfg = parse_config("trajectory.kind = hilbert\ntrajectory.seg_time = 3\nsim.t_end = 7")
    assert cfg.t_end == 7.0 and cfg == SimConfig(traj=HilbertSpec(seg_time=3.0), t_end=7.0)
    with pytest.raises(ValidationError, match="at most 1000000 steps"):
        parse_config("trajectory.kind = hilbert\ntrajectory.seg_time = 100")


def test_wrong_kind_keys_rejected():
    with pytest.raises(ValidationError):
        parse_config("trajectory.kind = hilbert\ntrajectory.a = 5")
    with pytest.raises(ValidationError):
        parse_config("trajectory.size = 3")  # ellipse by default


@pytest.mark.parametrize(
    "text, build",
    [
        ("gains.poles = -1, -2, -3", lambda: SimConfig(poles=(-1.0, -2.0, -3.0))),
        (
            "trajectory.kind = hilbert\ntrajectory.origin = 0, 0, 0",
            lambda: HilbertSpec(origin=(0.0, 0.0, 0.0)),
        ),
    ],
)
def test_length_checks_are_the_dataclasses(text, build):
    with pytest.raises(ValidationError) as by_lib:
        build()
    with pytest.raises(ValidationError) as by_cli:
        parse_config(text)
    assert str(by_cli.value) == str(by_lib.value)


def test_gains_command(capsys):
    rc = run_cli(["gains", "-4.5", "-4", "-5", "-5.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "K1: 495" in out
    assert "K2: 422.75" in out
    assert "K3: 134.75" in out
    assert "K4: 19" in out
    assert "eig1:" in out


def test_gains_help_still_parses(capsys):
    # the poles need no "--", but -h and --help stay the subcommand's help
    for flag in ("-h", "--help"):
        assert run_cli(["gains", flag]) == 0
        assert capsys.readouterr().out.startswith("usage: bicopterlab gains [-h] poles")


def test_gains_command_rejects_unstable(capsys):
    rc = run_cli(["gains", "1", "-4", "-5", "-5.5"])
    assert rc == 1
    assert capsys.readouterr().err == "error: pole (1+0j) has nonnegative real part\n"


def test_gains_rejects_unstable_poles_without_numpy(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now fails
    rc = run_cli(["gains", "1", "-4", "-5", "-5.5"])
    assert rc == 1
    assert capsys.readouterr().err == "error: pole (1+0j) has nonnegative real part\n"
    assert run_cli(["gains", "-4.5", "-4", "-5", "-5.5"]) == 0
    assert capsys.readouterr().out == GAINS


def test_gains_prints_a_tiny_pole_not_a_marginal_one(capsys):
    # -1e-300 is a stable pole: its root must not print as 0+0j
    assert run_cli(["gains", "--", "-1e-300", "-1", "-2", "-3"]) == 0
    assert capsys.readouterr().out == """\
K1: 6.0000000000000005e-300
K2: 6
K3: 11
K4: 6
eig1: -3+0j
eig2: -3+0j
eig3: -2+0j
eig4: -2+0j
eig5: -1+0j
eig6: -1+0j
eig7: -1e-300+0j
eig8: -1e-300+0j
"""


# -1e308 overflows the characteristic coefficients; -1e-200 underflows
# three of them to 0, which would place only one pole.
@pytest.mark.parametrize(
    "poles", [("nan", "-4", "-5", "-5.5"), ("-1e308",) * 4, ("-1e-200",) * 4]
)
def test_gains_command_rejects_non_finite(capsys, poles):
    rc = run_cli(["gains", "--", *poles])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Hurwitz poles whose roots the solve loses: in the first set the scaled
# coefficients c[0] and c[1] underflow to 0.0, and four roots came out at
# real part +5.14e+172; in the second no coefficient underflows, and four
# came out at +2.14e-05.
@pytest.mark.parametrize("poles, why", [
    (("-2.677516192177067e-29", "-7.301828835501891e+35", "-3.360086163398219e+254",
      "-2.454946656957589e-21"), "underflow once scaled"),
    (("-6.798880776241447e+113", "-3.042844131603314e-10", "-6.161371557075068e+80",
      "-2.8570533532887847e-15"), "that is not stable"),
])
def test_gains_prints_no_root_it_lost(capsys, poles, why):
    rc = run_cli(["gains", "--", *poles])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: gains (") and captured.err.count("\n") == 1
    assert why in captured.err


@pytest.mark.parametrize("poles", ["0.5, -4, -5, -5.5", "nan, -4, -5, -5.5"])
def test_verify_bad_poles_end_at_parse_time(tmp_path, capsys, poles):
    cfg_path = tmp_path / "poles.cfg"
    cfg_path.write_text(f"gains.poles = {poles}\n")
    rc = run_cli(["verify", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""  # no oracle runs on a config that cannot be built
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_simulate_missing_config(capsys):
    rc = run_cli(["simulate", "no_such_file.cfg", "out.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_simulate_and_report_agree(tmp_path, capsys):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("sim.t_end = 0.5\nsim.adaptive = false\nsim.theta0 = 1, 20\n")
    out_path = tmp_path / "run.csv"

    rc = run_cli(["simulate", str(cfg_path), str(out_path)])
    sim_out = capsys.readouterr().out
    assert rc == 0
    assert out_path.exists()

    rc = run_cli(["report", str(out_path)])
    rep_out = capsys.readouterr().out
    assert rc == 0
    assert rep_out == sim_out  # metrics recomputed from the CSV match exactly

    header = out_path.read_text().splitlines()[0]
    assert header.startswith("t,r1,r2,theta")
    assert len(header.split(",")) == 34


def _no_run(cfg):
    raise AssertionError("simulate ran before OUT was checked")


@pytest.mark.parametrize(
    "out, reason",
    [
        ("missing/out.csv", "no directory '{dir}/missing'"),
        ("cfg.txt/out.csv", "no directory '{dir}/cfg.txt'"),
        ("", "it is a directory"),
    ],
    ids=["missing-dir", "under-a-file", "a-directory"],
)
def test_simulate_checks_out_before_the_run(tmp_path, capsys, monkeypatch, out, reason):
    monkeypatch.setattr("bicopterlab.cli.simulate", _no_run)
    (tmp_path / "cfg.txt").write_text("")
    path = str(tmp_path / out)
    rc = run_cli(["simulate", str(tmp_path / "cfg.txt"), path])
    assert rc == 1
    want = f"error: cannot write {path!r}: {reason.format(dir=tmp_path)}\n"
    assert capsys.readouterr().err == want
    assert os.listdir(tmp_path) == ["cfg.txt"]


@pytest.mark.parametrize("exists", [False, True])
def test_simulate_checks_write_access_before_the_run(tmp_path, capsys, monkeypatch, exists):
    # A read-only OUT or directory, faked: the superuser may write anywhere.
    # An existing OUT needs write access itself, a new one its directory's.
    asked = []

    def denied(path, mode):
        asked.append(path)
        return False

    monkeypatch.setattr("bicopterlab.cli.simulate", _no_run)
    monkeypatch.setattr(os, "access", denied)
    (tmp_path / "cfg.txt").write_text("")
    out = tmp_path / "out.csv"
    if exists:
        out.write_text("old\n")
    rc = run_cli(["simulate", str(tmp_path / "cfg.txt"), str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: cannot write {str(out)!r}: permission denied\n"
    assert asked == [str(out) if exists else str(tmp_path)]


def test_aborted_run_leaves_an_existing_out_alone(tmp_path, capsys, monkeypatch):
    def aborted_run(cfg):
        raise SingularThrust("aborted at step 0")

    monkeypatch.setattr("bicopterlab.cli.simulate", aborted_run)
    (tmp_path / "cfg.txt").write_text("")
    (tmp_path / "out.csv").write_text("old\n")
    rc = run_cli(["simulate", str(tmp_path / "cfg.txt"), str(tmp_path / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: aborted at step 0\n"
    assert (tmp_path / "out.csv").read_text() == "old\n"


def test_known_run_needs_no_theta0_key(tmp_path, capsys):
    # A known run flies the plant's own parameters: sim.theta0 changes nothing.
    runs = []
    for text in ("sim.adaptive = false\n", "sim.adaptive = false\nsim.theta0 = 1, 20\n"):
        cfg_path, out_path = tmp_path / "known.cfg", tmp_path / "run.csv"
        cfg_path.write_text(text)
        assert run_cli(["simulate", str(cfg_path), str(out_path)]) == 0
        runs.append((capsys.readouterr().out, out_path.read_bytes()))
    assert runs[0] == runs[1]
    assert "settle_time: 1.84" in runs[0][0]


def test_verify_command(capsys):
    rc = run_cli(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all_pass: true" in out


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for child interpreters."""
    src = str(Path(bicopterlab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_module_runs_as_a_script():
    # A script that runs `python -m bicopterlab.cli verify` reads its exit code.
    argv = [sys.executable, "-W", "error", "-m", "bicopterlab.cli", "verify"]
    done = subprocess.run(argv, env=_src_env(), capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, VERIFY, "")


@pytest.mark.xfail(
    strict=True,
    reason="the known run's controller inverts theta_true through THETA_FLOOR, which "
    "caps its j_hat at 1000; the fix waits on the pin estimator.us_per_step > 0 in "
    "perfbench/tests/test_perfbench.py::test_traced_counts_match_the_structure",
)
def test_verify_passes_on_a_heavy_inertia(tmp_path, capsys):
    cfg_path = tmp_path / "heavy.cfg"
    cfg_path.write_text("plant.j = 2000\n")
    rc = run_cli(["verify", str(cfg_path)])
    assert (rc, capsys.readouterr().out.splitlines()[-1]) == (0, "all_pass: true")


_BUILTIN_SUM = builtins.sum


def _neumaier_sum(iterable, /, start=0):
    """sum() as Python 3.12+ adds floats: compensated, Neumaier's variant."""
    items = list(iterable)
    if not all(type(x) is float for x in items) or type(start) not in (int, float):
        return _BUILTIN_SUM(items, start)
    s, c = float(start), 0.0
    for x in items:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c if c and isfinite(c) else s


def test_verify_output_does_not_follow_sums_compensation(monkeypatch, capsys):
    # The stencils add left to right, so verify prints its pinned lines under
    # the compensated sum() of Python 3.12+ as well.
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
    assert sum([0.1] * 10) == 1.0 != _BUILTIN_SUM([0.1] * 10)
    assert run_cli(["verify"]) == 0
    assert capsys.readouterr() == (VERIFY, "")


def test_verify_dense_log_passes(tmp_path, capsys):
    # At log_every = 1 the oracle still differences its own 10 ms grid.
    cfg_path = tmp_path / "dense.cfg"
    cfg_path.write_text("sim.log_every = 1\n")
    rc = run_cli(["verify", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closed_loop_identity_pass: true" in out


# Runs each command in one fresh interpreter and prints, after each, whether
# numpy.random is loaded; the first word says whether numpy loads it itself.
_FOOTPRINT = """
import io, sys
from contextlib import redirect_stdout
import numpy
print("numpy.random" in sys.modules, end="")
from bicopterlab.cli import run_cli
cfg, csv = sys.argv[1:]
for argv in (["simulate", cfg, csv], ["report", csv], ["gains", "-4.5", "-4", "-5", "-5.5"], ["verify"]):
    with redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0, argv
    print("", "numpy.random" in sys.modules, end="")
"""


def test_no_command_loads_numpy_random(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("sim.t_end = 0.05\n")
    argv = [sys.executable, "-c", _FOOTPRINT, str(cfg), str(tmp_path / "run.csv")]
    out = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, check=True).stdout
    if out.startswith("True"):
        pytest.skip("this numpy loads numpy.random on its own import")
    # simulate, report and gains draw nothing; verify draws from the stdlib generator
    assert out == "False False False False False"


# Runs all four commands in one fresh interpreter that has not imported
# numpy, then prints whether numpy is loaded.
_NO_NUMPY = """
import io, sys
from contextlib import redirect_stdout
from bicopterlab.cli import run_cli
cfg, csv = sys.argv[1:]
gains = ["gains", "-4.5", "-4", "-5", "-5.5"]
for argv in (["simulate", cfg, csv], ["report", csv], ["verify", cfg], gains):
    with redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0, argv
print("numpy" in sys.modules, end="")
"""


def test_no_command_imports_numpy(tmp_path):
    # numpy is a third of a run's peak memory
    cfg = tmp_path / "short.cfg"
    cfg.write_text("sim.t_end = 0.05\n")
    argv = [sys.executable, "-c", _NO_NUMPY, str(cfg), str(tmp_path / "run.csv")]
    assert subprocess.run(argv, env=_src_env(), capture_output=True, text=True, check=True).stdout == "False"


# Keys outside the plant, the poles and sim.dt, each set off its default
_KEYS_VERIFY_IGNORES = """\
trajectory.kind = hilbert
trajectory.origin = 1, -2
sim.t_end = 0.3
sim.log_every = 600
sim.adaptive = false
sim.theta0 = 1, 20
sim.x0 = 0.5, 0.5, 0.1, 0, 0, 0
estimator.gamma = 5
"""


def test_verify_reads_only_the_plant_poles_and_dt(tmp_path, capsys):
    # The closed-loop oracle flies its own known-parameter ellipse on its own
    # log grid, so no Hilbert corner, 0.6 s log step or run shorter than the
    # 0.5 s stencil cutoff reaches it.
    run_cli(["verify"])
    default = capsys.readouterr().out
    cfg_path = tmp_path / "ignored.cfg"
    cfg_path.write_text(_KEYS_VERIFY_IGNORES)
    rc = run_cli(["verify", str(cfg_path)])
    assert rc == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize(
    "text",
    [
        "sim.dt = 0.004",  # logged every 2 steps, 8 ms
        "sim.dt = 1e-4\ngains.poles = -5000, -4, -5, -5.5",  # stiff: needs the fine step
    ],
)
def test_verify_passes_at_the_configs_step(tmp_path, capsys, text):
    cfg_path = tmp_path / "step.cfg"
    cfg_path.write_text(text + "\n")
    rc = run_cli(["verify", str(cfg_path)])
    assert rc == 0
    assert capsys.readouterr().out.endswith("closed_loop_identity_pass: true\nall_pass: true\n")


@pytest.mark.parametrize("dt, t_end", [
    ("4e-6", "1"), ("5e-324", "5e-324"), ("1e-320", "1e-320"), ("1e-310", "1e-310"),
])
def test_verify_too_fine_a_step_names_the_oracle(tmp_path, capsys, dt, t_end):
    # The run itself fits the step budget; the oracle's 500 log intervals
    # of 2500 steps each do not. A subnormal step's log interval would take
    # more steps than a float or an int can count.
    cfg_path = tmp_path / "fine.cfg"
    cfg_path.write_text(f"sim.dt = {dt}\nsim.t_end = {t_end}\n")
    rc = run_cli(["verify", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: the closed-loop oracle ") and err.count("\n") == 1
    assert "sim.dt" in err and "t_end" not in err


def test_verify_too_coarse_a_step_asks_for_a_finer_one(tmp_path, capsys):
    # A valid 10-step run whose oracle horizon, 500 intervals of 1e306 s,
    # overflows to inf: a coarser step would only overflow further.
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text("sim.dt = 1e306\nsim.t_end = 1e307\n")
    rc = run_cli(["verify", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: the closed-loop oracle ") and err.count("\n") == 1
    assert "finer" in err and "sim.dt" in err
    assert "coarser" not in err and "t_end" not in err


@pytest.mark.parametrize("dt", ["1e10", "1e305"])
def test_verify_oracle_run_abort_names_the_oracle(tmp_path, capsys, dt):
    # A valid one-step run whose oracle horizon, 500 steps of dt, is finite:
    # the oracle's own run diverges (at 1e305 sin meets an infinite angle).
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text(f"sim.dt = {dt}\nsim.t_end = {dt}\n")
    rc = run_cli(["verify", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: the closed-loop oracle ") and err.count("\n") == 1
    assert "sim.dt" in err and "t_end" not in err
    assert "aborted at step" in err


_UNSET = "; t_end is unset, so it is the trajectory's duration,"
_HILBERT_RULE = f"{_UNSET} HilbertSpec.duration = 15 * seg_time"


@pytest.mark.parametrize(
    "line, message",
    [
        ("sim.dt = inf", "SimConfig.dt must be finite"),
        ("sim.theta0 = 1", "SimConfig.theta0 must have 2 entries"),
        ("sim.theta0 = 1, 2, 3", "SimConfig.theta0 must have 2 entries"),
        ("sim.theta0 = -inf, 10", "SimConfig.theta0 entries must be finite"),
        # an unset t_end is the trajectory's duration, and its faults say so
        ("trajectory.kind = hilbert\ntrajectory.seg_time = 1e-5",
         f"SimConfig.t_end must be >= dt{_HILBERT_RULE} = 0.00015 s"),
        ("trajectory.kind = hilbert\ntrajectory.seg_time = 3000",
         f"SimConfig.t_end / dt must be at most 1000000 steps{_HILBERT_RULE} = 45000 s"),
        ("trajectory.kind = hilbert\ntrajectory.seg_time = 1e308",
         f"SimConfig.t_end must be finite{_HILBERT_RULE} = inf s"),
        ("sim.dt = 30", f"SimConfig.t_end must be >= dt{_UNSET} EllipseSpec.duration = 20 s"),
        ("gains.poles = 0.5, -4, -5, -5.5", "pole (0.5+0j) has nonnegative real part"),
    ],
)
def test_simulate_names_the_faulty_key(tmp_path, capsys, line, message):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    rc = run_cli(["simulate", str(cfg_path), str(tmp_path / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


_HEADER = ",".join(COLUMNS) + "\n"
_ROW = ",".join(["0"] * len(COLUMNS)) + "\n"


@pytest.mark.parametrize(
    "data, line_no",
    [
        ((_HEADER + _ROW + _ROW[:-2] + "x\n").encode(), 3),  # non-numeric field
        ((_HEADER + _ROW + "0,1\n").encode(), 3),  # short row
        (b"t,x\n0,1\n", 1),  # foreign header
        (b"\xff\xfe\x00\n", 1),  # not text
        ((_HEADER + _ROW + _ROW.replace("0", "nan")).encode(), 3),  # NaN row
        ((_HEADER + _ROW + "inf" + _ROW[1:]).encode(), 3),  # one infinite field
    ],
)
def test_report_bad_csv_names_line(tmp_path, capsys, data, line_no):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(data)
    rc = run_cli(["report", str(csv_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: line {line_no}: ") and err.count("\n") == 1


def test_report_header_only_csv_is_empty(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text(_HEADER)
    rc = run_cli(["report", str(csv_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot summarize an empty time series\n"


@pytest.mark.parametrize(
    "err, want",
    [(1e160, hypot(1e160, 1e160)), (7e153, hypot(7e153, 7e153)), (1.5e308, inf)],
)
def test_report_on_huge_errors_does_not_overflow(tmp_path, capsys, err, want):
    # The squares of 1e160 overflow, and those of 7e153 only in their sum, while
    # neither RMSE does; that of 1.5e308 overflows.
    at = {COLUMNS.index("pos_err1"): err, COLUMNS.index("pos_err2"): err}
    rows = [[at.get(j, float(i)) for j in range(len(COLUMNS))] for i in range(5)]
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text(_HEADER + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    assert run_cli(["report", str(csv_path)]) == 0
    out, stderr = capsys.readouterr()
    assert out.splitlines()[0] == f"pos_rmse: {want:.17g}" and stderr == ""


@pytest.mark.parametrize(
    "line",
    [
        "sim.t_end = inf",
        "sim.x0 = 0, 0, 0, 0, 0, inf",
        "sim.theta0 = nan, 10",
        "trajectory.omega = inf",
        "trajectory.phi_deg = nan",
        "estimator.alpha2 = inf",  # passes the > 1 check: only the finite test catches it
        "estimator.c1 = inf",
        "trajectory.kind = hilbert\ntrajectory.size = inf",
        "trajectory.kind = hilbert\ntrajectory.seg_time = nan",
        "trajectory.kind = hilbert\ntrajectory.origin = 0, inf",
        "gains.poles = nan, -4, -5, -5.5",
    ],
)
def test_non_finite_config_values_rejected(tmp_path, capsys, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    rc = run_cli(["simulate", str(cfg_path), str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "line",
    [
        "plant.m = 1e308",
        "plant.m = inf",
        "plant.j = inf",
        "plant.j = 1e308",
        "plant.m = 1e-308",
        "sim.x0 = 1e308, 0, 0, 0, 0, 0",
        "sim.dt = 5e-324",
        "gains.poles = -1e308, -1e308, -1e308, -1e308",
    ],
)
def test_float_overflow_ends_as_one_line_error(tmp_path, capsys, line):
    # 1e308 overflows the residual norm of the estimate flow, 1e-308 the
    # logged theta error at step 0; inf is rejected where it enters. The
    # x0 of 1e308 drives an RK4 stage's angle to inf, where sin fails.
    # 20 s over a 5e-324 s step is an infinite step count, which the step
    # budget rejects before int() can overflow on it. Poles of -1e308
    # overflow the gains, which place_gains rejects at parse time.
    cfg_path = tmp_path / "extreme.cfg"
    cfg_path.write_text(line + "\n")
    rc = run_cli(["simulate", str(cfg_path), str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


_PROBE_LEFT = "relative-degree probe left the float range: k3, beta or |beta|"
# config text -> the one error verify ends with
_EXTREME_PLANTS = {
    "plant.m = 1e-308": "drift flow diverged inside the stencil",
    "plant.m = 1e308": _PROBE_LEFT,
    "plant.j = 1e-300": _PROBE_LEFT,
    "plant.m = 1e-200\nplant.j = 1e-200": _PROBE_LEFT,
}


@pytest.mark.parametrize("line", list(_EXTREME_PLANTS))
def test_verify_extreme_plant_ends_as_one_line_error(tmp_path, capsys, line):
    # The relative-degree oracle overflows or loses its scale on these
    # plants: one error, no verdict over a NaN and no traceback. The
    # last plant's m * J underflows to 0, a division by zero inside beta.
    cfg_path = tmp_path / "extreme.cfg"
    cfg_path.write_text(line + "\n")
    rc = run_cli(["verify", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {_EXTREME_PLANTS[line]}\n"
    assert "relative_degree_pass" not in captured.out


@pytest.mark.parametrize("t_end", ["4.995", "2.003"])
def test_verify_skips_the_off_grid_last_row(tmp_path, capsys, t_end):
    # simulate logs its last step, here 5 or 3 ms after the last 10 ms grid
    # row; the oracle's own run ends on its grid, so that row never reaches
    # the stencil (across the short gap it used to read 2.9e5 and 4.7e5)
    cfg_path = tmp_path / "ragged.cfg"
    cfg_path.write_text(f"sim.t_end = {t_end}\n")
    rc = run_cli(["verify", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closed_loop_fourth_derivative_rel_err: 1.820371e-05\n" in out
    assert out.endswith("all_pass: true\n")


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_utf8_config_ends_as_one_line_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "binary.cfg"
    cfg_path.write_bytes(b"\xff\xfeplant.m = 1\n")
    out_csv = [str(tmp_path / "out.csv")] if command == "simulate" else []
    rc = run_cli([command, str(cfg_path), *out_csv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: line 1: unknown key ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["estimator.eps", "estimator.theta_floor", "plant.g"])
def test_model_constants_are_no_config_keys(tmp_path, capsys, key):
    # DEAD_ZONE and THETA_FLOOR are constants of the estimator module, G of the model.
    cfg_path = tmp_path / "guard.cfg"
    cfg_path.write_text(f"{key} = 1e-6\n")
    rc = run_cli(["simulate", str(cfg_path), str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: line 1: unknown key '{key}'\n"
    assert not (tmp_path / "out.csv").exists()


_NEAR_MISS_KEYS = [
    "plant.mass", "sim.poles", "estimator.forgetting", "trajectory.phi", "trajectory.order"
]
_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.lists(st.floats().map(repr), min_size=1, max_size=7).map(", ".join),
    st.sampled_from(["", "inf", "-inf", "nan", "1e308", "1e-308", "true", "hilbert", "ellipse"]),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(_KEYS) + _NEAR_MISS_KEYS), _VALUES).map(" = ".join),
    st.text(max_size=20),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(_LINES, max_size=6))
def test_parse_config_returns_a_config_or_a_library_error(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except BicopterError:
        return
    assert isinstance(cfg, SimConfig)


def _readme_defaults():
    """Keys of the README config table, and (key, literal default, kind) per literal."""
    lines = README.read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    keys, defaults = set(), []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key_cell, default_cell = line.split(" | ")[:2]
        row_keys = re.findall(r"`([^`]+)`", key_cell)
        literals = re.findall(r"`([^`]+)`(?: \((\w+)\))?", default_cell)
        keys.update(row_keys)
        if len(literals) == len(row_keys):
            defaults += [(k, v, kind) for k, (v, kind) in zip(row_keys, literals)]
        else:  # one key whose default depends on the trajectory kind
            defaults += [(row_keys[0], v, kind) for v, kind in literals]
    return keys, defaults


def test_readme_lists_the_package_names():
    text = README.read_text()
    api = text[text.index("Library API:"):text.index("Every other function")]
    public = {
        name
        for name, value in vars(bicopterlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(re.findall(r"`(\w+)`", api)) == public


def test_readme_table_documents_every_key():
    assert _readme_defaults()[0] == set(_KEYS)


def test_readme_defaults_are_the_library_defaults():
    defaults = _readme_defaults()[1]
    assert len(defaults) >= len(_KEYS) - 1  # every key but sim.x0 has a literal
    for key, value, kind in defaults:
        if not kind:
            kind = "hilbert" if _KEYS[key][0] is HilbertSpec else "ellipse"
        prefix = f"trajectory.kind = {kind}\n"
        assert parse_config(f"{prefix}{key} = {value}") == parse_config(prefix), key


# --- whole invocations on hostile input ----------------------------------


def _invoke(argv) -> tuple:
    """(exit code, stdout, stderr) of one run_cli call; an escaping exception fails."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_cli(argv)
    return rc, out.getvalue(), err.getvalue()


def _assert_clean_end(rc, err):
    assert rc in (0, 1, 2)
    assert err.count("\n") <= 1


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@pytest.fixture(scope="module")
def short_csv(workdir):
    cfg = workdir / "short.cfg"
    cfg.write_text("sim.t_end = 0.05\nsim.log_every = 1\n")
    csv = workdir / "short.csv"
    assert _invoke(["simulate", str(cfg), str(csv)])[0] == 0
    return csv.read_bytes()


# Horizons of at most 0.05 s over steps of at least 0.5 ms run <= 100 steps;
# the tiny steps and huge horizons must be stopped by the step budget.
_DT = st.one_of(
    st.floats(5e-4, 1e-2), st.sampled_from(["1e-12", "1e-300", "5e-324", "inf", "0"])
)
_T_END = st.one_of(st.floats(0.0, 0.05), st.sampled_from(["1e300", "1e20", "-1"]))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.lists(_LINES, max_size=3), _DT, _T_END)
def test_simulate_and_report_end_cleanly(workdir, lines, dt, t_end):
    cfg = workdir / "gen.cfg"
    cfg.write_text("\n".join(lines + [f"sim.dt = {dt}", f"sim.t_end = {t_end}"]) + "\n")
    csv = workdir / "gen.csv"
    csv.unlink(missing_ok=True)
    rc, out, err = _invoke(["simulate", str(cfg), str(csv)])
    _assert_clean_end(rc, err)
    if rc != 0:
        assert err.startswith("error: ") and not csv.exists()
        return
    assert _invoke(["report", str(csv)]) == (0, out, "")


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_report_on_corrupt_csv_ends_cleanly(workdir, short_csv, data):
    raw = bytearray(short_csv)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw)))
        cut = data.draw(st.integers(0, 40))
        raw[at:at + cut] = data.draw(st.binary(max_size=12))
    assume(bytes(raw) != short_csv)
    csv = workdir / "corrupt.csv"
    csv.write_bytes(bytes(raw))
    rc, _, err = _invoke(["report", str(csv)])
    _assert_clean_end(rc, err)
    assert (rc == 0) == (err == "")


_PLANT_VALUE = st.one_of(
    st.floats(1e-3, 1e3), st.sampled_from([1e-308, 1e-300, 1e300, 1e308, -1.0, 0.0])
)


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(_PLANT_VALUE, _PLANT_VALUE)
@example(m=1.0, j=1e308)
def test_verify_on_generated_plants_ends_cleanly(workdir, m, j):
    cfg = workdir / "plant.cfg"
    cfg.write_text(f"plant.m = {m!r}\nplant.j = {j!r}\nsim.t_end = 0.6\n")
    rc, out, err = _invoke(["verify", str(cfg)])
    _assert_clean_end(rc, err)
    # exit 1 is either an error line or a failed oracle's verdict
    assert rc == 0 or err.startswith("error: ") or "all_pass: false" in out
    if (m, j) == (1.0, 1e308):  # the relative-degree probe passes; the closed-loop run misses v
        assert (rc, err) == (1, "")
        assert "closed_loop_identity_pass: false" in out.splitlines()
