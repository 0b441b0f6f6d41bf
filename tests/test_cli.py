"""Config parsing and the command-line entry points."""

import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicopterlab.cli import _KEYS, parse_config, run_cli
from bicopterlab.errors import BicopterError, ParseError, ValidationError
from bicopterlab.sim import COLUMNS, SimConfig
from bicopterlab.trajectory import EllipseSpec, HilbertSpec

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
        """
    )
    assert cfg.plant.m == 1.5
    assert cfg.est.c1 == 9.0
    assert cfg.adaptive is False
    assert cfg.theta0 == (1.0, 20.0)


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
    assert parse_config("trajectory.kind = hilbert\ntrajectory.seg_time = 3").t_end == 45.0
    cfg = parse_config("trajectory.kind = hilbert\ntrajectory.seg_time = 3\nsim.t_end = 7")
    assert cfg.t_end == 7.0
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


def test_gains_command_rejects_unstable(capsys):
    rc = run_cli(["gains", "1", "-4", "-5", "-5.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("poles", [("nan", "-4", "-5", "-5.5"), ("-1e308",) * 4])
def test_gains_command_rejects_non_finite(capsys, poles):
    rc = run_cli(["gains", "--", *poles])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


def test_verify_command(capsys):
    rc = run_cli(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all_pass: true" in out


def test_verify_dense_log_passes(tmp_path, capsys):
    # At log_every = 1 the stencil still differences on the 10 ms grid.
    cfg_path = tmp_path / "dense.cfg"
    cfg_path.write_text("sim.log_every = 1\n")
    rc = run_cli(["verify", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closed_loop_identity_pass: true" in out


_HEADER = ",".join(COLUMNS) + "\n"
_ROW = ",".join(["0"] * len(COLUMNS)) + "\n"


@pytest.mark.parametrize(
    "data, line_no",
    [
        ((_HEADER + _ROW + _ROW[:-2] + "x\n").encode(), 3),  # non-numeric field
        ((_HEADER + _ROW + "0,1\n").encode(), 3),  # short row
        (b"t,x\n0,1\n", 1),  # foreign header
        (b"\xff\xfe\x00\n", 1),  # not text
    ],
)
def test_report_bad_csv_names_line(tmp_path, capsys, data, line_no):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(data)
    rc = run_cli(["report", str(csv_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: line {line_no}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line",
    [
        "sim.t_end = inf",
        "sim.x0 = 0, 0, 0, 0, 0, inf",
        "sim.theta0 = nan, 10",
        "trajectory.omega = inf",
        "trajectory.phi_deg = nan",
        "estimator.eps = nan",
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


@pytest.mark.parametrize("line", ["plant.m = 1e-308", "plant.m = 1e308", "plant.j = 1e-300"])
def test_verify_extreme_plant_ends_as_one_line_error(tmp_path, capsys, line):
    # The relative-degree oracle overflows or loses its scale on these
    # plants: one error, no verdict over a NaN and no numpy warning.
    cfg_path = tmp_path / "extreme.cfg"
    cfg_path.write_text(line + "\n")
    rc = run_cli(["verify", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "relative_degree_pass" not in captured.out


def test_verify_beta_inverse_overflow_is_one_line_error(tmp_path, capsys):
    # At J = 1e308 the relative-degree probe passes, but beta_inv overflows.
    cfg_path = tmp_path / "extreme.cfg"
    cfg_path.write_text("plant.j = 1e308\n")
    rc = run_cli(["verify", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: beta inverse check left the float range\n"
    assert "beta_inverse_pass" not in captured.out


def test_verify_short_run_names_the_cutoff(tmp_path, capsys):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("sim.t_end = 0.3\n")
    rc = run_cli(["verify", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "0.5 s cutoff" in err


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
@given(_PLANT_VALUE, _PLANT_VALUE, st.floats(0.1, 30.0))
def test_verify_on_generated_plants_ends_cleanly(workdir, m, j, g):
    cfg = workdir / "plant.cfg"
    cfg.write_text(f"plant.m = {m!r}\nplant.j = {j!r}\nplant.g = {g!r}\nsim.t_end = 0.6\n")
    rc, out, err = _invoke(["verify", str(cfg)])
    _assert_clean_end(rc, err)
    # exit 1 is either an error line or a failed oracle's verdict
    assert rc == 0 or err.startswith("error: ") or "all_pass: false" in out
