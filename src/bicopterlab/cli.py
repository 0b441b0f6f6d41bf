"""Command-line interface: experiment runner and numeric verification.

Subcommands:

    simulate CONFIG OUT.csv   run one experiment, write telemetry, print metrics
    gains P1 P2 P3 P4         synthesize feedback gains for four poles
    verify [CONFIG]           run the numeric oracles; exit 0 iff all pass
    report CSV                recompute metrics from a telemetry file

Configs are flat key-value documents, one `section.key = value` per line,
with `#` comments. Missing keys take the library defaults; unknown keys
are rejected.
"""

import argparse
import sys
from math import radians

import numpy as np

from .errors import BicopterError, ParseError, ValidationError
from .estimator import EstimatorConfig
from .model import PlantParams
from .sim import SimConfig, TimeSeries, simulate, summarize
from .tracker import brunovsky_matrices, place_gains
from .trajectory import EllipseSpec, HilbertSpec
from .verify import run_verification

__all__ = ["parse_config", "run_cli", "main"]


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "on", "1"):
        return True
    if raw.lower() in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


# key -> parser of its raw value
_KEYS = {
    "plant.m": float,
    "plant.j": float,
    "plant.ell": float,
    "plant.g": float,
    "gains.poles": _parse_floats,
    "estimator.c1": float,
    "estimator.c2": float,
    "estimator.alpha1": float,
    "estimator.alpha2": float,
    "estimator.lambda": float,
    "estimator.gamma": float,
    "estimator.eps": float,
    "estimator.theta_floor": float,
    "trajectory.kind": str,
    "trajectory.a": float,
    "trajectory.b": float,
    "trajectory.phi_deg": float,
    "trajectory.omega": float,
    "trajectory.size": float,
    "trajectory.seg_time": float,
    "trajectory.origin": _parse_floats,
    "sim.dt": float,
    "sim.t_end": float,
    "sim.adaptive": _parse_bool,
    "sim.theta0": _parse_floats,
    "sim.x0": _parse_floats,
    "sim.log_every": int,
}

_ELLIPSE_KEYS = {"trajectory.a", "trajectory.b", "trajectory.phi_deg", "trajectory.omega"}
_HILBERT_KEYS = {"trajectory.size", "trajectory.seg_time", "trajectory.origin"}


def parse_config(text: str) -> SimConfig:
    """Build a validated SimConfig from a flat key-value document."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"expected 'key = value', got {body!r}", line_no)
        key, _, raw = body.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line_no)
        try:
            values[key] = _KEYS[key](raw)
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line_no) from exc

    kind = values.get("trajectory.kind", "ellipse").lower()
    if kind not in ("ellipse", "hilbert"):
        raise ValidationError(f"trajectory.kind must be ellipse or hilbert, got {kind!r}")
    wrong = _HILBERT_KEYS if kind == "ellipse" else _ELLIPSE_KEYS
    used_wrong = sorted(set(values) & wrong)
    if used_wrong:
        raise ValidationError(f"keys {used_wrong} do not apply to trajectory.kind = {kind}")

    plant = PlantParams(
        m=values.get("plant.m", 1.0),
        J=values.get("plant.j", 0.05),
        ell=values.get("plant.ell", 0.5),
        g=values.get("plant.g", 9.81),
    )
    est = EstimatorConfig(
        c1=values.get("estimator.c1", 6.0),
        c2=values.get("estimator.c2", 3.0),
        alpha1=values.get("estimator.alpha1", 0.2),
        alpha2=values.get("estimator.alpha2", 1.2),
        forgetting=values.get("estimator.lambda", 80.0),
        gamma=values.get("estimator.gamma", 10.0),
        eps=values.get("estimator.eps", 1e-12),
        theta_floor=values.get("estimator.theta_floor", 1e-3),
    )
    if kind == "ellipse":
        traj = EllipseSpec(
            a=values.get("trajectory.a", 5.0),
            b=values.get("trajectory.b", 3.0),
            phi=radians(values.get("trajectory.phi_deg", 45.0)),
            omega=values.get("trajectory.omega", 1.0),
        )
        t_end_default = 20.0
    else:
        origin = values.get("trajectory.origin", (0.0, 0.0))
        if len(origin) != 2:
            raise ValidationError("trajectory.origin must have 2 entries")
        traj = HilbertSpec(
            size=values.get("trajectory.size", 3.0),
            seg_time=values.get("trajectory.seg_time", 2.0),
            origin=tuple(origin),
        )
        t_end_default = 30.0

    poles = values.get("gains.poles", (-4.5, -4.0, -5.0, -5.5))
    if len(poles) != 4:
        raise ValidationError("gains.poles must have 4 entries")

    return SimConfig(
        plant=plant,
        poles=poles,
        est=est,
        traj=traj,
        dt=values.get("sim.dt", 1e-3),
        t_end=values.get("sim.t_end", t_end_default),
        adaptive=values.get("sim.adaptive", True),
        theta0=values.get("sim.theta0", (2.0, 10.0)),
        x0=values.get("sim.x0"),
        log_every=values.get("sim.log_every", 10),
    )


def _load_config(path: str | None) -> SimConfig:
    if path is None:
        return parse_config("")
    with open(path) as f:
        return parse_config(f.read())


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    ts = simulate(cfg)
    ts.to_csv(args.out)
    for line in summarize(ts, cfg).lines():
        print(line)
    return 0


def _cmd_gains(args) -> int:
    gains = place_gains(args.poles)
    mags = gains.magnitudes
    for i, mag in enumerate(mags, start=1):
        print(f"K{i}: {mag:.17g}")
    A, B = brunovsky_matrices()
    eigs = np.linalg.eigvals(A + B @ gains.K)
    eigs = sorted(eigs, key=lambda s: (s.real, s.imag))
    for i, s in enumerate(eigs, start=1):
        print(f"eig{i}: {s.real:.12g}{s.imag:+.12g}j")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    passed = run_verification(cfg, print)
    return 0 if passed else 1


def _cmd_report(args) -> int:
    ts = TimeSeries.from_csv(args.csv)
    for line in summarize(ts).lines():
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicopterlab",
        description="Adaptive linearizing bicopter control: simulate and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment and write a CSV")
    p_sim.add_argument("config", help="flat key-value config file")
    p_sim.add_argument("out", help="output CSV path")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_gains = sub.add_parser("gains", help="pole-placement gain synthesis")
    p_gains.add_argument("poles", nargs=4, type=float, help="four closed-loop poles")
    p_gains.set_defaults(fn=_cmd_gains)

    p_verify = sub.add_parser("verify", help="run the numeric oracle suite")
    p_verify.add_argument("config", nargs="?", help="optional config file")
    p_verify.set_defaults(fn=_cmd_verify)

    p_report = sub.add_parser("report", help="recompute metrics from a CSV")
    p_report.add_argument("csv", help="telemetry CSV written by simulate")
    p_report.set_defaults(fn=_cmd_report)
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except (BicopterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
