"""Command-line interface: experiment runner and numeric verification.

Subcommands:

    simulate CONFIG OUT.csv   run one experiment, write telemetry, print metrics
    gains P1 P2 P3 P4         synthesize feedback gains for four poles
    verify [CONFIG]           run the numeric oracles; exit 0 iff all pass
    report CSV                recompute metrics from a telemetry file

Configs are flat key-value documents, one `section.key = value` per line,
with `#` comments; unknown keys are rejected. The key table is derived from
the fields of the config dataclasses, and every default and every check is
theirs.
"""

import argparse
import sys
from dataclasses import fields, is_dataclass
from math import radians

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


# field type -> parser of its raw value
_PARSERS = {
    float: float, float | None: float, int: int, bool: _parse_bool,
    tuple: _parse_floats, tuple | None: _parse_floats,
}

_KINDS = {"ellipse": EllipseSpec, "hilbert": HilbertSpec}

# config section -> the dataclasses whose fields it sets
_SECTIONS = {
    "plant": (PlantParams,),
    "estimator": (EstimatorConfig,),
    "trajectory": tuple(_KINDS.values()),
    "sim": (SimConfig,),
}

# section.field -> (key, parser) for the keys that do not spell their field
_RENAMED = {
    "estimator.forgetting": ("estimator.lambda", float),
    "sim.poles": ("gains.poles", _parse_floats),
    "trajectory.phi": ("trajectory.phi_deg", lambda raw: radians(float(raw))),
}


def _key_table() -> dict:
    """key -> (owning dataclass, field name, parser of the raw value)."""
    table = {"trajectory.kind": (None, "kind", str)}
    for section, owners in _SECTIONS.items():
        for cls in owners:
            for f in fields(cls):
                if is_dataclass(f.default):
                    continue  # SimConfig's plant, est and traj: sections of their own
                name = f"{section}.{f.name}"
                key, parse = _RENAMED.get(name, (name.lower(), _PARSERS[f.type]))
                table[key] = (cls, f.name, parse)
    return table


_KEYS = _key_table()


def parse_config(text: str) -> SimConfig:
    """Build a validated SimConfig; each dataclass gets only the keys the document sets."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"expected 'key = value', got {body!r}", line_no)
        key, _, raw = body.partition("=")
        key = key.strip().lower()
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line_no)
        try:
            values[key] = _KEYS[key][2](raw.strip())
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line_no) from exc

    kind = values.pop("trajectory.kind", "ellipse").lower()
    if kind not in _KINDS:
        raise ValidationError(f"trajectory.kind must be ellipse or hilbert, got {kind!r}")
    owners = (PlantParams, EstimatorConfig, _KINDS[kind], SimConfig)
    used_wrong = sorted(k for k in values if _KEYS[k][0] not in owners)
    if used_wrong:
        raise ValidationError(f"keys {used_wrong} do not apply to trajectory.kind = {kind}")

    kwargs = {cls: {} for cls in owners}
    for key, value in values.items():
        cls, name, _ = _KEYS[key]
        kwargs[cls][name] = value
    plant, est, traj = (cls(**kwargs[cls]) for cls in owners[:3])
    return SimConfig(plant=plant, est=est, traj=traj, **kwargs[SimConfig])


def _load_config(path: str | None) -> SimConfig:
    if path is None:
        return parse_config("")
    with open(path, errors="replace") as f:  # U+FFFD spells no key
        return parse_config(f.read())


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    ts = simulate(cfg)
    ts.to_csv(args.out)
    for line in summarize(ts).lines():
        print(line)
    return 0


def _cmd_gains(args) -> int:
    import numpy as np  # the one command that needs a matrix: eigvals checks the poles

    k = place_gains(args.poles)
    for i, gain in enumerate(k, start=1):
        print(f"K{i}: {abs(gain):.17g}")
    A, B = brunovsky_matrices()
    eigs = np.linalg.eigvals(A + B @ np.kron(np.eye(2), k))
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
    if list(argv[:1]) == ["gains"] and not {"-h", "--help", "--"} & set(argv):
        argv = ["gains", "--", *argv[1:]]  # its only option is -h: argparse reads -4.5e0 as a flag
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


if __name__ == "__main__":
    main()
