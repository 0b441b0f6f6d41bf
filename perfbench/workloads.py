"""Workload definitions: seed -> config text, and the CLI commands of one operation.

Seed 0 gives each workload's canonical config exactly. Other seeds perturb
the path geometry and the start offset by a few percent; they never touch
`sim.dt`, `sim.t_end`, `sim.log_every` or `trajectory.seg_time`, so the
step count and the logged row count, and with them the per-step work, stay
the same for every seed.
"""

import random

# name -> config lines fixed for every seed. Why each workload exists is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    # the paper's headline run: 20 s ellipse, estimator on
    "ellipse_adaptive": (),
    # 30 s Hilbert path, estimator on: the trajectory layer's heavy case
    "hilbert_adaptive": ("trajectory.kind = hilbert",),
    # known parameters and every step logged: the telemetry-heavy case
    "ellipse_known_io": ("sim.adaptive = false", "sim.theta0 = 1, 20", "sim.log_every = 1"),
}

# The oracles run on the default config, never on the workload's config.
# Run on the dense ellipse_known_io config (log_every = 1) the closed-loop
# identity check fails today: its stencil step is the log interval, and the
# error is 1.49e-2 against a 1e-3 limit. Passing a config chosen to make
# that failure vanish would hide the defect, so verify takes no argument.
VERIFY_ARGV = ("verify",)


def _ellipse_lines(rng: random.Random, seed: int) -> list:
    if seed == 0:
        return []
    return [
        f"trajectory.a = {5.0 + rng.uniform(-0.25, 0.25)!r}",
        f"trajectory.b = {3.0 + rng.uniform(-0.15, 0.15)!r}",
        f"trajectory.phi_deg = {45.0 + rng.uniform(-3.0, 3.0)!r}",
        f"trajectory.omega = {1.0 + rng.uniform(-0.05, 0.05)!r}",
        _x0_line(rng, (0.0, 0.0)),
    ]


def _hilbert_lines(rng: random.Random, seed: int) -> list:
    if seed == 0:
        return []
    origin = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    return [
        f"trajectory.size = {3.0 + rng.uniform(-0.15, 0.15)!r}",
        f"trajectory.origin = {origin[0]!r}, {origin[1]!r}",
        _x0_line(rng, origin),
    ]


def _x0_line(rng: random.Random, start: tuple) -> str:
    """Start a few cm off the path's first point, at rest and level."""
    x0 = (start[0] + rng.uniform(-0.05, 0.05), start[1] + rng.uniform(-0.05, 0.05))
    return f"sim.x0 = {x0[0]!r}, {x0[1]!r}, 0, 0, 0, 0"


def config_text(workload: str, seed: int) -> str:
    """The config document of `workload` for `seed`; deterministic in both."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = random.Random(seed)
    lines = list(WORKLOADS[workload])
    if workload == "hilbert_adaptive":
        lines += _hilbert_lines(rng, seed)
    else:
        lines += _ellipse_lines(rng, seed)
    return f"# {workload}, seed {seed}\n" + "".join(line + "\n" for line in lines)


def commands(workload: str, cfg_path: str, csv_path: str) -> list:
    """argv lists of one operation, in order."""
    argv = [["simulate", cfg_path, csv_path], ["report", csv_path]]
    if workload == "ellipse_known_io":
        argv.append(list(VERIFY_ARGV))
    return argv
