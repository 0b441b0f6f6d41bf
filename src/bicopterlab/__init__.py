"""Adaptive linearizing control of a planar bicopter, with numeric verification.

The library simulates a two-rotor planar vehicle tracking smooth and
nonsmooth reference trajectories under an exact-linearization controller
whose mass and inertia are estimated online by a finite-time gradient
flow. Everything is deterministic fixed-step integration; see the README
for the CLI and the demos/ scripts for narrative walkthroughs.

The top level exports the config dataclasses, the errors, `TimeSeries` and
the entry points the demos use; every other name lives in its own module.
"""

from .errors import (
    BicopterError,
    EmptySeries,
    IllConditioned,
    NonFiniteState,
    ParseError,
    SingularThrust,
    UnstablePoleRequest,
    ValidationError,
)
from .estimator import EstimatorConfig
from .linearizer import lie_relative_degree_check
from .model import PlantParams
from .sim import SimConfig, TimeSeries, simulate, summarize
from .tracker import brunovsky_matrices, place_gains
from .trajectory import EllipseSpec, HilbertSpec, hilbert_waypoints
from .verify import run_verification

__version__ = "0.1.0"
