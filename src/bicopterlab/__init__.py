"""Adaptive linearizing control of a planar bicopter, with numeric verification.

The library simulates a two-rotor planar vehicle tracking smooth and
nonsmooth reference trajectories under an exact-linearization controller
whose mass and inertia are estimated online by a finite-time gradient
flow. Everything is deterministic fixed-step integration; see the README
for the CLI and the demos/ scripts for narrative walkthroughs.

The top level is the run API: it exports what a run needs and nothing
else, that is the config dataclasses, the errors, `TimeSeries`, `simulate`
and `summarize`. Every other name is imported from its own module.
"""

from .errors import (
    BicopterError,
    NonFiniteState,
    ParseError,
    SingularThrust,
    ValidationError,
)
from .estimator import EstimatorConfig
from .model import PlantParams
from .sim import SimConfig, TimeSeries, simulate, summarize
from .trajectory import EllipseSpec, HilbertSpec

__version__ = "0.1.0"
