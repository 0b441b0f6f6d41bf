"""Adaptive linearizing control of a planar bicopter, with numeric verification.

The library simulates a two-rotor planar vehicle tracking smooth and
nonsmooth reference trajectories under an exact-linearization controller
whose mass and inertia are estimated online by a finite-time gradient
flow. Everything is deterministic fixed-step integration; see the README
for the CLI and the demos/ scripts for narrative walkthroughs.
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
from .estimator import (
    EstimatorConfig,
    data_matrix_deriv,
    estimate_deriv,
    filter_deriv,
    filter_outputs,
    params_from_theta,
    regressor,
)
from .linearizer import (
    U_MIN,
    ParamEstimate,
    alpha,
    beta,
    beta_inv,
    iol_w,
    lie_relative_degree_check,
    xi_of_chi,
)
from .model import PlantParams, extended_deriv, motor_forces, plant_deriv, rk4_step
from .sim import Metrics, SimConfig, TimeSeries, simulate, summarize
from .tracker import DesiredState, GainSet, brunovsky_matrices, place_gains, tracking_v
from .trajectory import (
    EllipseSpec,
    HilbertSpec,
    ellipse_ref,
    hilbert_ref,
    hilbert_waypoints,
)
from .verify import run_verification

__version__ = "0.1.0"
