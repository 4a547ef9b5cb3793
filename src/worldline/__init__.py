"""Trajectories of forced particles on pseudo-Riemannian charts.

The package integrates the second-order equation of motion driven by a
velocity-linear force operator and a potential gradient, classifies each
maximal solution (complete to the horizon, blowup, left the chart, stalled),
and checks sampled sufficient conditions for completeness.
"""

from .catalog import Scenario, builtin, list_builtins, load, save
from .criteria import HypothesisReport, evaluate
from .dynamics import (
    IntegrationConfig,
    TrajectoryResult,
    certificate,
    energy_monitor,
    integrate_maximal,
    killing_charge_monitor,
)
from .expr import CoordinateFrame, Expr, parse, to_text
from .fields import FieldPack
from .geometry import (
    ChartDomain,
    LatticeQuotient,
    ManifoldSpec,
    ScalingQuotient,
    TrajectoryState,
    manifold_from_components,
)

__version__ = "0.1.0"

__all__ = [
    "ChartDomain",
    "CoordinateFrame",
    "Expr",
    "FieldPack",
    "HypothesisReport",
    "IntegrationConfig",
    "LatticeQuotient",
    "ManifoldSpec",
    "ScalingQuotient",
    "Scenario",
    "TrajectoryResult",
    "TrajectoryState",
    "builtin",
    "certificate",
    "energy_monitor",
    "evaluate",
    "integrate_maximal",
    "killing_charge_monitor",
    "list_builtins",
    "load",
    "manifold_from_components",
    "parse",
    "save",
    "to_text",
]
