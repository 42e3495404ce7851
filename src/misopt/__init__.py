"""Beam-pattern design and shift scheduling for stacked movable metasurfaces.

A fixed metasurface carries a smaller movable one; sliding the movable layer
in whole-element steps synthesizes distinct beam patterns from static
phases.  This package models the layout, evaluates user SNRs under a
line-of-sight channel, and jointly optimizes both phase profiles and the
per-user pattern schedule for the worst-case SNR with an annealed Riemannian
conjugate-gradient solver, plus sweep drivers and brute-force/finite-
difference ground truth.  Solver internals are imported from their own modules
(``misopt.manifolds``, ``misopt.solver``, ``misopt.oracle``).
"""

__version__ = "0.1.0"

from .channel import ArrayAngles, Scenario, cascaded_channel, upa_steering
from .experiments import (
    ArcScenarioSpec,
    CoverageArc,
    Study,
    build_arc_scenario,
    case_study,
    sms_baseline,
    sweep_allocation,
    sweep_ms2_sizes,
    sweep_users_1d2d,
)
from .geometry import MisGeometry, all_selections
from .objective import EvalContext, ProductPoint, evaluate
from .oracle import brute_force_solve
from .solver import SolveReport, SolverConfig, solve
