"""Unit commitment and economic dispatch as optimal mode switching.

Commitment vectors are the modes of a hybrid system; each mode's dispatch
is the unique minimizer of a strictly convex program, switching costs have
a closed form, and the horizon problem is solved exactly (enumeration or
layered-graph dynamic programming) or approximately by training tail
values on basis functions and scheduling closed loop one step at a time.
"""

__version__ = "0.1.0"

from .clho import (
    BasisSpec,
    TrainConfig,
    ValueModel,
    default_basis,
    load_model,
    save_model,
    schedule_step,
    train,
)
from .costs import (
    emission,
    fuel_cost,
    kappa,
    quota_rebate,
    resource_cost,
    running_cost,
    switching_cost,
    switching_matrix,
)
from .errors import (
    BudgetExceededError,
    InfeasibleModeError,
    ModelMismatchError,
    QpNumericalError,
    ScenarioError,
    UcdError,
)
from .hybrid import (
    PeriodRecord,
    Schedule,
    Trajectory,
    int_to_mode,
    mode_to_int,
    parse_schedule,
    run_schedule,
    schedule_text,
    trajectory_csv,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleResult,
    enumerate_optimal,
    enumerate_schedule_costs,
    enumerate_tail,
    graph_dp_optimal,
)
from .qp import (
    FEAS_TOL,
    KKT_TOL,
    QpProblem,
    QpSolution,
    assemble,
    kkt_residual,
    mode_candidates,
    mode_dynamics,
    solve,
)
from .scenario import (
    BUNDLED_SCENARIOS,
    CetParams,
    PeriodExogenous,
    Scenario,
    ThermalUnitParams,
    VirtualResourceParams,
    load_bundled_scenario,
    parse_scenario,
    scenario_fingerprint,
    serialize_scenario,
    validate_scenario,
)
from .simulate import (
    ComparisonReport,
    DisturbanceScript,
    RunReport,
    compare_with_oracle,
    simulate,
)

__all__ = [
    "__version__",
    # scenario
    "Scenario", "ThermalUnitParams", "VirtualResourceParams", "CetParams",
    "PeriodExogenous", "parse_scenario", "serialize_scenario",
    "validate_scenario", "scenario_fingerprint", "load_bundled_scenario",
    "BUNDLED_SCENARIOS",
    # costs
    "fuel_cost", "emission", "resource_cost", "running_cost", "kappa",
    "switching_cost", "switching_matrix", "quota_rebate",
    # qp
    "QpProblem", "QpSolution", "assemble", "solve", "kkt_residual",
    "mode_dynamics", "mode_candidates", "KKT_TOL", "FEAS_TOL",
    # hybrid
    "Schedule", "PeriodRecord", "Trajectory", "mode_to_int", "int_to_mode",
    "schedule_text", "parse_schedule", "run_schedule",
    "trajectory_csv",
    # oracle
    "OracleResult", "enumerate_optimal", "enumerate_tail",
    "enumerate_schedule_costs", "graph_dp_optimal", "DEFAULT_BUDGET",
    # clho
    "BasisSpec", "TrainConfig", "ValueModel", "default_basis", "train",
    "schedule_step", "save_model", "load_model",
    # simulate
    "DisturbanceScript", "RunReport", "ComparisonReport", "simulate",
    "compare_with_oracle",
    # errors
    "UcdError", "ScenarioError", "InfeasibleModeError", "QpNumericalError",
    "BudgetExceededError", "ModelMismatchError",
]
