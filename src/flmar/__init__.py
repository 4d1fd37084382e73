"""Desk-scale simulator and optimizer for federated learning over shared
uplinks with mobile-AR training workloads.

Models per-device training compute and wireless upload under FDMA or
two-user NOMA with successive interference cancellation, and jointly
allocates transmit power, bandwidth or channel pairing, CPU frequency and
video frame resolution to trade off total energy, total time and detection
accuracy.
"""

from .accounting import (
    Allocation,
    Scenario,
    SystemMetrics,
    Weights,
    objective,
    system_metrics,
    uplink_rates,
)
from .allocator import (
    InfeasibleBudgetError,
    InfeasibleScenarioError,
    SolveReport,
    optimize,
    random_baseline,
    solve_comm_subproblem_fdma,
    solve_comm_subproblem_noma,
    solve_cpu_frequencies,
    sweep_resolutions,
)
from .channel import (
    ChannelPairing,
    InfeasibleLinkError,
    LinkParams,
    comm_energy,
    comm_time,
    fdma_rate,
    noma_channel_rates,
    pair_users,
    sic_decode_order,
)
from .compute import (
    AccuracyModel,
    DeviceProfile,
    comp_energy,
    comp_time,
    cycles_per_frame,
    detection_accuracy,
)
from .experiments import (
    CellFailure,
    ExperimentGrid,
    ResultRow,
    derive_seed,
    read_csv,
    rows_to_csv,
    rows_to_json,
    run_grid,
    write_csv,
    write_json,
)
from .figures import bar_chart_data, render_bar_chart, write_svg
from .oracle import GridSpec, brute_force_oracle
from .scenario import (
    ScenarioFormatError,
    ScenarioSpec,
    ScenarioValidationError,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AccuracyModel",
    "CellFailure",
    "ChannelPairing",
    "DeviceProfile",
    "ExperimentGrid",
    "GridSpec",
    "InfeasibleBudgetError",
    "InfeasibleLinkError",
    "InfeasibleScenarioError",
    "LinkParams",
    "ResultRow",
    "Scenario",
    "ScenarioFormatError",
    "ScenarioSpec",
    "ScenarioValidationError",
    "SolveReport",
    "SystemMetrics",
    "Weights",
    "bar_chart_data",
    "brute_force_oracle",
    "comm_energy",
    "comm_time",
    "comp_energy",
    "comp_time",
    "cycles_per_frame",
    "derive_seed",
    "detection_accuracy",
    "fdma_rate",
    "generate_scenario",
    "load_scenario",
    "noma_channel_rates",
    "objective",
    "optimize",
    "pair_users",
    "random_baseline",
    "read_csv",
    "render_bar_chart",
    "rows_to_csv",
    "rows_to_json",
    "run_grid",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "sic_decode_order",
    "solve_comm_subproblem_fdma",
    "solve_comm_subproblem_noma",
    "solve_cpu_frequencies",
    "sweep_resolutions",
    "system_metrics",
    "uplink_rates",
    "write_csv",
    "write_json",
    "write_svg",
]
