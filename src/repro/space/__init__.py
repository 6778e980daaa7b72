"""Space accounting (Figures 7 and 8) and the S_X / U_X functions."""

from .asymptotics import (
    Classification,
    Fit,
    GROWTH_CLASSES,
    fit_growth,
    growth_name,
    is_bounded,
    ratio_table,
)
from .consumption import (
    Consumption,
    measure,
    measure_all,
    prepare_input,
    prepare_program,
    space_consumption,
    sweep,
)
from .flat import (
    configuration_space,
    final_space,
    number_space,
    state_space,
    store_space,
    value_space,
)
from .linked import configuration_space_linked
from .meter import DEFAULT_STEP_LIMIT, MeterResult, run_metered, run_to_final
from .safety import (
    ProbeVerdict,
    SafetyReport,
    check_space_safety,
    is_properly_tail_recursive,
)

__all__ = [
    "Classification",
    "Fit",
    "GROWTH_CLASSES",
    "fit_growth",
    "growth_name",
    "is_bounded",
    "ratio_table",
    "Consumption",
    "measure",
    "measure_all",
    "prepare_input",
    "prepare_program",
    "space_consumption",
    "sweep",
    "configuration_space",
    "final_space",
    "number_space",
    "state_space",
    "store_space",
    "value_space",
    "configuration_space_linked",
    "DEFAULT_STEP_LIMIT",
    "MeterResult",
    "run_metered",
    "run_to_final",
    "ProbeVerdict",
    "SafetyReport",
    "check_space_safety",
    "is_properly_tail_recursive",
]
