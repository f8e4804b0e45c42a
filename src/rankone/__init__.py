"""Rank-one cutting-and-stacking systems as explicit finite data.

The package turns a stage schedule (cut counts and spacer runs) into
symbolic blocks, an adic path space with a successor map, telescoped and
spacer-replaced models, and a finite-depth isomorphism verifier between
a system and its expansive rebuild.

It exports ``__version__`` and every public name that its imports bind,
the submodules aside.
"""

from types import ModuleType as _ModuleType

from .blocks import (
    KALIKOW_BOUNDED,
    KALIKOW_UNBOUNDED,
    KalikowReport,
    Occurrences,
    build_block,
    kalikow_sup_condition,
    period_doubling_occurrences,
)
from .diagram import (
    DOWN,
    ROOT_NONSPACER,
    ROOT_SPACER,
    SPACER,
    TOWER,
    AdicPath,
    Edge,
    LevelIndices,
    MeasureBracket,
    OrbitCoding,
    Overflow,
    PathError,
    code_minimal_orbit,
    code_orbit,
    cylinder_measure_bounds,
    export_dot,
    from_tower_coordinates,
    level_indices,
    minimal_path,
    path_from_json_dict,
    path_to_json_dict,
    successor,
    validate_path,
)
from .isomorphism import (
    IsoFailure,
    IsoReport,
    exceptional_index,
    to_source,
    to_target,
    verify_isomorphism,
)
from .schedules import (
    DEFAULT_SYMBOL_BUDGET,
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    UNKNOWN_AT_DEPTH,
    BudgetError,
    DepthError,
    ParamSchedule,
    RatioSumReport,
    ScheduleError,
    Stage,
    ValidityReport,
    choose_telescoping_levels,
    heights,
    spacer_ratio_sum,
    tail_mass_bound,
    validate,
)
from .telescoping import (
    ExpansiveModel,
    SpacerReplacementError,
    TelescopedSchedule,
    build_expansive,
    digit_decomposition,
    expansive_replace,
    telescope,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
