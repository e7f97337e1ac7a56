"""Open-system dynamics of a two-parameter qubit-qutrit state family.

The package simulates the family under five Kraus noise channels acting on
the qubit, the qutrit, or both, computes entanglement (negativity) and
off-diagonal coherence over noise strength, locates entanglement sudden
death thresholds, and cross-validates the Kraus numerics against closed-form
expressions for every evolved state and negativity that admits one.
"""

#: The package version, read by the build metadata, ``qqdyn --version`` and
#: the ``tool_version`` field of emitted JSON.  Set before the submodule
#: imports so that they can read it.
__version__ = "0.1.0"

from .channels import ChannelKind, Side
from .evolution import (
    ChannelScenario,
    Mode,
    RAW_FORM_MISMATCHES,
    analytic_evolved,
    coherence_l1,
    evolve,
    evolve_grid,
)
from .linalg import partial_transpose_qutrit
from .negativity import (
    CANONICAL_POINTS,
    EsdReport,
    NegativityResult,
    NoClosedFormError,
    REFERENCE_ESD_TABLE,
    analytic_esd_gamma,
    classify_table1,
    esd_gamma,
    esd_report,
    negativity_analytic,
    negativity_numeric,
)
from .states import (
    DensityMatrix,
    StateParams,
    initial_state,
    random_entangled_params,
)
from .sweep import SweepResult, SweepRow, run_sweep
from .validate import run_validation

__all__ = [
    "CANONICAL_POINTS",
    "ChannelKind",
    "ChannelScenario",
    "DensityMatrix",
    "EsdReport",
    "Mode",
    "NegativityResult",
    "NoClosedFormError",
    "RAW_FORM_MISMATCHES",
    "REFERENCE_ESD_TABLE",
    "Side",
    "StateParams",
    "SweepResult",
    "SweepRow",
    "analytic_esd_gamma",
    "analytic_evolved",
    "classify_table1",
    "coherence_l1",
    "esd_gamma",
    "esd_report",
    "evolve",
    "evolve_grid",
    "initial_state",
    "negativity_analytic",
    "negativity_numeric",
    "partial_transpose_qutrit",
    "random_entangled_params",
    "run_sweep",
    "run_validation",
]
