"""Two-mode bosonic Fock states, dual-engine moments and nonclassicality witnesses."""

from .fock import (
    FixedTotalState,
    MomentBatch,
    MomentSpec,
    TwoModeState,
    moment_oracle,
)
from .moments import (
    Engine,
    MomentReport,
    compare_engines,
    expectation,
    literal_moment,
)
from .states import (
    InvalidParams,
    NGBSParams,
    NormalizationAnomaly,
    TruncationInadequate,
    binomial_state,
    coherent_product,
    fock_pair,
    ngbs,
)
from .witnesses import (
    DEFAULT_THETAS,
    Witness,
    WitnessResult,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_THETAS",
    "Engine",
    "FixedTotalState",
    "InvalidParams",
    "MomentBatch",
    "MomentReport",
    "MomentSpec",
    "NGBSParams",
    "NormalizationAnomaly",
    "TruncationInadequate",
    "TwoModeState",
    "Witness",
    "WitnessResult",
    "binomial_state",
    "coherent_product",
    "compare_engines",
    "evaluate",
    "expectation",
    "fock_pair",
    "literal_moment",
    "moment_oracle",
    "ngbs",
]
