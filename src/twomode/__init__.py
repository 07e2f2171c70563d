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
    cross_moment,
    expectation,
    literal_moment,
    mode1_moment,
    mode2_moment,
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
    cauchy_schwarz,
    epr,
    evaluate,
    hoa,
    quad_squeeze,
    su11,
    sum_squeeze,
    sv,
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
    "cauchy_schwarz",
    "coherent_product",
    "compare_engines",
    "cross_moment",
    "epr",
    "evaluate",
    "expectation",
    "fock_pair",
    "hoa",
    "literal_moment",
    "mode1_moment",
    "mode2_moment",
    "moment_oracle",
    "ngbs",
    "quad_squeeze",
    "su11",
    "sum_squeeze",
    "sv",
]
