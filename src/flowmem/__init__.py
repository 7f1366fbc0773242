"""Long-memory diagnostics for investor-segregated trading flows."""

__version__ = "0.1.0"

from .errors import (
    DfaError,
    FlowError,
    FlowmemError,
    PipelineError,
    StatsError,
    SurrogateError,
    SynthError,
    TailError,
)
from .dfa import (
    DfaConfig,
    DfaFit,
    FluctuationCurve,
    dfa_hurst,
    dfa_rows,
    fit_hurst,
    fluctuation,
    make_scale_grid,
    profile,
)
from .flows import (
    FLOW_TYPES,
    GROUPS,
    SIDES,
    FlowPanel,
    aggregate_daily,
    read_flows_csv,
)
from .rolling import (
    RegimeSummary,
    RegimeWindow,
    RollingEntry,
    RollingHurst,
    regime_summary,
    rolling_hurst,
)
from .stats import (
    AlignedPairs,
    OlsResult,
    align_h_rv,
    ols,
)
from .surrogate import SurrogateBand, SurrogateSpec, phase_randomize, shuffle, surrogate_band
from .synth import GeneratorSpec, cumsum, fgn, fgn_autocovariance, generate, iid_gaussian, pareto
from .tails import CcdfPoints, TailFit, empirical_ccdf, fit_tail_exponent, gaussian_ccdf_reference
