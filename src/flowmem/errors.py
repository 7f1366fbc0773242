"""Exception hierarchy shared across the toolkit."""


class FlowmemError(Exception):
    """Base class for all toolkit errors."""


class FlowError(FlowmemError):
    """Invalid flow records, panels, or flow CSV input."""


class DfaError(FlowmemError):
    """Series unsuitable for detrended fluctuation analysis."""


class SurrogateError(FlowmemError):
    """Invalid surrogate request."""


class TailError(FlowmemError):
    """Invalid input for tail diagnostics."""


class StatsError(FlowmemError):
    """Invalid regression or alignment input."""


class SynthError(FlowmemError):
    """Invalid synthetic-generator parameters."""


class PipelineError(FlowmemError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.message = message
