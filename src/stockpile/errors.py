"""Exception hierarchy shared across the package."""


class StockpileError(Exception):
    """Base class for every error this package raises."""


# --- linear programming ---

class NumericalFailure(StockpileError):
    """The solver could not maintain its pivot or feasibility tolerances."""


class UnknownVariable(StockpileError):
    """A row references a variable label that does not exist."""


# --- model construction ---

class InconsistentBounds(StockpileError):
    """A lower bound exceeds the matching upper bound."""


class LengthMismatch(StockpileError):
    """Per-period data does not match the stage's period count."""


class UnknownStage(StockpileError):
    """Stage index outside the configured horizon."""


class DimensionMismatch(StockpileError):
    """A state vector has the wrong length for the catalog."""


class NotOptimal(StockpileError):
    """Tried to extract results from a non-optimal solve."""


# --- data files ---

class DataError(StockpileError):
    """An input file is missing or does not match its declared format."""


class GapDetected(DataError):
    """Timestamps in an input series are not uniformly spaced."""


class OutOfRange(DataError):
    """A value lies outside its range (a capacity factor, a cost)."""


class ParseError(DataError):
    """Malformed input data; message carries the offending row."""


class IndivisibleBlock(DataError):
    """Aggregation block does not divide the samples per day."""


class PartialYear(DataError):
    """Series does not span whole July-to-June years."""


class ZeroVariance(DataError):
    """A series is constant; autocorrelation is undefined."""


# --- training / benchmarks ---

class SolverFailure(StockpileError):
    """A stage solve ended non-optimal where optimality was required.

    ``instance`` is the LP that failed, when known; ``stage`` and
    ``node`` name the stage problem it came from (``node`` is None for
    the capacity stage, and both are None outside training and
    simulation).
    """

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance
        self.stage = None
        self.node = None


class TreeTooLarge(DataError):
    """Scenario tree exceeds the enumeration guard."""


class EmptyPool(StockpileError):
    """Requested a cut pool that holds no cuts yet."""


# --- configuration ---

class ConfigError(StockpileError):
    """Invalid run configuration; ``violations`` lists every problem found."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
