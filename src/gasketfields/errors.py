"""Exception taxonomy shared across the library and the CLI exit codes."""


class GasketError(Exception):
    """Base class for all library errors."""


class ContractError(GasketError, ValueError):
    """An operation was called with inputs violating its contract."""


class DomainError(GasketError, ValueError):
    """A parameter lies outside its mathematical domain."""


class CapacityError(GasketError):
    """Requested object exceeds the configured memory/size budget."""


class ResolutionError(GasketError):
    """Mesh resolution is too coarse for the requested quantity."""


class InvariantError(GasketError):
    """A constructed object violates one of its structural invariants."""


class NumericError(GasketError):
    """A numerical routine failed to converge or lost accuracy."""


class UsageError(GasketError):
    """Invalid command-line parameters or parameter combinations."""
