"""Exception taxonomy shared across the library and the CLI exit codes; memory check."""

import os


class GasketError(Exception):
    """Base class for all library errors."""


class ContractError(GasketError, ValueError):
    """An operation was called with inputs violating its contract."""


class DomainError(GasketError, ValueError):
    """A parameter lies outside its mathematical domain."""


class CapacityError(GasketError):
    """Requested object exceeds the configured memory/size budget."""


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need, what, why):
    """Raise CapacityError if `what` needs `need` bytes, for `why`, past physical memory."""
    limit = _physical_memory()
    if need > limit:
        raise CapacityError(
            f"{what} needs about {need / 1e9:.2f} GB ({why}), more than the "
            f"{limit / 1e9:.2f} GB of physical memory")


class ResolutionError(GasketError):
    """Mesh resolution is too coarse for the requested quantity."""


class InvariantError(GasketError):
    """A constructed object violates one of its structural invariants."""


class NumericError(GasketError):
    """A numerical routine failed to converge or lost accuracy."""


class UsageError(GasketError):
    """Invalid command-line parameters or parameter combinations."""
