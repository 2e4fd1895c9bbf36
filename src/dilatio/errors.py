"""Exception types shared across the package.

The CLI maps these onto its exit-code contract:
0 pass, 1 input error, 2 verification failure, 3 precondition failure,
4 resource guard.
"""


class ChannelFormatError(ValueError):
    """A channel, state, or bundle document is malformed."""


class RejectedChannelError(ValueError):
    """A channel required to be CPTP failed certification."""


class NotCyclicError(ValueError):
    """No cycle period was found, or the claimed period does not hold."""


class NotCommutingError(ValueError):
    """The two control channels do not commute."""


class HorizonError(ValueError):
    """A requested power exceeds the validity horizon of a dilation bundle."""


class MemoryGuardError(RuntimeError):
    """A dilation build would exceed the configured total-dimension guard."""


class CompletionError(RuntimeError):
    """Unitary completion of an isometry did not reach full rank."""
