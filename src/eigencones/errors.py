"""Error taxonomy shared by all modules.

Exit-code mapping used by the CLI: VerificationError -> 1,
ConfigurationError/UsageError -> 2, ResourceCapError -> 3.
"""


class EigenconesError(Exception):
    pass


class ConfigurationError(EigenconesError):
    """Invalid (kind, rank) pairs, bad embedding parameters, malformed config."""


class UsageError(EigenconesError):
    """Operation called with arguments outside its contract."""


class ResourceCapError(EigenconesError):
    """A configured cap (group size, tuple count, dimension) was exceeded.

    The message names the cap.
    """


class VerificationError(EigenconesError):
    """A mathematical check that should hold did not."""
