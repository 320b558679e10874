"""Exception types shared across the package."""


class ProtmeasError(Exception):
    """Base class for all package-specific failures."""


class TruncationError(ProtmeasError):
    """A requested object does not fit on the truncated basis."""


class NumericalError(ProtmeasError):
    """A numerical procedure failed to reach its tolerance."""


class PostSelectionError(ProtmeasError):
    """Post-selected state is (nearly) orthogonal to the pre-selected one."""


class UsageError(ProtmeasError):
    """Invalid experiment configuration; names the violated precondition."""
