"""Shared exception types."""


class FeasibilityError(RuntimeError):
    """A computation would exceed one of the configured safety limits.

    Raised before the heavy work starts; the message names the limit that
    would be blown.  Every limit is a module constant.
    """
