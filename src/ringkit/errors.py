"""Exception types shared across the library."""


class RingkitError(Exception):
    pass


class NonInvertibleError(RingkitError, ArithmeticError):
    """Raised when an element has no inverse; carries the offending gcd.

    Catching this and inspecting .gcd is the supported way to harvest a
    nontrivial factor of the modulus from a failed inversion.
    """

    def __init__(self, message, gcd=None):
        super().__init__(message)
        self.gcd = gcd


class ParseError(RingkitError, ValueError):
    """Syntax error in expression or ring-spec text; .position is 1-based."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class UnsupportedRingError(RingkitError, ValueError):
    """Requested operation or construction is not defined for this ring."""


class RetryBudgetError(RingkitError, ArithmeticError):
    """Every randomized attempt failed; .attempts is how many were made."""

    def __init__(self, message, attempts):
        super().__init__("%s after %d attempts" % (message, attempts))
        self.attempts = attempts
