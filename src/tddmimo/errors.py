"""Exception types shared across the library."""


class SingularChannelError(ArithmeticError):
    """Gram matrix of the (scaled) channel estimate is numerically singular.

    Raised when the condition number exceeds the library-wide threshold
    (1e12).  Monte Carlo drivers catch this, discard the draw and count it.
    """


class ExcessSingularDrawsError(RuntimeError):
    """More than 0.1% of Monte Carlo draws were singular; run aborted."""
