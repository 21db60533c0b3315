"""Exception types. Validation failures are ValueErrors; numerical
consistency failures are RuntimeErrors so callers (and the CLI exit-code
discipline) can tell them apart."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class SingularPointError(ValueError):
    """Field sampled exactly on its singular locus."""


class StencilError(ValueError):
    """Point too close to a singularity for the requested stencil."""


class WindowError(ValueError):
    """Shift window does not fit inside the momentum grid."""


class SingularTermError(ValueError):
    """A term of a window average is singular; carries the offending index."""

    def __init__(self, n: int, message: str = ""):
        self.n = n
        super().__init__(message or f"singular matrix in average window at n={n}")


class ResolutionError(RuntimeError):
    """Two quadrature refinement levels disagree beyond tolerance."""


class ConsistencyError(RuntimeError):
    """Closed form and independent numerical path disagree beyond tolerance."""


class ConvergenceError(RuntimeError):
    """Requested evaluation point is outside the absolutely convergent regime."""


class TruncationError(RuntimeError):
    """Integrand tail at the quadrature boundary is not negligible."""
