"""Semantic exceptions shared across the package.

Numeric failure modes are first-class outcomes here: divergence of an
improper integral or an unbounded supremum carry diagnostics instead of
surfacing as bare ValueErrors.
"""

from __future__ import annotations


class TailboundsError(Exception):
    """Base class for every error raised by this package."""


class InputError(TailboundsError, ValueError):
    """Inputs violate a documented contract (domain, shape, file format)."""


class OutOfDomainError(InputError):
    """Evaluation requested outside a function's half-open domain."""

    def __init__(self, lam: float, lo: float, hi: float):
        self.lam, self.lo, self.hi = lam, lo, hi
        super().__init__(f"argument {lam!r} outside domain [{lo!r}, {hi!r})")


class EmptyDomainError(InputError):
    """A domain with no interior was supplied where one is required."""


class UnboundedObjectiveError(TailboundsError):
    """The conjugate supremum diverges; carries the witness sequence."""

    def __init__(self, x: float, witness):
        self.x = x
        self.witness = [float(w) for w in witness]  # numpy 2 prints np.float64(...)
        super().__init__(
            f"sup of lam*x - f(lam) at x={x!r} still increasing at "
            f"lam={self.witness[-1]!r}"
        )


class DivergentIntegral(TailboundsError):
    """An improper integral fails its integrability test."""

    def __init__(self, message: str, diagnostic: dict | None = None):
        self.diagnostic = diagnostic or {}
        super().__init__(message)


class NotConvergedError(TailboundsError):
    """Quadrature or a limit ladder did not reach its tolerance."""

    def __init__(self, message: str, partial=None, diagnostic: dict | None = None):
        self.partial = partial
        self.diagnostic = diagnostic or {}
        super().__init__(message)


class NegativeInputError(TailboundsError):
    """A function contracted to be nonnegative returned a negative value."""


class GeometryInvalidError(TailboundsError):
    """A saddle geometry violates its sign invariants."""


class AbsorptionFailedError(TailboundsError):
    """No (threshold, dilation) pair absorbs the normalization constant."""


class NotCertifiedError(TailboundsError):
    """A prerequisite certificate is missing or negative."""


class NonInvertibleError(TailboundsError):
    """A function required to be strictly increasing is not, numerically."""
