"""Side-tagged tail-probability envelopes.

Envelopes are stored in log space: lower bounds routinely live at
exp(-hundreds), far below float underflow, and several diagnostics operate
directly on the tail exponent -ln(envelope).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class TailEnvelope:
    """A pointwise bound on the tail function over an x-grid.

    ``log_values`` <= 0; -inf marks a clamped (trivial) lower bound.
    ``values`` recovers probabilities, underflowing to 0.0 where the
    exponent exceeds float range.
    """

    x: np.ndarray
    log_values: np.ndarray
    side: str
    provenance: str
    valid_from: float
    valid_to: float = np.inf

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        lv = np.asarray(self.log_values, dtype=float)
        if x.ndim != 1 or x.shape != lv.shape or x.size == 0:
            raise InputError("envelope needs matching nonempty 1-d x/log arrays")
        if x.size > 1 and not np.all(np.diff(x) > 0):
            raise InputError("envelope x grid must be strictly increasing")
        if np.any(lv > 1e-9):
            raise InputError("envelope log values must be <= 0")
        lv = np.minimum(lv, 0.0)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "log_values", lv)
        if self.side not in (UPPER, LOWER):
            raise InputError(f"side must be 'upper' or 'lower', got {self.side!r}")

    @property
    def values(self) -> np.ndarray:
        with np.errstate(under="ignore"):
            return np.exp(self.log_values)


def chernoff_envelope(xs: np.ndarray, stars: np.ndarray) -> TailEnvelope:
    """The Chernoff upper envelope exp(-phi*(x)) from the conjugate values
    phi*(x) at each x; a divergent (+inf) phi* gives the bound 0."""
    return TailEnvelope(x=xs, log_values=np.minimum(-stars, 0.0), side=UPPER,
                        provenance="conjugate-upper", valid_from=float(xs[0]))
