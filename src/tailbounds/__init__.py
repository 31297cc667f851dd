"""Certified two-sided tail-probability envelopes from MGF bounds.

The toolkit turns bounds on a moment generating function into tail bounds:
the classical conjugate (Chernoff) upper envelope, and inverted *lower*
envelopes built from one-sided floors, two-sided pinches, and exact MGF
identities; everything is validated against exact reference laws.
"""

__version__ = "0.1.0"

from .envelope import LOWER, UPPER, TailEnvelope, chernoff_envelope
from .errors import (
    AbsorptionFailedError,
    DivergentIntegral,
    EmptyDomainError,
    GeometryInvalidError,
    InputError,
    NegativeInputError,
    NonInvertibleError,
    NotCertifiedError,
    NotConvergedError,
    OutOfDomainError,
    TailboundsError,
    UnboundedObjectiveError,
)
from .functions import (
    ConjugateResult,
    Domain,
    PhiFunction,
    biconjugate,
    certify_convex,
    conjugate,
    conjugate_value,
)
from .integrals import (
    CramerCertificate,
    EpsilonReport,
    cramer_check,
    epsilon_report,
    i_integral,
    k_integral,
    log_compound_upper_bound,
    log_i_integral,
    r_integral,
)
from .lower_bilateral import (
    PinchCertificate,
    RegularityReport,
    SaddleGeometry,
    closure_lower_envelope,
    exact_mgf_sandwich,
    make_geometry,
    pinch_rate_diagnostic,
    pinched_lower_envelope,
    tangent_bracket_log,
    tangent_bracket_lower,
    verify_regularity,
)
from .lower_unilateral import (
    DilationCertificate,
    LowerEnvelopeCertificate,
    absorb_normalization,
    certify_dilation_dominance,
    m_surrogate_from_upper,
    unilateral_lower_envelope,
)
from .moments import (
    ExponentPair,
    GrowthRecoveryReport,
    MomentEnvelope,
    PowerTailReport,
    growth_tail_recovery,
    moment_envelope_from_csv,
    moment_power_growth,
    moment_power_pole,
    power_tail_lower,
    to_exponential,
)
from .oracles import (
    OracleDistribution,
    battery,
    empirical_tail,
    exponential_unit,
    gaussian,
    gaussian_scale_mixture,
    pareto,
    quadrature,
    suite,
    uniform_stream,
    weibull,
)
from .tauberian import TauberianReport, tauberian_check
