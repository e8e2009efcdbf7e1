"""Kuznecov-Weyl sums for restrictions of eigenfunctions to equatorial
spheres and coordinate sub-tori.

Pipeline: model spectra -> restriction coefficient tables -> windowed
spectral sums -> growth-law fits and leading-coefficient predictions,
plus the standalone oscillatory-integral toolkit (double-Bessel integrals,
model blow-down integral, stationary phase, Hadamard transport, exact
sphere wave kernel).
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ResourceGuardError,
    ToleranceError,
    TruncationRiskError,
    ValidationError,
)
from .model_spectra import (
    ManifoldPair,
    SpectrumSlice,
    enumerate_spectrum,
    sphere_pair,
    torus_pair,
)
from .restriction_coeffs import (
    CoefficientTable,
    RowTable,
    build_table,
    load_or_build,
    sphere_coefficients,
    torus_coefficients,
)
from .kuznecov import (
    SumTable,
    TestFunction,
    averaged_sharp_sum,
    dominating_test_function,
    doubly_smoothed_sum,
    dual_trace,
    jump,
    kuznecov_sum,
    make_test_function,
    sharp_sum,
)
from .asymptotics import (
    CoefficientPrediction,
    FitReport,
    fit_growth,
    flat_leading_coefficient,
    jump_bound_check,
    predicted_exponent,
    sphere_leading_coefficient,
    subcritical_coefficient,
)
from .oscillatory_models import (
    HadamardCoefficients,
    PhaseProblem,
    double_bessel,
    hadamard_transport,
    hessian_model,
    model_integral,
    sphere_wave_kernel,
    stationary_phase_leading,
)
