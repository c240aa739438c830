"""Numerical lab for the Ricci-flat Calabi-Eguchi-Hanson metrics on the
n-th negative power of the tautological bundle over projective space.

Closed-form tensors (metric, connection, curvature, curvature norm, distance
Hessian) on the quotient chart and across the zero section, geodesic flow,
and a finite-difference oracle that certifies every closed form against the
derivative chain potential -> metric -> connection -> curvature.
"""

from .profiles import (
    DomainError,
    GeometryParams,
    RadialProfile,
    f_prime,
    potential,
    radial_profile,
    radius_sq,
    roots_of_unity_sum,
)
from .tensors import (
    fubini_study,
    homothety_residual,
    metric,
    metric_inverse,
    random_points,
)
from .curvature import (
    christoffel_ceh,
    kretschmann,
    kretschmann_contracted,
    kretschmann_radial,
    ricci,
    riemann,
)
from .charts import (
    ChartError,
    ChartPoint,
    PullbackMetric,
    chart_to_quotient,
    pullback_metric,
    quotient_to_chart,
    transition,
    zero_section_restriction,
)
from .geodesics import (
    GeodesicState,
    Trajectory,
    energy,
    geodesic_rhs,
    integrate,
    radial_arclength,
    zero_section_geodesic,
)
from .hessian import (
    HessianSpectrum,
    hessian_blocks,
    hessian_spectrum,
    psi_prime,
    psi_second_derivative,
    upsilon,
)
from .volform import (
    chart_pullback_volform,
    covariant_derivative_epsilon,
    volform_norm_sq,
)
from .numdiff import (
    FDConfig,
    complex_hessian,
    verify_pipeline,
    wirtinger_partial,
)

__version__ = "0.1.0"
