"""Surface geometry in the sub-Riemannian Heisenberg group.

Adapted frames, the curvatures K_L / K_inf / K and normal curvatures
k_n_L / k_n under the Riemannian approximation scheme g_L, numerical
verification of the limit Gauss-Bonnet identity, and the three families
of rotation surfaces with constant limit curvature.
"""

__version__ = "0.1.0"

from .curvature import (
    CurvatureSample,
    TransverseCurveSample,
    area_form_coeffs,
    curvature_sample,
    ds_L_density,
    k_L,
    k_gauss_map,
    k_inf,
    k_n,
    k_n_L,
    length_form_limit,
    transverse_sample,
)
from .errors import (
    CharacteristicPointError,
    DegenerateParametrizationError,
    DomainViolationError,
    GeometryError,
    NonFiniteError,
    NonTransverseError,
    QuadratureError,
)
from .gaussbonnet import (
    GBReport,
    ParamRegion,
    area_integral,
    boundary_integral,
    convergence_study,
    gb_residual,
    stokes_density_check,
)
from .hgroup import (
    FrameVec,
    MetricParam,
    Point,
    coframe_eval,
    connection_coeff,
    frame_at,
    gl_inner,
    group_inv,
    group_mul,
    riemann_component,
    volume_form,
)
from .rotsurf import (
    Mesh,
    RotationSurfaceSpec,
    A_family,
    build_mesh,
    domain_bound,
    horizontal_lift,
    r_family,
    rotation_patch,
    theta_c_quadrature,
)
from .surface import (
    AdaptedFrameSample,
    FrameDerivatives,
    SurfacePatch,
    adapted_frame,
    beta,
    characteristic_test,
    frame_derivatives,
    graph_patch,
    parametric_patch,
    pushforward_frame,
    xl_basis,
)
