"""Surface geometry in the sub-Riemannian Heisenberg group.

Adapted frames, the curvatures K_L / K_inf / K and normal curvatures
k_n_L / k_n under the Riemannian approximation scheme g_L, numerical
verification of the limit Gauss-Bonnet identity, and the three families
of rotation surfaces with constant limit curvature.
"""

__version__ = "0.1.0"

from .curvature import (
    TransverseCurveSample,
    area_form_coeffs,
    ds_L_density,
    k_L,
    k_gauss_map,
    k_inf,
    k_n,
    k_n_L,
    length_form_limit,
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
    convergence_study,
    gb_residual,
    stokes_density_check,
)
from .hgroup import (
    FrameVec,
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
    build_mesh,
    domain_bound,
    horizontal_lift,
    rotation_patch,
)
from .surface import (
    AdaptedFrameSample,
    FrameDerivatives,
    SurfacePatch,
    beta,
    characteristic_test,
    frame_data,
    graph_patch,
    parametric_patch,
    pushforward_frame,
    xl_basis,
)
