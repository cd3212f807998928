"""radiuslab: numerical radii, generalized norm radii and the Omega norm
for complex matrices, plus a mechanical verification suite for the
inequalities relating them."""

from .matcore import (
    EigenResult,
    MatrixShapeError,
    NonFiniteEntry,
    NonHermitianInput,
    NotAContraction,
    adjoint,
    as_matrix,
    cayley_unitary,
    frobenius_norm,
    hermitian_eigs,
    im_part,
    re_part,
    rotate,
    spectral_norm,
)
from .matfile import MatrixFormatError, load_matrix, loads_matrix, dumps_matrix, save_matrix
from .ensembles import EnsembleSpec, generate, generate_pair, parse_ensemble_id, splitmix64
from .norms import (
    NormSpec,
    UnknownNormId,
    frobenius_norm_spec,
    numerical_radius_norm_spec,
    omega_norm_spec,
    operator_norm_spec,
    parse_norm_id,
    registry,
    schatten_norm_spec,
    validate_norm,
)
from .radius import (
    OmegaResult,
    RadiusResult,
    alphabeta_radius,
    generalized_radius,
    hs_radius_sq,
    numerical_radius,
    numerical_radius_oracle,
    omega_norm,
    omega_radius_slow,
)
from .inequalities import (
    CheckInapplicable,
    InequalityReport,
    RequiresAlgebraNorm,
    RequiresCommutation,
    RequiresContraction,
    RequiresFlags,
    RequiresStructure,
    check_basic_bounds,
    check_commutator,
    check_commuting_product,
    check_dragomir,
    check_hs_pair,
    check_inf_upper,
    check_kittaneh,
    check_lower_bound,
    check_norm_chain,
    check_omega_chain,
    check_omega_equality,
    check_omega_upper,
    check_product,
    check_self_commutator,
    check_special_forms,
    check_unitary_commutator,
    default_checks,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
