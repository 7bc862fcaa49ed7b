"""Desk-scale toolkit for degenerate elliptic operator analysis.

Symmetric-matrix kernel with a deterministic Jacobi eigensolver, a catalog
of degenerate elliptic operators, Class U / Class M membership witnesses
with closed-form inverse-at-zero bounds, seeded property checkers with
self-verifying counterexample certificates, and the theorem-of-sums style
pipeline that removes the eps A^2 term from the two-sided block inequality.
"""

from .errors import (
    BadArgument,
    BadParams,
    DimMismatch,
    InvalidMatrix,
    NonConvergent,
    NonFiniteValue,
    NotInClassM,
    OutOfDomain,
    SamplingExhausted,
    SlackTooLarge,
    ToolkitError,
)
from .falsify import (
    Certificate,
    PassReport,
    SampleConfig,
    check_class_m,
    check_class_u,
    check_degenerate_ellipticity,
    counterexample,
)
from .operators import (
    JetPoint,
    MonotoneFunction,
    OperatorDescriptor,
    arctan_monotone,
    catalog,
    eig_sum,
    identity_monotone,
    inf_laplace,
    inf_laplace_homog,
    k_hessian,
    linear_uniform,
    make_operator,
    odd_root_monotone,
    operator_from_json,
    p_laplace,
    p_laplace_homog,
    sqrt_gradient,
    unit_jet,
)
from .symmat import (
    BlockMatrix2N,
    Spectrum,
    SymmetricMatrix,
    block_compose,
    block_extract,
    eigen_decompose,
    elementary_symmetric,
    format_matrix_text,
    gamma_k_member,
    loewner_leq,
    matrix_from_json_obj,
    matrix_to_json_obj,
    operator_norm,
    parse_matrix_text,
)
from .sums import (
    AdmissibleFamily,
    EpsilonSchedule,
    TestFunction,
    extract_limit,
    generate_admissible,
    hessian_blocks,
    lemma_upper_bound,
    quadratic_doubling,
    verify_conclusion,
    verify_eq1,
)
from .witnesses import (
    BoundReport,
    ClassMWitness,
    ClassUWitness,
    auto_witness_pair,
    bisect_inverse_at_zero,
    class_u_constant,
    class_u_to_class_m,
    corollary_bounds,
    theorem_lower_bounds,
    witness_eig_sum,
    witness_p_laplace,
)

__version__ = "0.1.0"
