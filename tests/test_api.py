"""The names `classm` exports. An export is removed only with a reason in CHANGES.md."""

import types

import classm

EXPORTED = [
    "AdmissibleFamily", "BadArgument", "BadParams", "BlockMatrix2N", "BoundReport",
    "Certificate", "ClassMWitness", "ClassUWitness", "DimMismatch", "EpsilonSchedule",
    "InvalidMatrix", "JetPoint", "MonotoneFunction", "NonConvergent", "NonFiniteValue",
    "NotInClassM", "OperatorDescriptor", "OutOfDomain", "PassReport", "SampleConfig",
    "SamplingExhausted", "SlackTooLarge", "Spectrum", "SymmetricMatrix", "TestFunction",
    "ToolkitError",
    "arctan_monotone", "auto_witness_pair", "bisect_inverse_at_zero", "block_compose",
    "block_extract", "catalog", "check_class_m", "check_class_u",
    "check_degenerate_ellipticity", "class_u_constant", "class_u_to_class_m",
    "corollary_bounds", "counterexample", "eig_sum", "eigen_decompose", "elementary_symmetric",
    "extract_limit", "format_matrix_text", "gamma_k_member", "generate_admissible",
    "hessian_blocks", "identity_monotone", "inf_laplace", "inf_laplace_homog", "k_hessian",
    "lemma_upper_bound", "linear_uniform", "loewner_leq", "make_operator",
    "matrix_from_json_obj", "matrix_to_json_obj", "odd_root_monotone", "operator_from_json",
    "operator_norm", "p_laplace", "p_laplace_homog", "parse_matrix_text", "quadratic_doubling",
    "sqrt_gradient", "theorem_lower_bounds", "unit_jet", "verify_conclusion", "verify_eq1",
    "witness_eig_sum", "witness_p_laplace",
]


def test_exported_names_are_pinned():
    public = sorted(name for name, value in vars(classm).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert EXPORTED == sorted(EXPORTED)
    assert public == EXPORTED
