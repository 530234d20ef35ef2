"""The names importable from ``bihomsuper`` are fixed; changing them is an API change."""

import bihomsuper

PUBLIC_NAMES = [
    "AlgebraDocument", "BiHomLieSuperalgebra", "BihomError", "DeformationPair", "DerivationQuery",
    "DerivationSpace", "DimensionError", "DocumentError", "EVEN", "GradedMap", "LinearForm", "ODD",
    "ParityError", "PreconditionError", "RotaBaxterOperator", "RunReport", "Scalar",
    "StructureTensor2", "StructureTensor3", "SuperSpace", "TauWitness",
    "TheoremContradictionError", "ThreeBiHomLieSuperalgebra", "TwistError", "VerificationReport",
    "Violation", "WedgePair", "algebras", "bracket_annihilating_forms",
    "build_trivial_deformation", "check_2cocycle", "check_deformation",
    "check_derivation_nijenhuis_rb_equivalence", "check_derivation_transfer",
    "check_inverse_derivation_equivalence", "check_nijenhuis_rb_compatibility",
    "check_nijenhuis_transfer", "check_quasiderivation_transfer", "check_rb_transfer_criterion",
    "check_tau_conditions", "cli", "commute", "core", "deformations", "derivations",
    "document_digest", "documents", "induce_tau", "invert_matrix", "is_derivation_2",
    "is_derivation_3", "is_nijenhuis_2", "is_nijenhuis_3", "is_quasiderivation_2",
    "is_quasiderivation_3", "is_rb2", "is_rb3", "kernel_basis", "linalg", "load_document",
    "make_n_bracket_1", "make_n_bracket_2", "make_projection_twisted_algebra", "make_rb_bracket",
    "make_twist_2", "make_twist_3", "omega_compose", "parity_components", "parse_document",
    "rota_baxter", "run_pipeline", "save_document", "serialize_document", "solve_derivation_space",
    "solve_derivation_space_2", "solve_linear", "supercommutator", "tau", "twist_power",
    "verify_3bihom_jacobi", "verify_3bihom_jacobi_cyclic", "verify_3bihom_skewsymmetry",
    "verify_bihom_jacobi", "verify_bihom_skewsymmetry", "verify_multiplicativity2",
    "verify_multiplicativity3",
]


def test_public_names_are_unchanged():
    assert sorted(n for n in dir(bihomsuper) if not n.startswith("_")) == PUBLIC_NAMES
