"""Galois-qudit toolkit.

Binary extension field arithmetic, the Galois-qudit Pauli/Clifford
formalism with hierarchy testing, F_q CSS stabiliser tableaux with
measurement, qudit-to-qubit code conversion, and quantum Reed-Solomon
codes, all cross-checked against a dense statevector oracle.
"""

from .bases import (
    BasisAssignment,
    FieldBasis,
    dual_basis,
    find_self_dual,
    polynomial_basis,
)
from .css import CodeParams, CssCode, dual_space, logical_spaces, new_css, params
from .field import GF, canonical_modulus, is_irreducible, make_field
from .gates import (
    DenseOperator,
    HierarchyReport,
    build_gate,
    hierarchy_level,
    pauli_decompose,
    phi_map,
    pi_map,
)
from .grs import (
    GrsCode,
    QrsCode,
    decode,
    dual,
    encode,
    generator_matrix,
    make_qrs,
    mds_weight_count,
    min_weight_codeword,
)
from .oracle import (
    NOT_EIGENSTATE,
    StateVector,
    measure_projective,
    pauli_matrix,
    stabiliser_state,
    syndrome_component,
)
from .pauli import PauliWord
from .q2b import (
    QubitCssCode,
    convert_code,
    convert_logicals,
    end_to_end_decode,
    expand_dual,
    expand_vector,
    export_alist,
    make_plan,
    reconstruct_syndrome,
)
from .tableau import (
    CssTableau,
    add_row,
    apply_gate,
    canonical_form,
    measure,
    new_tableau,
    run_cat_gadget,
    scale_row,
)

__all__ = [
    "BasisAssignment", "FieldBasis", "dual_basis", "find_self_dual", "polynomial_basis",
    "CodeParams", "CssCode", "dual_space", "logical_spaces", "new_css", "params",
    "GF", "canonical_modulus", "is_irreducible", "make_field",
    "DenseOperator", "HierarchyReport", "build_gate", "hierarchy_level", "pauli_decompose",
    "phi_map", "pi_map",
    "GrsCode", "QrsCode", "decode", "dual", "encode", "generator_matrix", "make_qrs",
    "mds_weight_count", "min_weight_codeword",
    "NOT_EIGENSTATE", "StateVector", "measure_projective", "pauli_matrix", "stabiliser_state",
    "syndrome_component",
    "PauliWord",
    "QubitCssCode", "convert_code", "convert_logicals", "end_to_end_decode",
    "expand_dual", "expand_vector", "export_alist", "make_plan", "reconstruct_syndrome",
    "CssTableau", "add_row", "apply_gate", "canonical_form", "measure", "new_tableau",
    "run_cat_gadget", "scale_row",
]
__version__ = "0.1.0"
