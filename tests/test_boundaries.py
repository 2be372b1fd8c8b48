"""Every public entry point that takes codes or bits refuses non-integers.

GF.check_codes is the one rule for code and bit input: a float, complex,
string, object or ragged input, or an int outside int64, raises
InvalidFieldCode before numpy would truncate or parse it; the scalar GF
ops refuse the same kinds, arrays included.  The walk below spoils one code
argument of each entry point at a time with each bad kind, in an otherwise
valid call, and requires a GquditError.
"""

from functools import lru_cache

import numpy as np
import pytest

import gqudits
from gqudits import grs, linalg, oracle, q2b, tableau
from gqudits.errors import GquditError
from gqudits.field import make_field
from gqudits.pauli import PauliWord

BAD = [1.5, 2.9, "3", 1 + 0j, 2**70, "object array", "ragged"]

# the gqudits.__all__ entries whose arguments hold no codes or bits
NO_CODES = {
    "BasisAssignment", "dual_basis", "find_self_dual", "polynomial_basis",
    "CodeParams", "logical_spaces", "params",
    "canonical_modulus", "is_irreducible", "make_field",
    "DenseOperator", "HierarchyReport", "hierarchy_level", "pauli_decompose", "phi_map", "pi_map",
    "dual", "generator_matrix", "mds_weight_count",
    "NOT_EIGENSTATE", "StateVector", "measure_projective", "pauli_matrix", "stabiliser_state",
    "syndrome_component",
    "QubitCssCode", "convert_code", "convert_logicals", "make_plan",
    "add_row", "canonical_form", "measure",
}


def spoil(codes, bad):
    """codes with its first entry replaced by bad, or for the object kind
    the same codes as an object array (0-d for one code), or for the ragged
    kind by the ragged nesting [[c, c], [c]]; None keeps them."""
    if bad is None:
        return codes
    if bad == "object array":
        return np.array(codes, dtype=object)
    if np.ndim(codes) == 0:
        return [[codes, codes], [codes]] if bad == "ragged" else bad
    out = list(codes)
    out[0] = spoil(out[0], bad)
    return out


@lru_cache(maxsize=None)
def calls():
    """{entry point: [call(bad) for each code or bit argument]} over F_8."""
    gf = make_field(3)
    c = grs.GrsCode(gf, 2, [0, 1, 2, 3], [1, 1, 1, 1])
    qrs = grs.make_qrs(gf, 8, 2, 5)
    assignment = q2b.default_assignment(gf, 8)
    plan = q2b.make_plan(qrs.css, assignment)
    basis = gqudits.find_self_dual(gf)
    t = tableau.new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], [5])
    psi = oracle.stabiliser_state(t)
    X = PauliWord.x_word(gf, [0, 1])
    bits = [0] * plan.ns
    rng = np.random.default_rng(0)
    return {
        "GF": [
            lambda b: gf.mul_arr(spoil([1, 2], b), [3, 3]),
            lambda b: gf.mul_arr([3, 3], spoil([1, 2], b)),
            lambda b: gf.inv_arr(spoil([1, 2], b)),
            lambda b: gf.trace_arr(spoil([1, 2], b)),
            lambda b: gf.matmul(spoil([[1, 2], [3, 4]], b), [[1, 0], [0, 1]]),
            lambda b: gf.matmul([1, 2], spoil([[1, 0], [0, 1]], b)),
            lambda b: gf.pow(spoil(np.array([1, 2]), b), 3),
            lambda b: gf.check_codes(spoil([1, 2], b)),
            lambda b: gf.mul(spoil(1, b), 3),
            lambda b: gf.mul(3, spoil(1, b)),
            lambda b: gf.div(3, spoil(1, b)),
            lambda b: gf.inv(spoil(1, b)),
            lambda b: gf.trace(spoil(1, b)),
        ],
        "FieldBasis": [lambda b: gqudits.FieldBasis(gf, spoil([1, 2, 4], b))],
        "CssCode": [
            lambda b: gqudits.CssCode(gf, 2, spoil([[1, 1]], b), []),
            lambda b: gqudits.CssCode(gf, 2, [], spoil([[1, 1]], b)),
        ],
        "new_css": [lambda b: gqudits.new_css(gf, 2, spoil([[1, 1]], b), [])],
        "dual_space": [lambda b: gqudits.dual_space(gf, spoil([[1, 2, 3]], b))],
        "build_gate": [
            lambda b: gqudits.build_gate(gf, "x", beta=spoil(1, b)),
            lambda b: gqudits.build_gate(gf, "z", gamma=spoil(1, b)),
            lambda b: gqudits.build_gate(gf, "mult", delta=spoil(1, b)),
        ],
        "GrsCode": [
            lambda b: grs.GrsCode(gf, 2, spoil([0, 1, 2, 3], b), [1, 1, 1, 1]),
            lambda b: grs.GrsCode(gf, 2, [0, 1, 2, 3], spoil([1, 1, 1, 1], b)),
        ],
        "QrsCode": [
            lambda b: grs.QrsCode(gf, 2, 5, spoil(qrs.alpha, b), qrs.v, qrs.u, qrs.css),
            lambda b: grs.QrsCode(gf, 2, 5, qrs.alpha, spoil(qrs.v, b), qrs.u, qrs.css),
            lambda b: grs.QrsCode(gf, 2, 5, qrs.alpha, qrs.v, spoil(qrs.u, b), qrs.css),
        ],
        "decode": [lambda b: grs.decode(c, spoil([0, 0], b))],
        "encode": [lambda b: grs.encode(c, spoil([1, 2], b))],
        "make_qrs": [
            lambda b: grs.make_qrs(gf, 4, 1, 3, alpha=spoil([0, 1, 2, 3], b)),
            lambda b: grs.make_qrs(gf, 4, 1, 3, v=spoil([1, 1, 1, 1], b)),
        ],
        "min_weight_codeword": [
            lambda b: grs.min_weight_codeword(c, spoil([1], b), 1),
            lambda b: grs.min_weight_codeword(c, [1], spoil(1, b)),
        ],
        "PauliWord": [
            lambda b: PauliWord(gf, spoil((1, 2), b), (0, 0)),
            lambda b: PauliWord.x_word(gf, spoil([1, 2], b)),
            lambda b: PauliWord.z_word(gf, spoil([1, 2], b)),
            lambda b: PauliWord.from_vectors(gf, [1, 2], spoil([0, 0], b)),
            lambda b: X.power(spoil(3, b)),
        ],
        "expand_vector": [lambda b: q2b.expand_vector(assignment, spoil([1] * 8, b))],
        "expand_dual": [lambda b: q2b.expand_dual(assignment, spoil([1] * 8, b))],
        "export_alist": [lambda b: q2b.export_alist(spoil([[1, 0]], b))],
        "reconstruct_syndrome": [lambda b: q2b.reconstruct_syndrome(spoil([1, 0, 1], b), basis)],
        "end_to_end_decode": [lambda b: q2b.end_to_end_decode(qrs, assignment, plan, spoil(bits, b), "Z")],
        "CssTableau": [lambda b: tableau.CssTableau(gf, 2, spoil(t.x.tolist(), b), t.z)],
        "new_tableau": [
            lambda b: tableau.new_tableau(gf, 2, spoil([[1, 0]], b), [[0, 1]], [3], [5]),
            lambda b: tableau.new_tableau(gf, 2, [[1, 0]], spoil([[0, 1]], b), [3], [5]),
            lambda b: tableau.new_tableau(gf, 2, [[1, 0]], [[0, 1]], spoil([3], b), [5]),
            lambda b: tableau.new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], spoil([5], b)),
        ],
        "apply_gate": [lambda b: tableau.apply_gate(t, "mult", 0, delta=spoil(3, b))],
        "scale_row": [lambda b: tableau.scale_row(t, "x", 0, spoil(3, b))],
        "run_cat_gadget": [
            lambda b: tableau.run_cat_gadget(gf, spoil([1, 2, 3, 4], b), 5, rng),
            lambda b: tableau.run_cat_gadget(gf, [1, 2, 3, 4], spoil(5, b), rng),
        ],
        # module-level entry points outside __all__ that take codes or bits
        "q2b.export_dense": [lambda b: q2b.export_dense(spoil([[1, 0]], b))],
        "linalg.rref_augmented": [
            lambda b: linalg.rref_augmented(gf, spoil([[1, 2]], b), [[3]]),
            lambda b: linalg.rref_augmented(gf, [[1, 2]], spoil([[3]], b)),
        ],
        "linalg.solve": [lambda b: linalg.solve(gf, [[1, 2]], spoil([3], b))],
        "oracle.index_of": [lambda b: oracle.index_of(gf, spoil([1, 2], b))],
        "oracle.collapse": [lambda b: oracle.collapse(psi, X, spoil(3, b))],
        "tableau.measure_postselect": [
            lambda b: tableau.measure_postselect(t, X, spoil(3, b)),
            lambda b: tableau.measure_postselect(t, X, spoil([3, 4], b)),
        ],
    }


def test_walk_covers_every_export():
    names = {name for name in calls() if "." not in name}
    assert names | NO_CODES == set(gqudits.__all__)
    assert not names & NO_CODES


@pytest.mark.parametrize("bad", BAD, ids=str)
@pytest.mark.parametrize("name", sorted(calls()))
def test_bad_codes_raise(name, bad):
    for call in calls()[name]:
        with pytest.raises(GquditError):
            call(bad)


def test_valid_calls_pass():
    """Each walked call succeeds with its codes intact, so a refusal above
    is the bad code's."""
    for group in calls().values():
        for call in group:
            call(None)
