"""Every public entry point refuses a code, bit or integer argument that is
not one.

GF.check_codes is the one rule for code and bit input: a float, complex,
string, object or ragged input, or an int outside int64, raises
InvalidFieldCode before numpy would truncate or parse it; the scalar GF
ops refuse the same kinds, arrays included.  The first walk below spoils one
code argument of each entry point at a time with each bad kind, in an
otherwise valid call, and requires a GquditError.

field.check_int is the one rule for every other integer argument (a size,
count, site, row, level, degree, budget, cap or sign): any integer that
operator.index reads, but not a bool, within the argument's range.  The
second walk spoils each such argument with 1.5, "3", None, True,
np.float64(2.0) and values out of its range, and requires a GquditError;
numpy integers must give the same objects, to_json text included, as
Python ints.
"""

import json
import sys
from dataclasses import fields, is_dataclass
from functools import lru_cache

import numpy as np
import pytest

import gqudits
from gqudits import css, gates, grs, linalg, oracle, q2b, tableau
from gqudits.cli import main
from gqudits.errors import GquditError, InvalidArgument
from gqudits.field import check_int, make_field
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


# -- the second walk: integer arguments that are not codes -------------------------

BAD_INTS = [1.5, "3", None, True, np.float64(2.0), "out of range"]

# the gqudits.__all__ entries with no integer argument but codes and bits;
# CodeParams and HierarchyReport are records that only the package fills
NO_INTEGERS = {
    "dual_basis", "find_self_dual", "polynomial_basis",
    "CodeParams", "dual_space", "logical_spaces",
    "HierarchyReport", "pauli_decompose", "phi_map", "pi_map",
    "decode", "dual", "encode", "generator_matrix", "min_weight_codeword",
    "NOT_EIGENSTATE", "measure_projective", "pauli_matrix", "stabiliser_state",
    "syndrome_component",
    "convert_code", "convert_logicals", "end_to_end_decode", "expand_dual", "expand_vector",
    "export_alist", "make_plan", "reconstruct_syndrome",
    "canonical_form", "measure", "run_cat_gadget",
}

# (entry point, index of its call) whose integer argument defaults to None:
# make_field's s beside a modulus, QubitCssCode.params's budget
NONE_IS_DEFAULT = {("make_field", 2), ("QubitCssCode", 0)}


@lru_cache(maxsize=None)
def int_calls():
    """{entry point: [(call, good, out of range values)]} over F_8, where
    call(x) is a valid call with x as one integer argument when x is good."""
    gf = make_field(3)
    t = tableau.new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], [5])
    t3 = tableau.new_tableau(gf, 3, [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]], [3], [5, 6])
    X = PauliWord.x_word(gf, [0, 1])
    qrs = grs.make_qrs(gf, 8, 2, 5)
    basis = gqudits.find_self_dual(gf)
    code = gqudits.CssCode(gf, 2, [[1, 1]], [])
    plan = q2b.convert_code(code)
    U = gqudits.build_gate(gf, "x", beta=1)

    def rng():
        return np.random.default_rng(0)

    def assignment(a):
        return (*a.bases, a.n)

    return {
        "canonical_modulus": [(lambda s: gqudits.canonical_modulus(s), 3, (0, 32))],
        "make_field": [
            (lambda s: make_field(s), 3, (0, 32)),
            (lambda m: make_field(modulus=m), 11, (0, -11)),
            (lambda s: make_field(s, modulus=11), 3, (0, 4)),
        ],
        "GF": [(lambda m: gqudits.GF(m), 11, (0, 1, -11, 1 << 40))],
        "is_irreducible": [(lambda p: gqudits.is_irreducible(p), 11, (0, 1, -11))],
        "build_gate": [
            (lambda l: gqudits.build_gate(gf, "multi_cz", l=l, gamma=1), 2, (1, 0, 8)),
            (lambda n: gqudits.build_gate(gf, "u_n", n=n, beta=1), 3, (0, -1)),
        ],
        "hierarchy_level": [(lambda m: gqudits.hierarchy_level(U, m), 2, (0, -1))],
        "CssTableau": [
            (lambda n: tableau.CssTableau(gf, n, t.x, t.z), 2, (-1,)),
            (lambda i: t.block("x", i), 0, (1, -1)),
        ],
        "new_tableau": [(lambda n: tableau.new_tableau(gf, n, [[1, 0]], [[0, 1]], [3], [5]), 2, (-1, 3))],
        "scale_row": [(lambda j: tableau.scale_row(t, "x", j, 3), 0, (1, -1))],
        "add_row": [
            (lambda i: tableau.add_row(t3, "z", i, 1), 0, (2, -1)),
            (lambda j: tableau.add_row(t3, "z", 0, j), 1, (2, -1)),
        ],
        "apply_gate": [
            (lambda i: tableau.apply_gate(t, "cnot", 0, i), 1, (2, -1)),
            (lambda i: tableau.apply_gate(t, "mult", i, delta=3), 0, (2, -1)),
        ],
        "GrsCode": [(lambda k: grs.GrsCode(gf, k, [0, 1, 2, 3], [1, 1, 1, 1]), 2, (-1, 5))],
        "mds_weight_count": [
            (lambda n: grs.mds_weight_count(n, 3, 8, 6), 8, (-1, 2)),
            (lambda k: grs.mds_weight_count(8, k, 8, 6), 3, (-1, 9)),
            (lambda q: grs.mds_weight_count(8, 3, q, 6), 8, (1, 0)),
            (lambda w: grs.mds_weight_count(8, 3, 8, w), 6, (5, 9)),
        ],
        "make_qrs": [
            (lambda n: grs.make_qrs(gf, n, 2, 5), 8, (-1, 4)),
            (lambda k1: grs.make_qrs(gf, 8, k1, 5), 2, (-1, 6)),
            (lambda k2: grs.make_qrs(gf, 8, 2, k2), 5, (1, 9, -5)),
        ],
        "QrsCode": [
            (lambda k1: grs.QrsCode(gf, k1, 5, qrs.alpha, qrs.v, qrs.u, qrs.css), 2, (-1, 6)),
            (lambda k2: grs.QrsCode(gf, 2, k2, qrs.alpha, qrs.v, qrs.u, qrs.css), 5, (1, 9)),
        ],
        "CssCode": [(lambda n: gqudits.CssCode(gf, n, [[1, 1]], []), 2, (-1, 3))],
        "new_css": [(lambda n: gqudits.new_css(gf, n, [[1, 1]], []), 2, (-1, 3))],
        "params": [(lambda b: gqudits.params(code, b), 200, (-1,))],
        "QubitCssCode": [(lambda b: plan.params(b), 200, (-1,))],
        "StateVector": [(lambda n: oracle.StateVector(gf, n, np.ones(64)), 2, (-1, 3))],
        "DenseOperator": [(lambda n: oracle.DenseOperator(gf, n, np.eye(8)), 1, (-1, 2))],
        "BasisAssignment": [
            (lambda n: assignment(gqudits.BasisAssignment.uniform(basis, n)), 8, (0, -1)),
        ],
        "FieldBasis": [(lambda i: basis.component_by_trace(5, i), 1, (3, -1))],
        "PauliWord": [
            (lambda n: PauliWord.identity(gf, n), 2, (-1,)),
            (lambda sign: PauliWord.x_word(gf, [1, 2], sign=sign), -1, (0, 2, -2)),
            (lambda sign: PauliWord(gf, (1, 2), (0, 3), sign), -1, (0, 2)),
        ],
        # module-level entry points outside __all__ that take integer arguments
        "css.check_blocks": [(lambda n: css.check_blocks(gf, n, [[1, 1]], [])[:2], 2, (-1, 3))],
        "gates.embed_single": [
            (lambda n: gates.embed_single(gf, n, 0, U), 2, (0, -1, 6)),
            (lambda site: gates.embed_single(gf, 2, site, U), 1, (2, -1)),
        ],
        "linalg.random_matrix": [
            (lambda m: linalg.random_matrix(gf, rng(), m, 3), 2, (-1,)),
            (lambda n: linalg.random_matrix(gf, rng(), 2, n), 3, (-1,)),
        ],
        "linalg.random_full_rank": [
            (lambda m: linalg.random_full_rank(gf, rng(), m, 3), 2, (4, -1)),
            (lambda n: linalg.random_full_rank(gf, rng(), 2, n), 3, (1, -1)),
        ],
        "linalg.random_invertible": [(lambda m: linalg.random_invertible(gf, rng(), m), 2, (-1,))],
        "q2b.default_assignment": [(lambda n: assignment(q2b.default_assignment(gf, n)), 8, (0, -1))],
        "tableau.sample": [(lambda shots: tableau.sample(t, X, rng(), shots), 3, (-1,))],
    }


def test_integer_walk_covers_every_export():
    names = {name for name in int_calls() if "." not in name}
    assert names | NO_INTEGERS == set(gqudits.__all__)
    assert not names & NO_INTEGERS


@pytest.mark.parametrize("bad", BAD_INTS, ids=str)
@pytest.mark.parametrize("name", sorted(int_calls()))
def test_bad_integers_raise(name, bad):
    for i, (call, _, out_of_range) in enumerate(int_calls()[name]):
        if bad is None and (name, i) in NONE_IS_DEFAULT:
            continue
        for value in out_of_range if isinstance(bad, str) and bad == "out of range" else [bad]:
            with pytest.raises(GquditError):
                call(value)


def assert_same(got, want):
    """got is want: the same type and value, arrays by dtype and entries,
    dataclasses field by field (so an int field is a Python int) and their
    to_json as the same text."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        return
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
        return
    assert got == want
    if is_dataclass(want):
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    if hasattr(want, "to_json"):
        assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(int_calls()))
def test_numpy_integers_match_python_ints(name):
    """Each walked call succeeds with its good Python int, so a refusal above
    is the bad value's, and gives the same object for np.int64, np.int32
    and np.uint8 (for a non-negative value)."""
    for call, good, _ in int_calls()[name]:
        want = call(good)
        for kind in (np.int64, np.int32, np.uint8):
            if good >= 0 or kind is not np.uint8:
                assert_same(call(kind(good)), want)


def test_sign_is_read_as_an_integer():
    """A sign was compared with (1, -1), so True and 1.0 were read as +1."""
    gf = make_field(3)
    for sign in (True, 1.0, np.bool_(True), -1.0, 0):
        with pytest.raises(InvalidArgument):
            PauliWord.x_word(gf, [1], sign=sign)
    assert type(PauliWord.x_word(gf, [1], sign=np.int64(-1)).sign) is int


def test_no_raw_value_error_at_a_boundary():
    """Names, word text, field arguments, matrix shapes and zero-probability
    outcomes raise InvalidArgument, a GquditError and a ValueError."""
    gf = make_field(3)
    t = tableau.new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], [5])
    psi = oracle.stabiliser_state(t)
    qrs = grs.make_qrs(gf, 8, 2, 5)
    assignment = q2b.default_assignment(gf, 8)
    plan = q2b.make_plan(qrs.css, assignment)
    calls = [
        lambda: q2b.end_to_end_decode(qrs, assignment, plan, [0] * plan.ns, "Y"),
        lambda: tableau.apply_gate(t, "swap", 0, 1),
        lambda: t.block("y"),
        lambda: PauliWord.from_text(gf, "x:[1]"),
        lambda: make_field(),
        lambda: make_field(3, modulus=0b10011),
        lambda: linalg.as_matrix(np.zeros((2, 2, 2))),
        lambda: oracle.born_probabilities(oracle.StateVector(gf, 2, np.zeros(64)), PauliWord.x_word(gf, [1, 0])),
        lambda: oracle.collapse(psi, PauliWord.x_word(gf, [1, 0]), 4),  # the outcome is 3
    ]
    for call in calls:
        with pytest.raises(InvalidArgument):
            call()
    assert issubclass(InvalidArgument, GquditError) and issubclass(InvalidArgument, ValueError)


def test_tableau_gate_takes_its_number_of_sites():
    """apply_gate unpacked its sites, so a wrong count raised a bare ValueError."""
    gf = make_field(3)
    t = tableau.new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], [5])
    for kind, sites in (("hadamard", (0, 1)), ("cnot", (0,)), ("mult", ())):
        with pytest.raises(GquditError):
            tableau.apply_gate(t, kind, *sites, delta=3)


@pytest.mark.parametrize(
    "argv,named",
    [
        (["field", "info", "--q", "0"], "q = 0"),
        (["field", "info", "--q", "1"], "q = 1"),
        (["code", "qrs", "--q", "8", "--n", "-1", "--k1", "0", "--k2", "0"], "n = -1"),
        (["code", "qrs", "--q", "8", "--n", "8", "--k1", "2", "--k2", "-5"], "k2 = -5"),
        (["code", "qrs", "--q", "8", "--n", "8", "--k1", "-1", "--k2", "5"], "k1 = -1"),
    ],
)
def test_cli_names_the_bad_integer(capsys, argv, named):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err


def test_a_decode_shot_reads_no_integer_argument(monkeypatch):
    """check_int stays off the hot path: a decode shot, from qubit bits to
    the qubit error, makes no call once its plan is built."""
    gf = make_field(6)
    qrs = grs.make_qrs(gf, 64, 16, 48)
    assignment = q2b.default_assignment(gf, 64)
    plan = q2b.make_plan(qrs.css, assignment)
    bits = np.zeros(plan.ns, dtype=np.int64)
    bits[[5, 77, 300]] = 1
    want = [q2b.end_to_end_decode(qrs, assignment, plan, bits, kind) for kind in "ZX"]  # builds the caches
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return check_int(*args, **kw)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("gqudits") and hasattr(module, "check_int"):
            monkeypatch.setattr(module, "check_int", counting)
    for kind, error in zip("ZX", want):
        assert np.array_equal(q2b.end_to_end_decode(qrs, assignment, plan, bits, kind), error)
    assert calls == []
