"""Tableau validation, row operations, Clifford updates, and measurement,
cross-checked against the dense oracle."""

import numpy as np
import pytest

from gqudits import linalg, oracle
from gqudits.errors import (
    DimensionMismatch,
    FullTableauRequired,
    GquditError,
    InvalidDocument,
    InvalidFieldCode,
    InvalidScale,
    NotCommuting,
    NotCssPreserving,
    PureTypeRequired,
    RankDeficient,
)
from gqudits.field import make_field
from gqudits.gates import build_gate, embed_single
from gqudits.pauli import PauliWord
from gqudits.tableau import (
    CssTableau,
    add_row,
    apply_gate,
    canonical_form,
    cat_block_tableau,
    deterministic_outcome,
    measure,
    measure_postselect,
    new_tableau,
    run_cat_gadget,
    sample,
    scale_row,
)


def tableaux_equal(a, b):
    """Same field, size, canonical rows and canonical syndromes."""
    ca, cb = canonical_form(a), canonical_form(b)
    return (
        ca.gf == cb.gf
        and ca.n == cb.n
        and np.array_equal(ca.xrows, cb.xrows)
        and np.array_equal(ca.zrows, cb.zrows)
        and np.array_equal(ca.xsyn, cb.xsyn)
        and np.array_equal(ca.zsyn, cb.zsyn)
    )


def random_full_tableau(gf, n, rng, m_x=None):
    if m_x is None:
        m_x = int(rng.integers(0, n + 1))
    m_z = n - m_x
    gx = linalg.random_full_rank(gf, rng, m_x, n) if m_x else np.zeros((0, n), dtype=np.int64)
    if m_z:
        K = linalg.kernel_basis(gf, gx)
        gz = gf.matmul(linalg.random_invertible(gf, rng, m_z), K)
    else:
        gz = np.zeros((0, n), dtype=np.int64)
    return new_tableau(
        gf, n, gx, gz,
        rng.integers(0, gf.q, m_x, dtype=np.int64),
        rng.integers(0, gf.q, m_z, dtype=np.int64),
    )


def random_pure_word(gf, n, rng):
    while True:
        codes = rng.integers(0, gf.q, n, dtype=np.int64)
        if codes.any():
            break
    return PauliWord.x_word(gf, codes) if rng.integers(2) else PauliWord.z_word(gf, codes)


def scramble(t, rng, ops=8):
    out = t
    for _ in range(ops):
        block = "x" if rng.integers(2) else "z"
        rows = out.xrows if block == "x" else out.zrows
        m = rows.shape[0]
        if m == 0:
            continue
        if m >= 2 and rng.integers(2):
            i, j = rng.choice(m, size=2, replace=False)
            out = add_row(out, block, int(i), int(j))
        else:
            out = scale_row(out, block, int(rng.integers(m)), int(rng.integers(1, t.gf.q)))
    return out


class TestValidation:
    def test_qudit_cat_rows_valid(self):
        gf = make_field(3)
        g = [3, 5, 6, 7]
        t = new_tableau(
            gf, 4,
            [g],
            [[g[1], g[0], 0, 0], [0, g[2], g[1], 0], [0, 0, g[3], g[2]]],
            [0], [0, 0, 0],
        )
        assert t.is_full

    def test_duplicate_row_rejected(self):
        gf = make_field(2)
        with pytest.raises(RankDeficient):
            new_tableau(gf, 2, [[1, 1], [1, 1]], np.zeros((0, 2)), [0, 0], [])

    def test_non_orthogonal_rejected(self):
        gf = make_field(2)
        with pytest.raises(NotCommuting):
            new_tableau(gf, 2, [[1, 0]], [[1, 0]], [0], [0])

    def test_json_round_trip(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 2]], [[2, 1]], [3], [1])
        t2 = CssTableau.from_json(t.to_json())
        assert tableaux_equal(t, t2)

    @pytest.mark.parametrize("xsyn,zsyn", [([4], [0]), ([0], [-1]), ([1 << 40], [0])])
    def test_syndromes_outside_field_rejected(self, xsyn, zsyn):
        gf = make_field(2)
        with pytest.raises(InvalidFieldCode):
            new_tableau(gf, 2, [[1, 2]], [[2, 1]], xsyn, zsyn)

    @pytest.mark.parametrize("eta", [-1, 8, 99])
    def test_cat_eta_outside_field_rejected(self, eta):
        with pytest.raises(InvalidFieldCode):
            cat_block_tableau(make_field(3), [1, 2, 3, 4], eta)

    @pytest.mark.parametrize("key", ["modulus", "xrows", "zrows", "xsyn", "zsyn"])
    def test_json_missing_key_named(self, key):
        data = new_tableau(make_field(2), 2, [[1, 2]], [[2, 1]], [3], [1]).to_json()
        del data[key]
        with pytest.raises(InvalidDocument, match=f"missing key '{key}'") as exc:
            CssTableau.from_json(data)
        assert isinstance(exc.value, GquditError) and isinstance(exc.value, ValueError)

    def test_json_not_an_object(self):
        with pytest.raises(InvalidDocument):
            CssTableau.from_json([1, 2])


def walkthrough_tableaux(gf, gammas, etas, eta):
    """The four displayed forms of the measurement walkthrough, as X blocks."""
    g1, g2, g3, g4 = gammas
    e1, e2, e3 = etas
    zeros = [0, 0, 0, 0]

    def unit_pair(j):
        row = [0] * 8
        row[j] = 1
        row[j + 4] = 1
        return row

    first = (
        [[g1, g2, g3, g4] + zeros, unit_pair(0), unit_pair(1), unit_pair(2), zeros + [g1, g2, g3, g4]],
        [0, e1, e2, e3, eta],
    )
    scaled_pairs = []
    for j, g in enumerate((g1, g2, g3)):
        row = [0] * 8
        row[j] = g
        row[j + 4] = g
        scaled_pairs.append(row)
    second = (
        [[g1, g2, g3, g4] + zeros] + scaled_pairs + [zeros + [g1, g2, g3, g4]],
        [0, gf.mul(g1, e1), gf.mul(g2, e2), gf.mul(g3, e3), eta],
    )
    acc = eta
    for g, e in zip((g1, g2, g3), (e1, e2, e3)):
        acc ^= gf.mul(g, e)
    top3 = [0, 0, 0, g4, 0, 0, 0, g4]
    third = ([top3] + scaled_pairs + [zeros + [g1, g2, g3, g4]], [acc] + second[1][1:4] + [eta])
    top4 = [0, 0, 0, 1, 0, 0, 0, 1]
    fourth = (
        [top4] + scaled_pairs + [zeros + [g1, g2, g3, g4]],
        [gf.mul(gf.inv(g4), acc)] + second[1][1:4] + [eta],
    )
    return first, second, third, fourth


class TestRowOperations:
    def test_scale_by_one_is_identity(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [2], [3])
        assert tableaux_equal(t, scale_row(t, "x", 0, 1))

    def test_scale_by_zero_rejected(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [0], [0])
        with pytest.raises(InvalidScale):
            scale_row(t, "x", 0, 0)

    def test_row_indices_checked(self):
        """Negative indices, which would alias a row from the end, and
        indices past the block are refused, not applied."""
        gf = make_field(2)
        t = new_tableau(gf, 3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], [2, 3], [1])
        for i, j in ((0, -2), (-1, 0), (0, 2), (5, 1)):
            with pytest.raises(DimensionMismatch):
                add_row(t, "x", i, j)
        for j in (-1, -2, 2):
            with pytest.raises(DimensionMismatch):
                scale_row(t, "x", j, 3)
        with pytest.raises(DimensionMismatch):
            scale_row(t, "z", 1, 3)
        with pytest.raises(InvalidScale):
            add_row(t, "x", 1, 1)

    def test_walkthrough_row_rewrites(self):
        """Scaling rows 2-4 by gamma_i, folding them plus the code row into
        row 1, then normalising row 1 reproduces the displayed sequence."""
        gf = make_field(3)
        gammas = (2, 7, 3, 5)
        etas = (4, 1, 6)
        eta = 3
        first, second, third, fourth = walkthrough_tableaux(gf, gammas, etas, eta)
        t = CssTableau(
            gf, 8, np.column_stack([first[0], first[1]]), np.zeros((0, 9), dtype=np.int64)
        )
        for j, g in enumerate(gammas[:3], start=1):
            t = scale_row(t, "x", j, g)
        assert np.array_equal(t.xrows, np.array(second[0]))
        assert np.array_equal(t.xsyn, np.array(second[1]))
        for j in (1, 2, 3, 4):
            t = add_row(t, "x", j, 0)
        assert np.array_equal(t.xrows, np.array(third[0]))
        assert np.array_equal(t.xsyn, np.array(third[1]))
        t = scale_row(t, "x", 0, gf.inv(gammas[3]))
        assert np.array_equal(t.xrows, np.array(fourth[0]))
        assert np.array_equal(t.xsyn, np.array(fourth[1]))

    def test_walkthrough_forms_share_canonical_form(self):
        gf = make_field(3)
        forms = walkthrough_tableaux(gf, (2, 7, 3, 5), (4, 1, 6), 3)
        canon = []
        for rows, syn in forms:
            t = CssTableau(gf, 8, np.column_stack([rows, syn]), np.zeros((0, 9), dtype=np.int64))
            canon.append(canonical_form(t))
        for c in canon[1:]:
            assert np.array_equal(c.xrows, canon[0].xrows)
            assert np.array_equal(c.xsyn, canon[0].xsyn)


class TestCanonicalForm:
    def test_idempotent(self):
        gf = make_field(2)
        rng = np.random.default_rng(43)
        for _ in range(20):
            t = random_full_tableau(gf, 3, rng)
            c = canonical_form(t)
            assert tableaux_equal(c, canonical_form(c))

    def test_scrambles_share_canonical_form(self):
        gf = make_field(2)
        rng = np.random.default_rng(47)
        for _ in range(100):
            t = random_full_tableau(gf, 3, rng)
            assert tableaux_equal(t, scramble(t, rng))

    def test_state_equality_soundness(self):
        """Canonical forms match iff the oracle states agree up to phase."""
        rng = np.random.default_rng(53)
        same = diff = 0
        for _ in range(200):
            gf = make_field(int(rng.integers(1, 3)))
            n = int(rng.integers(1, 4))
            t1 = random_full_tableau(gf, n, rng)
            t2 = scramble(t1, rng) if rng.integers(2) else random_full_tableau(gf, n, rng)
            equal_canon = tableaux_equal(t1, t2)
            equal_state = oracle.states_equal_up_to_phase(
                oracle.stabiliser_state(t1), oracle.stabiliser_state(t2)
            )
            assert equal_canon == equal_state
            same += equal_canon
            diff += not equal_canon
        assert same > 20 and diff > 20  # both branches genuinely exercised


class TestApplyGate:
    def test_mult_by_one_is_identity(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [0], [0])
        assert tableaux_equal(t, apply_gate(t, "mult", 0, delta=1))

    def test_qubit_cnot_rule(self):
        gf = make_field(1)
        t = new_tableau(gf, 2, [[1, 0]], [[0, 1]], [0], [0])
        t2 = apply_gate(t, "cnot", 0, 1)
        assert np.array_equal(t2.xrows, [[1, 1]])
        assert np.array_equal(t2.zrows, [[1, 1]])

    @pytest.mark.parametrize("kind,sites,extra", [
        ("cnot", (0, 1), {}),
        ("mult", (0,), {"delta": 2}),
        ("mult", (1,), {"delta": 3}),
    ])
    def test_update_matches_oracle_conjugation(self, kind, sites, extra):
        gf = make_field(2)
        rng = np.random.default_rng(59)
        if kind == "cnot":
            gate = build_gate(gf, "cnot")
        else:
            gate = embed_single(gf, 2, sites[0], build_gate(gf, "mult", **extra))
        for _ in range(100):
            t = random_full_tableau(gf, 2, rng)
            t2 = apply_gate(t, kind, *sites, **extra)
            lhs = oracle.stabiliser_state(t2)
            rhs = oracle.StateVector(gf, 2, gate.mat @ oracle.stabiliser_state(t).amps)
            assert oracle.states_equal_up_to_phase(lhs, rhs)

    def test_hadamard_legal_case_matches_oracle(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[2, 0]], [[0, 3]], [1], [2])
        t2 = apply_gate(t, "hadamard", 0)
        assert t2.m_x == 0 and t2.m_z == 2  # the site-0 X row switched blocks
        gate = embed_single(gf, 2, 0, build_gate(gf, "hadamard"))
        lhs = oracle.stabiliser_state(t2)
        rhs = oracle.StateVector(gf, 2, gate.mat @ oracle.stabiliser_state(t).amps)
        assert oracle.states_equal_up_to_phase(lhs, rhs)

    def test_delta_checked(self):
        # with no Z rows only the code check rejects -1, which the table multiply reads as q - 1
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 0], [0, 1]], np.zeros((0, 2), dtype=np.int64), [0, 0], [])
        for delta in (-1, gf.q):
            with pytest.raises(InvalidFieldCode):
                apply_gate(t, "mult", 0, delta=delta)

    def test_sites_checked(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 0]], [[0, 1]], [0], [0])
        for kind, sites, extra in (("cnot", (0, 5), {}), ("cnot", (-1, 0), {}),
                                   ("hadamard", (-1,), {}), ("hadamard", (2,), {}),
                                   ("mult", (2,), {"delta": 1})):
            with pytest.raises(DimensionMismatch):
                apply_gate(t, kind, *sites, **extra)

    def test_hadamard_mixing_rejected(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [0], [0])
        with pytest.raises(NotCssPreserving):
            apply_gate(t, "hadamard", 0)


class TestMeasure:
    def test_existing_row_is_deterministic(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 2]], [[1, 3]], [2], [1])
        eta, t2 = measure(t, PauliWord.x_word(gf, [1, 2]), np.random.default_rng(0))
        assert eta == 2 and t2 is t
        # a scalar multiple of the row scales the outcome
        eta, _ = measure(t, PauliWord.x_word(gf, [gf.mul(3, 1), gf.mul(3, 2)]), np.random.default_rng(0))
        assert eta == gf.mul(3, 2)

    def test_measure_requires_full_tableau(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], np.zeros((0, 2)), [0], [])
        with pytest.raises(FullTableauRequired):
            measure(t, PauliWord.x_word(gf, [1, 0]), np.random.default_rng(0))

    def test_measure_requires_pure_type(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [0], [0])
        with pytest.raises(PureTypeRequired):
            measure(t, PauliWord.from_vectors(gf, [1, 0], [0, 1]), np.random.default_rng(0))

    def test_random_branch_preserves_structure(self):
        gf = make_field(2)
        rng = np.random.default_rng(61)
        for _ in range(50):
            t = random_full_tableau(gf, 3, rng)
            P = random_pure_word(gf, 3, rng)
            eta, t2 = measure(t, P, rng)
            assert t2.is_full
            # rank and orthogonality are revalidated by construction inside
            # measure; a deliberate recheck:
            assert linalg.rank(gf, t2.xrows) == t2.m_x
            assert linalg.rank(gf, t2.zrows) == t2.m_z
            if t2.m_x and t2.m_z:
                assert not np.any(gf.matmul(t2.xrows, t2.zrows.T))
            # measuring the same word again is now deterministic with the
            # same outcome
            eta2, t3 = measure(t2, P, rng)
            assert eta2 == eta and t3 is t2

    def test_agreement_with_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            gf = make_field(int(rng.integers(1, 3)))
            n = int(rng.integers(1, 4))
            t = random_full_tableau(gf, n, rng)
            P = random_pure_word(gf, n, rng)
            psi = oracle.stabiliser_state(t)
            det = deterministic_outcome(t, P)
            if det is not None:
                assert oracle.syndrome_component(psi, P) == det
            else:
                assert np.allclose(oracle.born_probabilities(psi, P), 1 / gf.q, atol=1e-8)
                for eta in gf.elements():
                    t2 = measure_postselect(t, P, eta)
                    assert oracle.states_equal_up_to_phase(
                        oracle.stabiliser_state(t2), oracle.collapse(psi, P, eta)
                    )


class TestSample:
    """sample is measure's draw rule, shots at a time."""

    @staticmethod
    def case(gf, rng, random_branch):
        while True:
            t = random_full_tableau(gf, 3, rng)
            P = random_pure_word(gf, 3, rng)
            if (deterministic_outcome(t, P) is None) == random_branch:
                return t, P

    @pytest.mark.parametrize("s", [1, 2, 3, 6])
    def test_random_branch_is_scalar_measures(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(101 + s)
        for shots in (1, 2, 25):
            t, P = self.case(gf, rng, True)
            scalar, batch = np.random.default_rng(shots), np.random.default_rng(shots)
            expected = [measure(t, P, scalar)[0] for _ in range(shots)]
            got = sample(t, P, batch, shots)
            assert got.dtype == np.int64 and got.shape == (shots,)
            assert got.tolist() == expected
            assert batch.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_deterministic_branch_draws_nothing(self, s):
        gf = make_field(s)
        t, P = self.case(gf, np.random.default_rng(107 + s), False)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        got = sample(t, P, rng, 7)
        assert got.dtype == np.int64
        assert got.tolist() == [deterministic_outcome(t, P)] * 7
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_measure_is_outcome_sample_and_postselect(self, s):
        """measure gives the outcome, tableau and generator state of its
        public steps: deterministic_outcome, else sample then postselect."""
        gf = make_field(s)
        rng = np.random.default_rng(113 + s)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            t, P = random_full_tableau(gf, n, rng), random_pure_word(gf, n, rng)
            seed = int(rng.integers(1 << 30))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            eta, got = measure(t, P, got_rng)
            want = deterministic_outcome(t, P)
            if want is None:
                want = int(sample(t, P, want_rng, 1)[0])
                t = measure_postselect(t, P, want)
            assert eta == want
            assert np.array_equal(got.x, t.x) and np.array_equal(got.z, t.z)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("random_branch", [True, False])
    def test_zero_shots(self, random_branch):
        gf = make_field(2)
        t, P = self.case(gf, np.random.default_rng(109), random_branch)
        got = sample(t, P, np.random.default_rng(0), 0)
        assert got.shape == (0,) and got.dtype == np.int64


# -- elimination references for measurement by orthogonality -----------------


def measured_block(P):
    """The same-type block a pure-type word is measured in, and its vector."""
    if any(P.xvec):
        return "x", P.x_array
    if any(P.zvec):
        return "z", P.z_array
    return "x", P.x_array


def coefficient_outcome(t, P):
    """Solve c . rows = w over the same-type rows; the outcome is c . syn."""
    block, w = measured_block(P)
    rows, syn = (t.xrows, t.xsyn) if block == "x" else (t.zrows, t.zsyn)
    c = linalg.solve(t.gf, rows.T, w)
    return None if c is None else t.gf.matmul(c, syn)


def loop_postselect(t, P, eta):
    """Eliminate the pivot from one opposite row at a time, then validate."""
    gf = t.gf
    block, w = measured_block(P)
    if block == "x":
        same, same_syn, orows, osyn = t.xrows, t.xsyn, t.zrows.copy(), t.zsyn.copy()
    else:
        same, same_syn, orows, osyn = t.zrows, t.zsyn, t.xrows.copy(), t.xsyn.copy()
    dots = gf.matmul(orows, w)
    pivot = int(np.nonzero(dots)[0][0])
    for k in range(orows.shape[0]):
        if k != pivot and dots[k]:
            f = gf.div(int(dots[k]), int(dots[pivot]))
            orows[k] ^= gf.mul_arr(orows[pivot], f)
            osyn[k] ^= gf.mul(int(osyn[pivot]), f)
    keep = np.arange(orows.shape[0]) != pivot
    same = np.vstack([same, w[None, :]])
    same_syn = np.concatenate([same_syn, [eta]])
    if block == "x":
        return new_tableau(gf, t.n, same, orows[keep], same_syn, osyn[keep])
    return new_tableau(gf, t.n, orows[keep], same, osyn[keep], same_syn)


def assert_full_and_valid(t):
    gf = t.gf
    assert t.is_full
    assert linalg.rank(gf, t.xrows) == t.m_x
    assert linalg.rank(gf, t.zrows) == t.m_z
    assert not np.any(gf.matmul(t.xrows, t.zrows.T))
    assert t.xrows.dtype == t.zrows.dtype == t.xsyn.dtype == t.zsyn.dtype == np.int64


def assert_same_tableau(a, b):
    """Bit-for-bit: the same rows and syndromes in the same order."""
    for name in ("xrows", "zrows", "xsyn", "zsyn"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def sparse_pure_word(gf, n, rng):
    """A pure-type word, often of low weight and sometimes the identity."""
    codes = rng.integers(0, gf.q, n, dtype=np.int64)
    codes[rng.random(n) < rng.random()] = 0
    return PauliWord.x_word(gf, codes) if rng.integers(2) else PauliWord.z_word(gf, codes)


def cases(rng, count):
    """(gf, tableau) at q in {2, 4, 8}, n <= 4, every split m_x + m_z = n."""
    for _ in range(count):
        for s in (1, 2, 3):
            gf = make_field(s)
            n = int(rng.integers(1, 5))
            for m_x in range(n + 1):
                yield gf, random_full_tableau(gf, n, rng, m_x)


ORACLE_DIM = 512  # dense projectors up to 512 x 512


def cnot_state(psi, i, j):
    """|.., x_i, .., x_j, ..> -> |.., x_i, .., x_j + x_i, ..> on a state vector."""
    gf, n = psi.gf, psi.n
    digits = oracle.all_digits(gf, n)
    moved = digits.copy()
    moved[:, j] ^= moved[:, i]
    shifts = gf.s * (n - 1 - np.arange(n))
    amps = np.zeros_like(psi.amps)
    amps[(moved << shifts).sum(axis=1)] = psi.amps
    return oracle.StateVector(gf, n, amps)


class TestOrthogonalityRule:
    """Measurement by orthogonality against the elimination references."""

    def test_outcome_matches_coefficient_path(self):
        rng = np.random.default_rng(83)
        det = rand = 0
        for gf, t in cases(rng, 8):
            n = t.n
            words = [sparse_pure_word(gf, n, rng) for _ in range(4)]
            words += [PauliWord.x_word(gf, [0] * n), PauliWord.z_word(gf, [0] * n)]
            for P in words:
                got = deterministic_outcome(t, P)
                assert got == coefficient_outcome(t, P)
                det += got is not None
                rand += got is None
        assert det > 100 and rand > 100

    def test_identity_word_is_deterministic_zero(self):
        rng = np.random.default_rng(89)
        for gf, t in cases(rng, 2):
            for P in (PauliWord.x_word(gf, [0] * t.n), PauliWord.z_word(gf, [0] * t.n)):
                assert deterministic_outcome(t, P) == 0
                with pytest.raises(InvalidScale):
                    measure_postselect(t, P, 0)

    def test_postselect_matches_elimination_loop(self):
        rng = np.random.default_rng(97)
        checked = 0
        for gf, t in cases(rng, 6):
            for _ in range(4):
                P = sparse_pure_word(gf, t.n, rng)
                if deterministic_outcome(t, P) is not None:
                    continue
                for eta in (0, 1, gf.q - 1):
                    got = measure_postselect(t, P, eta)
                    assert_same_tableau(got, loop_postselect(t, P, eta))
                    assert_full_and_valid(got)
                    checked += 1
        assert checked > 150

    @pytest.mark.parametrize("eta", [-1, 8])
    def test_postselect_eta_outside_field_rejected(self, eta):
        gf = make_field(3)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [0], [0])
        with pytest.raises(InvalidFieldCode):
            measure_postselect(t, PauliWord.x_word(gf, [1, 0]), eta)

    def test_chained_updates_keep_invariants_and_match_oracle(self):
        """Measurements, hadamard, cnot and mult in random order: every
        result is a valid full tableau, and while q^n <= 512 its state is
        the oracle's collapse or conjugation of the previous state."""
        rng = np.random.default_rng(101)
        kinds = {"measure": 0, "hadamard": 0, "refused": 0, "cnot": 0, "mult": 0}
        for _ in range(12):
            for s in (1, 2, 3):
                gf = make_field(s)
                n = int(rng.integers(1, 5))
                t = random_full_tableau(gf, n, rng)
                dense = gf.q**n <= ORACLE_DIM
                psi = oracle.stabiliser_state(t) if dense else None
                for _ in range(10):
                    kind = str(rng.choice(["measure", "measure", "hadamard", "cnot", "mult"]))
                    if kind == "cnot" and n < 2:
                        kind = "measure"
                    if kind == "measure":
                        P = sparse_pure_word(gf, n, rng)
                        det = deterministic_outcome(t, P)
                        eta, t2 = measure(t, P, rng)
                        if dense:
                            if det is not None:
                                assert t2 is t and oracle.syndrome_component(psi, P) == eta
                            else:
                                psi = oracle.collapse(psi, P, eta)
                    elif kind == "hadamard":
                        i = int(rng.integers(n))
                        try:
                            t2 = apply_gate(t, "hadamard", i)
                        except NotCssPreserving:
                            kinds["refused"] += 1
                            continue
                        if dense:
                            gate = embed_single(gf, n, i, build_gate(gf, "hadamard"))
                            psi = oracle.StateVector(gf, n, gate.mat @ psi.amps)
                    elif kind == "cnot":
                        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
                        t2 = apply_gate(t, "cnot", i, j)
                        if dense:
                            psi = cnot_state(psi, i, j)
                    else:
                        i, delta = int(rng.integers(n)), int(rng.integers(1, gf.q))
                        t2 = apply_gate(t, "mult", i, delta=delta)
                        if dense:
                            gate = embed_single(gf, n, i, build_gate(gf, "mult", delta=delta))
                            psi = oracle.StateVector(gf, n, gate.mat @ psi.amps)
                    kinds[kind] += 1
                    assert_full_and_valid(t2)
                    if dense:
                        assert oracle.states_equal_up_to_phase(oracle.stabiliser_state(t2), psi)
                    t = t2
        assert min(kinds.values()) > 10, kinds

    def test_hadamard_mixing_check_per_row(self):
        """A row touching site i is refused exactly when its weight exceeds 1,
        in either block."""
        gf = make_field(2)
        t = new_tableau(gf, 3, [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]], [2], [1, 3])
        for i in range(3):
            t2 = apply_gate(t, "hadamard", i)
            assert_full_and_valid(t2)
            assert tableaux_equal(apply_gate(t2, "hadamard", i), t)  # H^2 fixes the rows
        mixed = new_tableau(gf, 3, [[1, 1, 0]], [[1, 1, 0], [0, 0, 1]], [0], [0, 0])
        for i, refused in ((0, True), (1, True), (2, False)):
            if refused:
                with pytest.raises(NotCssPreserving):
                    apply_gate(mixed, "hadamard", i)
            else:
                assert_full_and_valid(apply_gate(mixed, "hadamard", i))


class TestCatGadget:
    def test_qubit_trivial_case(self):
        gf = make_field(1)
        res = run_cat_gadget(gf, [1, 1, 1, 1], 0, np.random.default_rng(2))
        assert res.recovered == 0

    def test_q8_recovers_planted_syndrome(self):
        gf = make_field(3)
        rng = np.random.default_rng(71)
        for _ in range(25):
            gammas = [int(g) for g in rng.integers(1, 8, 4)]
            eta = int(rng.integers(0, 8))
            res = run_cat_gadget(gf, gammas, eta, rng)
            assert res.recovered == eta

    def test_zero_gamma_rejected(self):
        with pytest.raises(InvalidScale):
            cat_block_tableau(make_field(3), [1, 0, 1, 1], 0)

    def test_intermediate_matches_displayed_tableau(self):
        """After three XX measurements the X block matches the displayed
        five-row form (same canonical form, syndromes included)."""
        gf = make_field(3)
        gammas = (2, 7, 3, 5)
        eta = 6
        rng = np.random.default_rng(73)
        t = cat_block_tableau(gf, gammas, eta)
        etas = []
        for j in range(3):
            codes = [0] * 8
            codes[j] = 1
            codes[j + 4] = 1
            out, t = measure(t, PauliWord.x_word(gf, codes), rng)
            etas.append(out)
        first, *_ = walkthrough_tableaux(gf, gammas, tuple(etas), eta)
        displayed = CssTableau(
            gf, 8, np.column_stack([first[0], first[1]]), np.zeros((0, 9), dtype=np.int64)
        )
        got = canonical_form(CssTableau(gf, 8, t.x, np.zeros((0, 9), dtype=np.int64)))
        want = canonical_form(displayed)
        assert np.array_equal(got.xrows, want.xrows)
        assert np.array_equal(got.xsyn, want.xsyn)

    def test_fourth_outcome_closed_form(self):
        gf = make_field(3)
        rng = np.random.default_rng(79)
        for _ in range(25):
            gammas = [int(g) for g in rng.integers(1, 8, 4)]
            eta = int(rng.integers(0, 8))
            res = run_cat_gadget(gf, gammas, eta, rng)
            acc = eta
            for g, o in zip(gammas[:3], res.outcomes[:3]):
                acc ^= gf.mul(g, o)
            assert res.outcomes[3] == gf.mul(gf.inv(gammas[3]), acc)


class TestDimensionCut:
    def test_extra_row_cuts_dimension_q_fold(self):
        """Each added syndrome constraint divides the stabilised subspace
        dimension by q (projector-trace check at q=4, n=2)."""
        gf = make_field(2)
        w1 = PauliWord.x_word(gf, [1, 1])
        w2 = PauliWord.z_word(gf, [1, 1])
        p1 = oracle.projectors(w1)[0]
        dim1 = round(np.trace(p1).real)
        assert dim1 == 4  # q^(n-1)
        p12 = p1 @ oracle.projectors(w2)[0]
        assert round(np.trace(p12).real) == 1  # q^(n-2)


# -- one array per block against separate-syndrome reference code -------------------
#
# The ref_* functions keep a tableau as four arrays (xrows, zrows, xsyn, zsyn)
# and update the syndromes apart from the rows.  The tests require the same
# four arrays from the (m, n + 1) block code, and the same amplitudes from
# stabiliser_state.


def parts_of(t):
    return t.xrows.copy(), t.zrows.copy(), t.xsyn.copy(), t.zsyn.copy()


def ref_scale_row(gf, parts, block, j, mu):
    xr, zr, xs, zs = (a.copy() for a in parts)
    rows, syn = (xr, xs) if block == "x" else (zr, zs)
    rows[j] = gf.mul_arr(rows[j], mu)
    syn[j] = gf.mul(int(syn[j]), mu)
    return xr, zr, xs, zs


def ref_add_row(parts, block, i, j):
    xr, zr, xs, zs = (a.copy() for a in parts)
    rows, syn = (xr, xs) if block == "x" else (zr, zs)
    rows[j] ^= rows[i]
    syn[j] ^= syn[i]
    return xr, zr, xs, zs


def ref_canonical_form(gf, parts):
    xr, zr, xs, zs = parts
    rx, sx, _ = linalg.rref_augmented(gf, xr, xs)
    rz, sz, _ = linalg.rref_augmented(gf, zr, zs)
    return rx, rz, sx.reshape(-1), sz.reshape(-1)


def ref_hadamard_legal(parts, i):
    rows = np.vstack(parts[:2])
    return not np.any((rows[:, i] != 0) & (np.count_nonzero(rows, axis=1) > 1))


def ref_apply_gate(gf, parts, kind, *sites, delta=None):
    xr, zr, xs, zs = (a.copy() for a in parts)
    if kind == "hadamard":
        (i,) = sites
        xmove, zmove = xr[:, i] != 0, zr[:, i] != 0
        return (
            np.vstack([xr[~xmove], zr[zmove]]),
            np.vstack([zr[~zmove], xr[xmove]]),
            np.concatenate([xs[~xmove], zs[zmove]]),
            np.concatenate([zs[~zmove], xs[xmove]]),
        )
    if kind == "cnot":
        i, j = sites
        if len(xr):
            xr[:, j] ^= xr[:, i]
        if len(zr):
            zr[:, i] ^= zr[:, j]
    else:
        (i,) = sites
        if len(xr):
            xr[:, i] = gf.mul_arr(xr[:, i], delta)
        if len(zr):
            zr[:, i] = gf.mul_arr(zr[:, i], gf.inv(delta))
    return xr, zr, xs, zs


def ref_measured(gf, parts, P):
    xr, zr, _, _ = parts
    if any(P.zvec):
        return "z", P.z_array, gf.matmul(xr, P.z_array)
    return "x", P.x_array, gf.matmul(zr, P.x_array)


def ref_deterministic_outcome(gf, parts, P):
    block, w, dots = ref_measured(gf, parts, P)
    if np.any(dots):
        return None
    xr, zr, xs, zs = parts
    rows, syn = (xr, xs) if block == "x" else (zr, zs)
    return gf.matmul(w, linalg.solve(gf, rows, syn))


def ref_measure_postselect(gf, parts, P, eta):
    block, w, dots = ref_measured(gf, parts, P)
    xr, zr, xs, zs = parts
    pivot = np.flatnonzero(dots)[0]
    keep = np.arange(dots.size) != pivot
    opp = np.column_stack((zr, zs) if block == "x" else (xr, xs))
    f = gf.mul_arr(dots[keep], gf.inv(int(dots[pivot])))
    opp = opp[keep] ^ gf.mul_arr(f[:, None], opp[pivot])
    rows, syn = (xr, xs) if block == "x" else (zr, zs)
    same_rows, same_syn = np.vstack([rows, w]), np.append(syn, eta)
    if block == "x":
        return same_rows, opp[:, :-1], same_syn, opp[:, -1]
    return opp[:, :-1], same_rows, opp[:, -1], same_syn


def ref_stabiliser_amps(gf, n, parts):
    xr, zr, xs, zs = parts
    x0 = linalg.solve(gf, zr, zs) if len(zr) else np.zeros(n, dtype=np.int64)
    t0 = linalg.solve(gf, xr, xs) if len(xr) else np.zeros(n, dtype=np.int64)
    msgs = oracle.all_digits(gf, len(xr)) if len(xr) else np.zeros((1, 0), dtype=np.int64)
    words = gf.matmul(msgs, xr) if len(xr) else np.zeros((1, n), dtype=np.int64)
    amps = np.zeros(gf.q**n, dtype=np.int64)
    amps[oracle.index_of(gf, words ^ x0)] = 1 - 2 * gf.trace_arr(gf.matmul(words, t0))
    vec = amps.astype(np.complex128)
    return vec / np.linalg.norm(vec)


def assert_parts(t, parts):
    assert t.x.shape == (t.m_x, t.n + 1) and t.z.shape == (t.m_z, t.n + 1)
    assert t.x.dtype == t.z.dtype == np.int64
    for got, want in zip((t.xrows, t.zrows, t.xsyn, t.zsyn), parts):
        assert got.shape == np.shape(want) and np.array_equal(got, want)


class TestOneArrayBlocks:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_updates_match_separate_syndrome_code(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(811 + s)
        branches = {"deterministic": 0, "random": 0, "hadamard": 0}
        for n in range(1, 5):
            for m_x in range(n + 1):  # m_x = 0 and m_z = 0 included
                for _ in range(3):
                    t = random_full_tableau(gf, n, rng, m_x)
                    parts = parts_of(t)
                    assert_parts(t, parts)
                    assert_parts(canonical_form(t), ref_canonical_form(gf, parts))
                    for block, m in (("x", t.m_x), ("z", t.m_z)):
                        if m == 0:
                            continue
                        j, mu = int(rng.integers(m)), int(rng.integers(1, gf.q))
                        want = ref_scale_row(gf, parts, block, j, mu)
                        assert_parts(scale_row(t, block, j, mu), want)
                        if m >= 2:
                            i, j = (int(a) for a in rng.choice(m, size=2, replace=False))
                            assert_parts(add_row(t, block, i, j), ref_add_row(parts, block, i, j))
                    i = int(rng.integers(n))
                    delta = int(rng.integers(1, gf.q))
                    want = ref_apply_gate(gf, parts, "mult", i, delta=delta)
                    assert_parts(apply_gate(t, "mult", i, delta=delta), want)
                    if n >= 2:
                        i, j = (int(a) for a in rng.choice(n, size=2, replace=False))
                        want = ref_apply_gate(gf, parts, "cnot", i, j)
                        assert_parts(apply_gate(t, "cnot", i, j), want)
                    for i in range(n):
                        if ref_hadamard_legal(parts, i):
                            branches["hadamard"] += 1
                            want = ref_apply_gate(gf, parts, "hadamard", i)
                            assert_parts(apply_gate(t, "hadamard", i), want)
                        else:
                            with pytest.raises(NotCssPreserving):
                                apply_gate(t, "hadamard", i)
                    P = random_pure_word(gf, n, rng)
                    det = deterministic_outcome(t, P)
                    assert det == ref_deterministic_outcome(gf, parts, P)
                    if det is None:
                        branches["random"] += 1
                        eta = int(rng.integers(gf.q))
                        want = ref_measure_postselect(gf, parts, P, eta)
                        assert_parts(measure_postselect(t, P, eta), want)
                    else:
                        branches["deterministic"] += 1
                    amps = oracle.stabiliser_state(t).amps
                    assert np.array_equal(amps, ref_stabiliser_amps(gf, n, parts))
        assert all(branches.values()), branches

    def test_row_and_syndrome_fields_are_views_of_the_blocks(self):
        t = random_full_tableau(make_field(2), 3, np.random.default_rng(823), 1)
        for block, rows, syn in ((t.x, t.xrows, t.xsyn), (t.z, t.zrows, t.zsyn)):
            assert np.shares_memory(rows, block) and np.shares_memory(syn, block)

    @pytest.mark.parametrize("block", ["y", "n", "gf", "X", ""])
    def test_unknown_block_name_rejected(self, block):
        t = random_full_tableau(make_field(2), 2, np.random.default_rng(827), 1)
        with pytest.raises(ValueError, match="block must be 'x' or 'z'"):
            scale_row(t, block, 0, 1)
        with pytest.raises(ValueError, match="block must be 'x' or 'z'"):
            add_row(t, block, 0, 1)


class TestJsonFieldSize:
    def test_q_must_match_the_modulus(self):
        data = new_tableau(make_field(3), 1, [[1]], [], [5], []).to_json()
        data["q"] = 4
        with pytest.raises(InvalidDocument, match="'q'"):
            CssTableau.from_json(data)

    def test_document_without_q_loads(self):
        t = new_tableau(make_field(3), 1, [[1]], [], [5], [])
        data = t.to_json()
        del data["q"]
        assert tableaux_equal(CssTableau.from_json(data), t)


# -- the carried solution ----------------------------------------------------------


def assert_carries_solution(t):
    """t carries t0 (not solved on first use), and it solves each block as a
    fresh linalg.solve does: rows . t0 = rows . solve = syndromes.  A
    particular solution is unique only modulo the kernel of the rows, which
    on a full tableau is the other block's span, so w . t0 is the same for
    every w the block spans."""
    assert t._t0 is not None
    assert t.t0.shape == (2, t.n) and t.t0.dtype == np.int64
    for side, block in enumerate((t.x, t.z)):
        rows, syn = block[:, :-1], block[:, -1]
        fresh = linalg.solve(t.gf, rows, syn)
        assert fresh is not None
        assert np.array_equal(t.gf.matmul(rows, t.t0[side]), syn)
        assert np.array_equal(t.gf.matmul(rows, fresh), syn)


def updates(t, rng):
    """(kind, result) for every update kind that applies to t."""
    gf, n = t.gf, t.n
    yield "copy", t.copy()
    yield "canonical_form", canonical_form(t)
    for block, m in (("x", t.m_x), ("z", t.m_z)):
        if m:
            yield "scale_row", scale_row(t, block, int(rng.integers(m)), int(rng.integers(1, gf.q)))
        if m >= 2:
            i, j = (int(a) for a in rng.choice(m, size=2, replace=False))
            yield "add_row", add_row(t, block, i, j)
    yield "mult", apply_gate(t, "mult", int(rng.integers(n)), delta=int(rng.integers(1, gf.q)))
    if n >= 2:
        i, j = (int(a) for a in rng.choice(n, size=2, replace=False))
        yield "cnot", apply_gate(t, "cnot", i, j)
    for i in range(n):
        try:
            yield "hadamard", apply_gate(t, "hadamard", i)
        except NotCssPreserving:
            pass
    for _ in range(3):
        P = sparse_pure_word(gf, n, rng)
        yield "measure", measure(t, P, rng)[1]
        if deterministic_outcome(t, P) is None:
            for eta in range(gf.q):
                yield "measure_postselect", measure_postselect(t, P, eta)


class TestCarriedSolution:
    def test_every_update_carries_a_solution(self):
        """After each update kind, at q = 2, 4, 8 and n <= 4 with every split
        m_x + m_z = n, and again after a chain of ten updates."""
        rng = np.random.default_rng(307)
        kinds = dict.fromkeys(["copy", "canonical_form", "scale_row", "add_row", "mult", "cnot",
                               "hadamard", "measure", "measure_postselect"], 0)
        for gf, t in cases(rng, 4):
            assert_carries_solution(t)
            for kind, t2 in updates(t, rng):
                assert_carries_solution(t2)
                kinds[kind] += 1
            for _ in range(10):
                chain = list(updates(t, rng))
                kind, t = chain[int(rng.integers(len(chain)))]
                assert_carries_solution(t)
        assert min(kinds.values()) > 10, kinds

    def test_deterministic_outcome_reads_the_carried_solution(self, monkeypatch):
        """No elimination after construction: deterministic_outcome and
        measure make no rref_augmented call."""
        rng = np.random.default_rng(311)
        tabs = [t for _, t in cases(rng, 2)]
        calls = []
        rref = linalg.rref_augmented
        monkeypatch.setattr(linalg, "rref_augmented", lambda *a: calls.append(a) or rref(*a))
        for t in tabs:
            for _ in range(3):
                P = sparse_pure_word(t.gf, t.n, rng)
                deterministic_outcome(t, P)
                measure(t, P, rng)
        assert calls == []

    def test_built_by_hand_solves_on_first_use(self):
        gf = make_field(2)
        t = random_full_tableau(gf, 3, np.random.default_rng(313), 1)
        hand = CssTableau(gf, 3, t.x.copy(), t.z.copy())
        assert hand._t0 is None
        P = PauliWord.x_word(gf, t.xrows[0])
        assert deterministic_outcome(hand, P) == deterministic_outcome(t, P) == t.xsyn[0]
        assert_carries_solution(hand)
        inconsistent = CssTableau(gf, 2, [[1, 0, 1], [1, 0, 2]], np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(RankDeficient):
            inconsistent.t0
        with pytest.raises(InvalidFieldCode):
            CssTableau(gf, 1, [[1, 4]], np.zeros((0, 2), dtype=np.int64))

    def test_blocks_are_read_only(self):
        gf = make_field(2)
        t = random_full_tableau(gf, 3, np.random.default_rng(317), 2)
        for view in (t.x, t.z, t.t0, t.xrows, t.zsyn, t.block("x", 0)):
            with pytest.raises(ValueError, match="read-only"):
                view[(0,) * view.ndim] = 1
        owned = np.array([[1, 2, 3]])
        hand = CssTableau(gf, 2, owned, np.zeros((0, 3), dtype=np.int64))
        owned[0, 2] = 0  # the caller's array is not the block
        assert hand.xsyn.tolist() == [3]
        assert owned.flags.writeable

    def test_updates_share_read_only_blocks(self):
        """A single tableau measured for several outcomes shares its one
        recombined opposite block; copy shares everything."""
        gf = make_field(3)
        rng = np.random.default_rng(319)
        while True:
            t = random_full_tableau(gf, 3, rng, 1)
            P = PauliWord.x_word(gf, rng.integers(1, gf.q, 3))
            if deterministic_outcome(t, P) is None:
                break
        posts = measure_postselect(t, P, list(range(gf.q)))
        assert all(u.z is posts[0].z or np.shares_memory(u.z, posts[0].z) for u in posts)
        assert t.copy().x is t.x and t.copy().t0 is t.t0


# -- stacks -------------------------------------------------------------------------------


def stacks(seed, size=5):
    """Stacks of random full tableaux with one (q, n, m_X), at q = 2, 4, 8."""
    rng = np.random.default_rng(seed)
    for s in (1, 2, 3):
        gf = make_field(s)
        for n in (1, 2, 3, 4):
            for m_x in range(n + 1):
                yield gf, [random_full_tableau(gf, n, rng, m_x) for _ in range(size)], rng


def assert_same_carried(a, b):
    assert_same_tableau(a, b)
    assert np.array_equal(a.t0, b.t0)


class TestStacks:
    def test_each_member_is_its_single_result(self):
        checked = {"det": 0, "random": 0}
        for gf, ts, rng in stacks(331):
            n = ts[0].n
            for P in [sparse_pure_word(gf, n, rng) for _ in range(4)]:
                dets = deterministic_outcome(ts, P)
                assert dets == [deterministic_outcome(t, P) for t in ts]
                seed = int(rng.integers(1 << 30))
                outs, posts = measure(ts, P, np.random.default_rng(seed))
                one = np.random.default_rng(seed)
                for t, out, post in zip(ts, outs, posts):
                    want_out, want_post = measure(t, P, one)
                    assert out == want_out
                    assert_same_carried(post, want_post)
                    assert (post is t) == (want_post is t)
                random = [t for t, det in zip(ts, dets) if det is None]
                checked["det"] += len(ts) - len(random)
                checked["random"] += len(random)
                if random:
                    etas = rng.integers(0, gf.q, len(random)).tolist()
                    for got, t, eta in zip(measure_postselect(random, P, etas), random, etas):
                        assert_same_carried(got, measure_postselect(t, P, eta))
        assert min(checked.values()) > 300, checked

    def test_one_tableau_many_outcomes(self):
        for gf, ts, rng in stacks(337, size=2):
            for t in ts:
                P = sparse_pure_word(gf, t.n, rng)
                if deterministic_outcome(t, P) is not None:
                    continue
                etas = list(range(gf.q))
                for got, eta in zip(measure_postselect(t, P, etas), etas):
                    assert_same_carried(got, measure_postselect(t, P, eta))

    def test_stack_draws_random_members_in_one_draw(self):
        gf = make_field(2)
        rng = np.random.default_rng(347)
        ts = [random_full_tableau(gf, 3, rng, 1) for _ in range(12)]
        P = PauliWord.z_word(gf, [1, 2, 3])
        dets = deterministic_outcome(ts, P)
        random = [i for i, d in enumerate(dets) if d is None]
        assert 0 < len(random) < len(ts)
        outs, _ = measure(ts, P, np.random.default_rng(5))
        drawn = np.random.default_rng(5).integers(0, gf.q, size=len(random), dtype=np.int64)
        assert [outs[i] for i in random] == drawn.tolist()
        assert [outs[i] for i, d in enumerate(dets) if d is not None] == [d for d in dets if d is not None]

    def test_stack_checks(self):
        gf = make_field(2)
        rng = np.random.default_rng(349)
        t1, t2 = random_full_tableau(gf, 3, rng, 1), random_full_tableau(gf, 3, rng, 2)
        other = random_full_tableau(make_field(1), 3, rng, 1)
        P = PauliWord.z_word(gf, [1, 2, 3])
        for stack in ([], [t1, t2], [t1, other]):
            with pytest.raises(DimensionMismatch):
                measure(stack, P, rng)
            with pytest.raises(DimensionMismatch):
                deterministic_outcome(stack, P)
        with pytest.raises(DimensionMismatch):
            sample([t1], P, rng, 3)
        t3 = random_full_tableau(gf, 3, rng, 1)
        while deterministic_outcome(t3, P) is not None or deterministic_outcome(t1, P) is not None:
            t1, t3 = random_full_tableau(gf, 3, rng, 1), random_full_tableau(gf, 3, rng, 1)
        for etas in ([1], [1, 2, 3], [[1], [2]]):
            with pytest.raises(DimensionMismatch):
                measure_postselect([t1, t3], P, etas)
        with pytest.raises(InvalidFieldCode):
            measure_postselect([t1, t3], P, [1, 4])

    def test_stacked_gadget_member_is_the_postselected_single_path(self):
        """Each member of a stacked run_cat_gadget is the single gadget with
        its three random outcomes postselected to the member's."""
        gf = make_field(3)
        rng = np.random.default_rng(353)
        gammas = rng.integers(1, gf.q, size=(20, 4)).tolist()
        etas = rng.integers(0, gf.q, size=20).tolist()
        results = run_cat_gadget(gf, gammas, etas, rng)
        words = []
        for j in range(4):
            codes = [0] * 8
            codes[j] = codes[j + 4] = 1
            words.append(PauliWord.x_word(gf, codes))
        for g, eta, res in zip(gammas, etas, results):
            t = cat_block_tableau(gf, g, eta)
            for P, out in zip(words[:3], res.outcomes[:3]):
                assert deterministic_outcome(t, P) is None
                t = measure_postselect(t, P, out)
            assert deterministic_outcome(t, words[3]) == res.outcomes[3]
            assert res.recovered == eta
            assert_same_carried(res.tableau, t)
        single = run_cat_gadget(gf, gammas[0], etas[0], np.random.default_rng(7))
        (stacked,) = run_cat_gadget(gf, gammas[:1], etas[:1], np.random.default_rng(7))
        assert single.outcomes == stacked.outcomes and single.recovered == stacked.recovered
        with pytest.raises(DimensionMismatch):
            run_cat_gadget(gf, gammas[:2], etas[:3], rng)


class TestIntegerCodes:
    """Float input at the tableau boundary raises instead of being truncated."""

    def test_new_tableau_refuses_floats(self):
        gf = make_field(3)
        with pytest.raises(InvalidFieldCode):
            new_tableau(gf, 1, [[1]], [], [2.5], [])
        with pytest.raises(InvalidFieldCode):
            new_tableau(gf, 1, [[1.7]], [], [2], [])

    def test_updates_refuse_floats(self):
        gf = make_field(3)
        t = new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], [5])
        with pytest.raises(InvalidFieldCode):
            measure_postselect(t, PauliWord.x_word(gf, [0, 1]), 2.5)
        with pytest.raises(InvalidFieldCode):
            scale_row(t, "x", 0, 2.5)
        with pytest.raises(InvalidFieldCode):
            apply_gate(t, "mult", 0, delta=2.5)

    def test_integer_input_unchanged(self):
        gf = make_field(3)
        t = new_tableau(gf, 2, np.array([[1, 0]], dtype=np.uint8), [[0, True]], [np.int64(3)], [5])
        assert t.x.dtype == np.int64 and t.z.tolist() == [[0, 1, 5]] and t.xsyn.tolist() == [3]
        assert new_tableau(gf, 1, [], [[1]], [], [2]).z.tolist() == [[1, 2]]


class TestValueEquality:
    """== compares the field, the length and the blocks by value, not t0."""

    def test_equal_and_unequal_builds(self):
        gf = make_field(3)
        t = new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], [5])
        assert t == new_tableau(gf, 2, np.array([[1, 0]]), [[0, 1]], [3], [5])
        assert t == CssTableau(gf, 2, t.x, t.z)  # built by hand, t0 not yet solved
        assert t != new_tableau(gf, 2, [[1, 0]], [[0, 1]], [3], [6])
        assert t != new_tableau(gf, 2, [[1, 1]], [[1, 1]], [3], [5])
        assert t != new_tableau(gf, 2, [[0, 1]], [[1, 0]], [3], [5])
        assert t != new_tableau(make_field(4), 2, [[1, 0]], [[0, 1]], [3], [5])
        assert t != "tableau" and t == t.copy()
