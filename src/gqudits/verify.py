"""Acceptance-criteria runner shared by `gqudits verify all` and the tests.

Every criterion is a pure function of the seed, so two runs with the same
seed render byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import css as css_mod
from . import gates as gates_mod
from . import grs as grs_mod
from . import linalg
from . import oracle as oracle_mod
from . import q2b as q2b_mod
from . import tableau as tab_mod
from .bases import BasisAssignment, FieldBasis, dual_basis, find_self_dual, polynomial_basis
from .field import make_field
from .pauli import PauliWord

# 0.999 quantiles of the chi-squared distribution (significance 1e-3)
_CHI2_CRITICAL = {1: 10.828, 3: 16.266, 7: 24.322, 15: 37.697}


@dataclass
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.index:2d} {self.name}: {self.detail}"


def _random_basis(gf, rng) -> FieldBasis:
    M = linalg.random_invertible(make_field(1), rng, gf.s)
    return FieldBasis(gf, polynomial_basis(gf).recompose(M))


def _fail(detail: str) -> tuple[bool, str]:
    return False, detail


# -- criterion 1: field suite -----------------------------------------------------


def criterion_field(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    checked = 0
    for s in (1, 2, 3, 4):
        gf = make_field(s)
        q = gf.q
        els = range(q)
        for a in els:
            for b in els:
                if gf.add(a, b) != gf.add(b, a) or gf.mul(a, b) != gf.mul(b, a):
                    return _fail(f"commutativity fails at q={q}")
                for c in els:
                    if gf.add(gf.add(a, b), c) != gf.add(a, gf.add(b, c)):
                        return _fail(f"additive associativity fails at q={q}")
                    if gf.mul(gf.mul(a, b), c) != gf.mul(a, gf.mul(b, c)):
                        return _fail(f"multiplicative associativity fails at q={q}")
                    if gf.mul(a, gf.add(b, c)) != gf.add(gf.mul(a, b), gf.mul(a, c)):
                        return _fail(f"distributivity fails at q={q}")
                    checked += 1
        for a in els:
            if gf.add(a, a) != 0 or gf.mul(a, 1) != a or gf.add(a, 0) != a:
                return _fail(f"identities fail at q={q}")
            if a and gf.mul(a, gf.inv(a)) != 1:
                return _fail(f"inverses fail at q={q}")
            if gf.pow(a, q) != a:
                return _fail(f"eta^q != eta at q={q}")
            if gf.pow(a, q - 1) != (1 if a else 0):
                return _fail(f"eta^(q-1) law fails at q={q}")
            if gf.trace(a) not in (0, 1) or gf.trace(gf.frobenius(a)) != gf.trace(a):
                return _fail(f"trace laws fail at q={q}")
            for b in els:
                if gf.trace(gf.add(a, b)) != gf.trace(a) ^ gf.trace(b):
                    return _fail(f"trace additivity fails at q={q}")
        for _ in range(50):
            tup = rng.integers(0, q, size=int(rng.integers(1, 9)))
            total = 0
            sq = 0
            for e in tup:
                total ^= int(e)
                sq ^= gf.mul(int(e), int(e))
            if gf.mul(total, total) != sq:
                return _fail(f"square-distribution law fails at q={q}")
    f8 = make_field(modulus=0b1011)
    if f8.mul(0b110, 0b111) != 0b100:
        return _fail("F_8 worked product (a+a^2)(1+a+a^2) != a^2")
    return True, f"axiom triples={checked}, q in (2,4,8,16), F_8 product reproduced"


# -- criterion 2: basis suite -----------------------------------------------------


def criterion_bases(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    pairings = 0
    for s in (1, 2, 3, 4):
        gf = make_field(s)
        bases = [polynomial_basis(gf), find_self_dual(gf), _random_basis(gf, rng), _random_basis(gf, rng)]
        E = np.arange(gf.q, dtype=np.int64)
        for B in bases:
            Bd = dual_basis(B)
            # every pair (beta, gamma): tr(beta gamma) = B-bits(beta) . B*-bits(gamma) mod 2
            bit_products = B.decompose(E) @ Bd.decompose(E).T % 2
            if not np.array_equal(gf.trace_arr(gf.mul_arr(E[:, None], E[None])), bit_products):
                return _fail(f"trace/inner-product identity fails at q={gf.q}")
            pairings += gf.q * gf.q
            # recovery: rho = sum tr(b_i rho) b_i*, the XOR of the b_i* with tr(b_i rho) = 1
            traces = gf.trace_arr(gf.mul_arr(E[:, None], np.array(B.elements)))
            if not np.array_equal(np.bitwise_xor.reduce(traces * np.array(Bd.elements), axis=1), E):
                return _fail(f"trace-value recovery fails at q={gf.q}")
    gram_ok = []
    for s in range(1, 9):
        gf = make_field(s)
        sd = find_self_dual(gf)
        if not sd.is_self_dual():
            return _fail(f"self-dual search returned a non-self-dual basis at s={s}")
        gram_ok.append(s)
    return True, f"pairings={pairings}, self-dual Gram identity for s={gram_ok}"


# -- criterion 3: tableau vs oracle -------------------------------------------------


def _random_full_tableau(gf, n: int, rng) -> tab_mod.CssTableau:
    m_x = int(rng.integers(0, n + 1))
    m_z = n - m_x
    gx = linalg.random_full_rank(gf, rng, m_x, n) if m_x else np.zeros((0, n), dtype=np.int64)
    if m_z:
        K = linalg.kernel_basis(gf, gx)
        L = linalg.random_invertible(gf, rng, m_z)
        gz = gf.matmul(L, K)
    else:
        gz = np.zeros((0, n), dtype=np.int64)
    xsyn = rng.integers(0, gf.q, size=m_x, dtype=np.int64)
    zsyn = rng.integers(0, gf.q, size=m_z, dtype=np.int64)
    return tab_mod.new_tableau(gf, n, gx, gz, xsyn, zsyn)


def _random_pure_word(gf, n: int, rng) -> PauliWord:
    while True:
        codes = rng.integers(0, gf.q, size=n, dtype=np.int64)
        if np.any(codes):
            break
    if rng.integers(0, 2):
        return PauliWord.x_word(gf, codes)
    return PauliWord.z_word(gf, codes)


_PENDING = object()  # a case's outcome before phase 1 has read it


@dataclass
class _Case:
    """One drawn case of criterion 3 and what the tableau side gave for it:
    det, the deterministic outcome or None on the random branch, and posts,
    on the random branch measure_postselect's tableau for each outcome in
    code order.  A case cut short by an exception keeps what it got."""

    t: tab_mod.CssTableau
    P: PauliWord
    det: object = _PENDING
    posts: list = dataclasses.field(default_factory=list)


def _draw_cases(rng, counts: dict) -> tuple[list[_Case], Exception | None]:
    """Phase 1 of criterion 3: every draw and tableau call, in one loop and
    with no oracle work, so the rng stream is the one the criterion has
    always drawn.  An exception ends the draws and is returned with the
    cases so far, the last one as far as it got."""
    cases: list[_Case] = []
    try:
        for _ in range(200):
            gf = make_field(int(rng.integers(1, 3)))
            n = int(rng.integers(1, 4))
            t = _random_full_tableau(gf, n, rng)
            case = _Case(t, _random_pure_word(gf, n, rng))
            cases.append(case)
            case.det = tab_mod.deterministic_outcome(t, case.P)
            if case.det is None:
                case.posts = tab_mod.measure_postselect(t, case.P, list(gf.elements()))
                counts[gf.q] += np.bincount(tab_mod.sample(t, case.P, rng, 25), minlength=gf.q)
    except Exception as exc:
        return cases, exc
    return cases, None


def _stacked(fn, keys: list, *columns: list) -> list:
    """fn's result for each member (one entry of every column), by one
    stacked call per key.  Where a stacked call raises, each of its members
    is retried as a stack of one, and a member that raises gets its own
    exception as its result."""
    out: list = [None] * len(keys)
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for idx in groups.values():
        stacks = [[column[i] for i in idx] for column in columns]
        try:
            results = list(fn(*stacks))
        except Exception:
            results = []
            for member in zip(*stacks):
                try:
                    results.append(fn(*([m] for m in member))[0])
                except Exception as exc:
                    results.append(exc)
        for i, result in zip(idx, results):
            out[i] = result
    return out


def _value(result):
    """A stacked result, or the exception its member raised."""
    if isinstance(result, Exception):
        raise result
    return result


def _check_cases(cases: list[_Case]) -> str | None:
    """Phase 2 of criterion 3: the oracle side of every case, by stacked
    calls, then the verdicts in draw order.  Returns the first failing
    case's detail or raises its exception, as the one-loop criterion would."""
    tableaux = [c.t for c in cases] + [t2 for c in cases for t2 in c.posts]
    keys = [(t.gf.q, t.n, t.m_x) for t in tableaux]
    states = iter(_stacked(oracle_mod.stabiliser_state, keys, tableaux))
    psis = [next(states) for _ in cases]
    post_states = [[next(states) for _ in c.posts] for c in cases]
    ok = [i for i, psi in enumerate(psis) if not isinstance(psi, Exception)]
    det = [i for i in ok if cases[i].det not in (None, _PENDING)]
    rand = [i for i in ok if cases[i].det is None]

    def by_system(fn, idx, *extra):
        """fn's result for each case in idx, stacked over the cases of one (q, n)."""
        keys = [(cases[i].t.gf.q, cases[i].t.n) for i in idx]
        columns = [psis[i] for i in idx], [cases[i].P for i in idx], *extra
        return dict(zip(idx, _stacked(fn, keys, *columns)))

    components = by_system(oracle_mod.syndrome_component, det)
    probs = by_system(oracle_mod.born_probabilities, rand)
    collapsed = by_system(oracle_mod.collapse, rand, [list(cases[i].t.gf.elements()) for i in rand])
    # each case's postselected states up to the first that raised, against
    # their collapses: one stacked comparison over the cases of one (q, n)
    built = {i: next((j for j, u in enumerate(post_states[i]) if isinstance(u, Exception)), len(post_states[i]))
             for i in rand}
    pairs = [(i, j) for i in rand if not isinstance(collapsed[i], Exception) for j in range(built[i])]
    keys = [(cases[i].t.gf.q, cases[i].t.n) for i, _ in pairs]
    lhs, rhs = [post_states[i][j] for i, j in pairs], [collapsed[i][j] for i, j in pairs]
    agrees = dict.fromkeys(rand, True)
    for (i, _), equal in zip(pairs, _stacked(oracle_mod.states_equal_up_to_phase, keys, lhs, rhs)):
        agrees[i] &= equal
    for i, case in enumerate(cases):
        _value(psis[i])
        if case.det is _PENDING:
            break
        if case.det is not None:
            if _value(components[i]) != case.det:
                return "deterministic outcome disagrees with the oracle"
            continue
        if np.max(np.abs(_value(probs[i]) - 1.0 / case.t.gf.q)) > 1e-8:
            return "random-branch Born probabilities are not uniform"
        if built[i]:
            _value(collapsed[i])
            if not agrees[i]:
                return "post-measurement state disagrees with oracle collapse"
        if built[i] < len(post_states[i]):
            raise post_states[i][built[i]]
    return None


def criterion_tableau_oracle(seed: int = 0) -> tuple[bool, str]:
    """Pure-type measurement on 200 random full tableaux against the dense
    oracle: a deterministic outcome is the state's syndrome component; on
    the random branch the Born probabilities are uniform and each
    postselected tableau's state is the collapse.

    Phase 1 (_draw_cases) makes every draw; phase 2 (_check_cases) checks
    the oracle side in stacks grouped by (q, n, m_X).  The first failing case
    in draw order is reported, or its exception raised, as a single loop
    over the cases would.  Then a chi-squared test on tableau.sample's
    outcomes, 25 a random case, pooled per field, at significance 1e-3: a
    designed false-alarm rate of 1e-3 for each field, so a correct build
    fails it at some seeds (1010 and 1184 of 1000-1399).
    """
    rng = np.random.default_rng(seed)
    counts: dict[int, np.ndarray] = {2: np.zeros(2), 4: np.zeros(4)}
    cases, error = _draw_cases(rng, counts)
    detail = _check_cases(cases)
    if detail is not None:
        return _fail(detail)
    if error is not None:
        raise error
    stats = {}
    for q, cnt in counts.items():
        total = cnt.sum()
        if total == 0:
            continue
        expected = total / q
        stat = float(((cnt - expected) ** 2 / expected).sum())
        stats[q] = round(stat, 3)
        if stat > _CHI2_CRITICAL[q - 1]:
            return _fail(f"chi-squared {stat:.3f} exceeds critical value at q={q}")
    det_cases = sum(c.det is not None for c in cases)
    return True, f"det={det_cases}, random={len(cases) - det_cases}, chi2={stats}"


# -- criterion 4: cat-state gadget ----------------------------------------------------


def criterion_cat_gadget(seed: int = 0) -> tuple[bool, str]:
    """100 cat gadgets at q = 8 as one stacked run_cat_gadget call: every
    (gammas, eta) is drawn first, in the trials' order, then the outcomes,
    one draw a measured word.  The first failing trial is reported."""
    gf = make_field(3)
    trials = 100
    rng = np.random.default_rng(seed)
    draws = [([int(g) for g in rng.integers(1, 8, size=4)], int(rng.integers(0, 8))) for _ in range(trials)]
    results = tab_mod.run_cat_gadget(gf, [g for g, _ in draws], [eta for _, eta in draws], rng)
    for (gammas, eta), res in zip(draws, results):
        if res.recovered != eta:
            return _fail(f"gadget recovered {res.recovered}, planted {eta}")
        acc = eta
        for g, o in zip(gammas[:3], res.outcomes[:3]):
            acc ^= gf.mul(g, o)
        expected_fourth = gf.mul(gf.inv(gammas[3]), acc)
        if res.outcomes[3] != expected_fourth:
            return _fail("deterministic fourth outcome violates the closed form")
    return True, f"trials={trials} at q=8, fourth outcome closed form verified"


# -- criterion 5: gate identities -------------------------------------------------------


def _close(A: np.ndarray, B: np.ndarray, atol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(A - B)) <= atol)


def criterion_gate_identities(seed: int = 0) -> tuple[bool, str]:
    del seed  # fully deterministic
    for s in (1, 2, 3):
        gf = make_field(s)
        H = gates_mod.build_gate(gf, "hadamard").mat
        if not _close(H @ H, np.eye(gf.q)):
            return _fail(f"H^2 != I at q={gf.q}")
        CNOT = gates_mod.build_gate(gf, "cnot").mat
        # X^beta and Z^beta on one site, built once per field and indexed by beta
        X = [oracle_mod.pauli_matrix(PauliWord.x_word(gf, [beta])).mat for beta in gf.elements()]
        Z = [oracle_mod.pauli_matrix(PauliWord.z_word(gf, [beta])).mat for beta in gf.elements()]
        for beta in gf.elements():
            if not _close(H @ X[beta] @ H.conj().T, Z[beta]):
                return _fail(f"H X H+ != Z at q={gf.q}")
            if not _close(H @ Z[beta] @ H.conj().T, X[beta]):
                return _fail(f"H Z H+ != X at q={gf.q}")
            XX = oracle_mod.pauli_matrix(PauliWord.x_word(gf, [beta, 0])).mat
            XB = oracle_mod.pauli_matrix(PauliWord.x_word(gf, [beta, beta])).mat
            if not _close(CNOT @ XX @ CNOT.conj().T, XB):
                return _fail(f"CNOT X-propagation fails at q={gf.q}")
            ZZ = oracle_mod.pauli_matrix(PauliWord.z_word(gf, [0, beta])).mat
            ZB = oracle_mod.pauli_matrix(PauliWord.z_word(gf, [beta, beta])).mat
            if not _close(CNOT @ ZZ @ CNOT.conj().T, ZB):
                return _fail(f"CNOT Z-propagation fails at q={gf.q}")
        for delta in gf.nonzero_elements():
            M = gates_mod.build_gate(gf, "mult", delta=delta).mat
            for beta in gf.elements():
                if not _close(M @ X[beta] @ M.conj().T, X[gf.mul(delta, beta)]):
                    return _fail(f"M X conjugation fails at q={gf.q}")
                if not _close(M @ Z[beta] @ M.conj().T, Z[gf.mul(beta, gf.inv(delta))]):
                    return _fail(f"M Z conjugation fails at q={gf.q}")
    gf4 = make_field(2)
    ccz1 = gates_mod.build_gate(gf4, "ccz", gamma=1).mat
    for gamma in gf4.nonzero_elements():
        cczg = gates_mod.build_gate(gf4, "ccz", gamma=gamma).mat
        Mg = gates_mod.embed_single(gf4, 3, 0, gates_mod.build_gate(gf4, "mult", delta=gamma)).mat
        Mi = gates_mod.embed_single(
            gf4, 3, 0, gates_mod.build_gate(gf4, "mult", delta=gf4.inv(gamma))
        ).mat
        if not _close(cczg, Mi @ ccz1 @ Mg):
            return _fail(f"CCZ^gamma != M^(1/gamma) CCZ M^gamma at gamma={gamma}")
    witness = None
    for g1 in gf4.elements():
        for g2 in gf4.elements():
            S1 = gates_mod.build_gate(gf4, "s", gamma=g1).mat
            S2 = gates_mod.build_gate(gf4, "s", gamma=g2).mat
            S12 = gates_mod.build_gate(gf4, "s", gamma=g1 ^ g2).mat
            if not _close(S1 @ S2, S12):
                witness = (g1, g2)
                break
        if witness:
            break
    if witness is None:
        return _fail("no S-gate non-additivity witness found at q=4")
    return True, f"conjugation tables at q in (2,4,8); S witness gammas={witness}"


# -- criterion 6: hierarchy levels ---------------------------------------------------


def criterion_hierarchy(seed: int = 0) -> tuple[bool, str]:
    del seed
    reports = []
    for s in (1, 2):
        gf = make_field(s)
        for kind, params, expect in (
            ("cnot", {}, 2),
            ("hadamard", {}, 2),
        ):
            lvl = gates_mod.hierarchy_level(gates_mod.build_gate(gf, kind, **params), 4, kind).level
            if lvl != expect:
                return _fail(f"{kind} at q={gf.q} reported level {lvl}, expected {expect}")
        for delta in gf.nonzero_elements():
            lvl = gates_mod.hierarchy_level(
                gates_mod.build_gate(gf, "mult", delta=delta), 4, "mult"
            ).level
            expect = 1 if delta == 1 else 2  # M^1 is the identity, a Pauli
            if lvl != expect:
                return _fail(f"mult({delta}) at q={gf.q} reported level {lvl}")
        for gamma in gf.nonzero_elements():
            lvl = gates_mod.hierarchy_level(
                gates_mod.build_gate(gf, "ccz", gamma=gamma), 4, "ccz"
            ).level
            if lvl != 3:
                return _fail(f"ccz({gamma}) at q={gf.q} reported level {lvl}, expected 3")
        reports.append(gf.q)
    gf8 = make_field(3)
    for beta in gf8.elements():
        U = gates_mod.build_gate(gf8, "u_n", n=7, beta=beta)
        is_id = _close(U.mat, np.eye(8))
        if gf8.trace(beta) == 0:
            if not is_id:
                return _fail(f"U_7^{beta} should be the identity (tr=0)")
        else:
            if is_id:
                return _fail(f"U_7^{beta} should not be the identity (tr=1)")
            lvl = gates_mod.hierarchy_level(U, 4, "u_n").level
            if lvl != 3:
                return _fail(f"U_7^{beta} reported level {lvl}, expected exactly 3")
    return True, f"cnot/h/mult level 2 and ccz level 3 at q={reports}; U_7 cases at q=8"


# -- criterion 7: isomorphism suite ---------------------------------------------------


def criterion_isomorphism(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    gf = make_field(2)
    B = find_self_dual(gf)
    zoo1 = {
        "hadamard": gates_mod.build_gate(gf, "hadamard"),
        "mult2": gates_mod.build_gate(gf, "mult", delta=2),
        "mult3": gates_mod.build_gate(gf, "mult", delta=3),
        "s1": gates_mod.build_gate(gf, "s", gamma=1),
        "x2": oracle_mod.pauli_matrix(PauliWord.x_word(gf, [2])),
        "z3": oracle_mod.pauli_matrix(PauliWord.z_word(gf, [3])),
    }
    names = sorted(zoo1)
    for a in names:
        for b in names:
            U1, U2 = zoo1[a], zoo1[b]
            lhs = gates_mod.pi_map(B, oracle_mod.DenseOperator(gf, 1, U1.mat @ U2.mat)).mat
            rhs = gates_mod.pi_map(B, U1).mat @ gates_mod.pi_map(B, U2).mat
            if not _close(lhs, rhs, 1e-10):
                return _fail(f"Pi homomorphism fails on {a} * {b}")
    Bd = B.dual()
    for gamma in gf.elements():
        lhs = gates_mod.pi_map(B, oracle_mod.pauli_matrix(PauliWord.x_word(gf, [gamma]))).mat
        bits = B.decompose(gamma)
        rhs = oracle_mod.pauli_matrix(PauliWord.x_word(make_field(1), bits)).mat
        if not _close(lhs, rhs, 1e-10):
            return _fail(f"Pi(X^{gamma}) != X^(D_B) as matrices")
        lhs = gates_mod.pi_map(B, oracle_mod.pauli_matrix(PauliWord.z_word(gf, [gamma]))).mat
        rhs = oracle_mod.pauli_matrix(PauliWord.z_word(make_field(1), Bd.decompose(gamma))).mat
        if not _close(lhs, rhs, 1e-10):
            return _fail(f"Pi(Z^{gamma}) != Z^(D_B*) as matrices")
    # hierarchy level preserved across the map for the zoo gates
    checked_levels = []
    for name, U, n in (
        ("hadamard", gates_mod.build_gate(gf, "hadamard"), 1),
        ("mult2", gates_mod.build_gate(gf, "mult", delta=2), 1),
        ("cnot", gates_mod.build_gate(gf, "cnot"), 2),
        ("ccz", gates_mod.build_gate(gf, "ccz", gamma=1), 3),
    ):
        assignment = BasisAssignment.uniform(B, n)
        lq = gates_mod.hierarchy_level(U, 4, name).level
        lb = gates_mod.hierarchy_level(gates_mod.pi_map(assignment, U), 4, name).level
        checked_levels.append((name, lq))
        if lq != lb:
            return _fail(f"hierarchy level not preserved for {name}: {lq} vs {lb}")
    # Pi(CNOT) is exactly the pairwise qubit CNOTs
    assignment2 = BasisAssignment.uniform(B, 2)
    got = gates_mod.pi_map(assignment2, gates_mod.build_gate(gf, "cnot")).mat
    expected = np.zeros((16, 16))
    for j in range(16):
        b = [(j >> (3 - i)) & 1 for i in range(4)]
        tgt = [b[0], b[1], b[2] ^ b[0], b[3] ^ b[1]]
        expected[sum(v << (3 - i) for i, v in enumerate(tgt)), j] = 1.0
    if not _close(got, expected, 0):
        return _fail("Pi(CNOT) is not the pairwise qubit CNOT matrix")
    # compatibility Pi(U) phi = phi U on random states
    ops = [zoo1["hadamard"], zoo1["mult2"], zoo1["s1"]]
    for trial in range(100):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = oracle_mod.StateVector(gf, 1, amps / np.linalg.norm(amps))
        U = ops[trial % len(ops)]
        lhs = gates_mod.pi_map(B, U).mat @ gates_mod.phi_map(B, psi).amps
        rhs = gates_mod.phi_map(B, U.apply(psi)).amps
        if np.max(np.abs(lhs - rhs)) > 1e-10:
            return _fail("compatibility Pi(U) phi != phi U on a random state")
    return True, f"homomorphism, Pauli map, CNOT block form, levels={checked_levels}"


# -- criterion 8: GRS suite ---------------------------------------------------------


def _enumerate_weights(code: grs_mod.GrsCode) -> np.ndarray:
    words = code.gf.matmul(oracle_mod.all_digits(code.gf, code.k), grs_mod.generator_matrix(code))
    return np.bincount((words != 0).sum(axis=1), minlength=code.n + 1)


def criterion_grs(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for trial in range(20):
        gf = make_field(2 if trial % 2 else 3)
        n = int(rng.integers(2, gf.q + 1))
        k = int(rng.integers(1, n + 1))
        alpha = rng.permutation(gf.q)[:n].astype(np.int64)
        v = rng.integers(1, gf.q, size=n, dtype=np.int64)
        code = grs_mod.GrsCode(gf, k, alpha, v)
        dualc = grs_mod.dual(code)
        G, Gd = grs_mod.generator_matrix(code), grs_mod.generator_matrix(dualc)
        if G.size and Gd.size and np.any(gf.matmul(G, Gd.T)):
            return _fail(f"dual generator matrices not orthogonal (trial {trial})")
    census = []
    for s, n, k in ((2, 3, 2), (3, 7, 3)):
        gf = make_field(s)
        code = grs_mod.GrsCode(
            gf, k, np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64)
        )
        hist = _enumerate_weights(code)
        d = n - k + 1
        if int(hist[0]) != 1 or int(hist.sum()) != gf.q**k:
            return _fail(f"weight census does not total q^k at (q={gf.q},n={n},k={k})")
        for w in range(1, n + 1):
            expect = grs_mod.mds_weight_count(n, k, gf.q, w) if w >= d else 0
            if int(hist[w]) != expect:
                return _fail(f"weight enumerator mismatch at (q={gf.q},n={n},k={k},w={w})")
        words = set()
        for roots in combinations(code.alpha.tolist(), k - 1):
            for eta in gf.nonzero_elements():
                cw = grs_mod.min_weight_codeword(code, roots, eta)
                if int((cw != 0).sum()) != d:
                    return _fail("minimum-weight codeword has the wrong weight")
                words.add(tuple(cw.tolist()))
        expect_census = (gf.q - 1) * math.comb(n, k - 1)
        if len(words) != expect_census or int(hist[d]) != expect_census:
            return _fail(f"minimum-weight census mismatch at (q={gf.q},n={n},k={k})")
        census.append(expect_census)
    return True, f"20 dual-orthogonality instances; censuses={census}"


# -- criterion 9: QRS end to end -------------------------------------------------------


def criterion_qrs(seed: int = 0) -> tuple[bool, str]:
    """The [[24,9]] qubit image of QRS(8, 8, 2, 5), then 500 weight-1 qudit
    errors through the qubit pipeline.  Every (kind, position, value) is
    drawn first; each kind is then expanded and decoded as one batch, and
    the first trial in draw order that is not recovered is reported, or its
    exception raised, as a loop over the trials would."""
    gf = make_field(3)
    trials = 500
    qrs = grs_mod.make_qrs(gf, 8, 2, 5)
    p = css_mod.params(qrs.css)
    if (p.k, p.d_x, p.d_z) != (3, 4, 3):
        return _fail(f"QRS(8,8,2,5) parameters {p.to_json()} disagree with the formulas")
    if (p.d_x, p.d_z) != (qrs.d_x_formula, qrs.d_z_formula):
        return _fail("enumerated distances disagree with the closed forms")
    assignment = q2b_mod.default_assignment(gf, 8)
    plan = q2b_mod.make_plan(qrs.css, assignment)  # the converted qubit code
    gf2 = make_field(1)
    rx, rz = linalg.rank(gf2, plan.hx), linalg.rank(gf2, plan.hz)
    if plan.ns != 24 or rx != 6 or rz != 9 or plan.k != 9:
        return _fail(f"conversion gave [[{plan.ns},{plan.k}]] with ranks ({rx},{rz})")
    rng = np.random.default_rng(seed)
    kinds, errors = [], []
    for _ in range(trials):
        kinds.append("Z" if rng.integers(0, 2) else "X")
        W = np.zeros(8, dtype=np.int64)
        W[int(rng.integers(0, 8))] = int(rng.integers(1, 8))
        errors.append(W)

    def recovered(same_kind: list, stack: list) -> np.ndarray:
        """Per trial of one kind, whether the pipeline gives back its error's bits."""
        kind = same_kind[0]
        expand = q2b_mod.expand_dual if kind == "Z" else q2b_mod.expand_vector
        bits = expand(assignment, np.array(stack))
        return np.all(q2b_mod.end_to_end_decode(qrs, assignment, plan, bits, kind) == bits, axis=-1)

    for kind, ok in zip(kinds, _stacked(recovered, kinds, kinds, errors)):
        if not _value(ok):
            return _fail(f"pipeline failed to recover a weight-1 {kind} error")
    return True, f"[[24,9]] conversion, ranks (6,9), {trials} within-radius recoveries"


# -- the report; criterion 10 (determinism) is the seeded re-run in run_all -----------


_CRITERIA: list[tuple[str, object]] = [
    ("field-suite", criterion_field),
    ("basis-suite", criterion_bases),
    ("tableau-vs-oracle", criterion_tableau_oracle),
    ("cat-state-gadget", criterion_cat_gadget),
    ("gate-identities", criterion_gate_identities),
    ("hierarchy-levels", criterion_hierarchy),
    ("isomorphism-suite", criterion_isomorphism),
    ("grs-suite", criterion_grs),
    ("qrs-end-to-end", criterion_qrs),
]


def run_criteria(seed: int = 0) -> list[CriterionResult]:
    out = []
    for i, (name, fn) in enumerate(_CRITERIA, start=1):
        ok, detail = fn(seed)
        out.append(CriterionResult(i, name, ok, detail))
    return out


def render_report(results: list[CriterionResult]) -> str:
    return "\n".join(r.line() for r in results)


def run_all(seed: int = 0) -> tuple[str, bool]:
    """Full acceptance report: criteria 1-9 plus the determinism re-run."""
    results = run_criteria(seed)
    again = render_report(run_criteria(seed))
    det_ok = render_report(results) == again
    detail = (
        f"two seeded runs rendered byte-identical reports ({len(again)} bytes)"
        if det_ok
        else "two runs with the same seed rendered different reports"
    )
    results.append(CriterionResult(10, "determinism", det_ok, detail))
    ok = all(r.ok for r in results)
    passed = sum(1 for r in results if r.ok)
    lines = render_report(results)
    summary = f"{'OK' if ok else 'FAILED'} ({passed}/{len(results)} criteria passed, seed={seed})"
    return lines + "\n" + summary + "\n", ok
