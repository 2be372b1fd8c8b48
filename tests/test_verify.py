"""Helpers of the acceptance criteria against their scalar references."""

from collections import Counter

import numpy as np
import pytest

from gqudits import css as css_mod
from gqudits import grs, linalg, q2b, verify
from gqudits import oracle as oracle_mod
from gqudits import tableau as tab_mod
from gqudits.bases import FieldBasis
from gqudits.field import make_field
from gqudits.pauli import PauliWord
from gqudits.verify import _CHI2_CRITICAL, _fail, _random_full_tableau, _random_pure_word


def reference_weights(code):
    """Weight histogram of a GRS code, one message at a time."""
    gf = code.gf
    G = grs.generator_matrix(code)
    hist = np.zeros(code.n + 1, dtype=np.int64)
    shifts = np.array([gf.s * (code.k - 1 - i) for i in range(code.k)], dtype=np.int64)
    for idx in range(gf.q**code.k):
        msg = (idx >> shifts) & (gf.q - 1)
        hist[int((gf.matmul(G.T, msg) != 0).sum())] += 1
    return hist


@pytest.mark.parametrize("s", [1, 2, 3])
def test_enumerate_weights_matches_message_loop(s):
    gf = make_field(s)
    rng = np.random.default_rng(89 + s)
    for _ in range(4):
        n = int(rng.integers(1, min(gf.q, 6) + 1))
        k = int(rng.integers(1, min(n, 3) + 1))
        alpha = rng.permutation(gf.q)[:n].astype(np.int64)
        code = grs.GrsCode(gf, k, alpha, rng.integers(1, gf.q, size=n, dtype=np.int64))
        assert np.array_equal(verify._enumerate_weights(code), reference_weights(code))


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_random_basis_matches_bit_fold(s):
    gf = make_field(s)
    rng, ref_rng = np.random.default_rng(97), np.random.default_rng(97)
    for _ in range(5):
        M = linalg.random_invertible(make_field(1), ref_rng, s)
        want = FieldBasis(gf, [sum((int(b) & 1) << i for i, b in enumerate(row)) for row in M])
        assert verify._random_basis(gf, rng) == want
    assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


def test_qrs_criterion_converts_once(monkeypatch):
    """Criterion 9 reads its [[24,9]] parameters and runs its decodes on one
    plan: one qubit code is derived."""
    calls = []
    derive = q2b.QubitCssCode.__post_init__
    monkeypatch.setattr(q2b.QubitCssCode, "__post_init__", lambda self: calls.append(self) or derive(self))
    ok, detail = verify.criterion_qrs(0)
    assert ok and detail.startswith("[[24,9]] conversion") and len(calls) == 1


def reference_tableau_oracle(seed=0):
    """Criterion 3 as one loop, each case drawn and checked against the
    oracle before the next is drawn."""
    rng = np.random.default_rng(seed)
    det_cases = 0
    rand_cases = 0
    counts: dict[int, np.ndarray] = {2: np.zeros(2), 4: np.zeros(4)}
    for _ in range(200):
        gf = make_field(int(rng.integers(1, 3)))
        n = int(rng.integers(1, 4))
        t = _random_full_tableau(gf, n, rng)
        P = _random_pure_word(gf, n, rng)
        psi = oracle_mod.stabiliser_state(t)
        det = tab_mod.deterministic_outcome(t, P)
        if det is not None:
            det_cases += 1
            if oracle_mod.syndrome_component(psi, P) != det:
                return _fail("deterministic outcome disagrees with the oracle")
        else:
            rand_cases += 1
            probs = oracle_mod.born_probabilities(psi, P)
            if np.max(np.abs(probs - 1.0 / gf.q)) > 1e-8:
                return _fail("random-branch Born probabilities are not uniform")
            for eta in gf.elements():
                t2 = tab_mod.measure_postselect(t, P, eta)
                tab_state = oracle_mod.stabiliser_state(t2)
                collapsed = oracle_mod.collapse(psi, P, eta)
                if not oracle_mod.states_equal_up_to_phase(tab_state, collapsed):
                    return _fail("post-measurement state disagrees with oracle collapse")
            counts[gf.q] += np.bincount(tab_mod.sample(t, P, rng, 25), minlength=gf.q)
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
    return True, f"det={det_cases}, random={rand_cases}, chi2={stats}"


@pytest.mark.parametrize("seed", [*range(10), 1010, 1184])
def test_tableau_oracle_matches_one_loop(seed):
    """Seeds 1010 and 1184 fail the chi-squared test on both."""
    got = verify.criterion_tableau_oracle(seed)
    assert got == reference_tableau_oracle(seed)
    assert got[0] == (seed not in (1010, 1184))


class Faults:
    """Faults planted at chosen cases of criterion 3, a case being counted
    by its tableau.new_tableau call, which both forms make in draw order."""

    # the unpatched functions, read when the module is imported
    new_tableau = staticmethod(tab_mod.new_tableau)
    deterministic_outcome = staticmethod(tab_mod.deterministic_outcome)
    measure_postselect = staticmethod(tab_mod.measure_postselect)
    verify_eigen = staticmethod(oracle_mod._verify_eigen_equations)

    def __init__(self, monkeypatch, det=None, post=None, flip=None, boom=None):
        self.monkeypatch, self.det, self.post, self.flip, self.boom = monkeypatch, det, post, flip, boom

    def outcome(self, criterion, seed):
        """criterion(seed) under the faults, or the RuntimeError it raised."""
        self.tableaux = []
        patch = self.monkeypatch.setattr
        patch(tab_mod, "new_tableau", lambda *a: self.tableaux.append(self.new_tableau(*a)) or self.tableaux[-1])
        patch(tab_mod, "deterministic_outcome", self.wrong_outcome)
        patch(tab_mod, "measure_postselect", self.wrong_syndrome)
        patch(oracle_mod, "_verify_eigen_equations", self.flipped_amplitude)
        try:
            return criterion(seed)
        except RuntimeError as exc:
            return "raised", str(exc)

    def wrong_outcome(self, t, P):
        if len(self.tableaux) - 1 == self.boom:
            raise RuntimeError("planted tableau fault")
        det = self.deterministic_outcome(t, P)
        return det ^ 1 if det is not None and len(self.tableaux) - 1 == self.det else det

    def wrong_syndrome(self, t, P, eta):
        """measure_postselect, one outcome or a sequence; at the planted
        case the tableau for outcome 0 is replaced by flipped_syndrome's."""
        out = self.measure_postselect(t, P, eta)
        if len(self.tableaux) - 1 != self.post:
            return out
        if isinstance(out, list):
            return [flipped_syndrome(t2, P) if e == 0 else t2 for e, t2 in zip(eta, out)]
        return flipped_syndrome(out, P) if eta == 0 else out

    def flipped_amplitude(self, t, amps):
        members = t if isinstance(t, list) else [t]
        rows = amps.reshape(len(members), -1)
        for u, row in zip(members, rows):
            if self.flip is not None and self.flip < len(self.tableaux) and u is self.tableaux[self.flip]:
                row[np.flatnonzero(row)[0]] *= -1
        return self.verify_eigen(t, amps)


def flipped_syndrome(t, P):
    """t built anew (its blocks are read-only) with the syndrome of the last
    row of P's block flipped: the row [w | eta] that a random-branch
    measurement of P adds.  Built by hand, it solves its t0 on first use."""
    x, z = t.x.copy(), t.z.copy()
    (x if any(P.xvec) else z)[-1, -1] ^= 1
    return tab_mod.CssTableau(t.gf, t.n, x, z)


def case_kinds(seed):
    """Indices of the deterministic cases, the random ones, and those with an X row."""
    cases, error = verify._draw_cases(np.random.default_rng(seed), {2: np.zeros(2), 4: np.zeros(4)})
    assert error is None
    det = [i for i, c in enumerate(cases) if c.det is not None]
    return det, [i for i, c in enumerate(cases) if c.det is None], [i for i, c in enumerate(cases) if c.t.m_x]


DET_FAIL = (False, "deterministic outcome disagrees with the oracle")
POST_FAIL = (False, "post-measurement state disagrees with oracle collapse")
X_RAISED = ("raised", "constructed state violates an X eigen-equation")


@pytest.mark.parametrize("seed", [3])
def test_planted_faults_reported_at_the_same_case(monkeypatch, seed):
    """One fault alone, then two in either draw order: the first in draw
    order decides, with the one-loop criterion's message or exception."""
    det, rand, with_x = case_kinds(seed)
    early, late = {"det": det[3], "post": rand[3], "flip": with_x[3]}, {
        "det": det[-3], "post": rand[-3], "flip": with_x[-3]}
    assert max(early.values()) < min(late.values())
    want = {"det": DET_FAIL, "post": POST_FAIL, "flip": X_RAISED}
    plans = [({kind: early[kind]}, want[kind]) for kind in want]
    plans += [({a: early[a], b: late[b]}, want[a]) for a in want for b in want if a != b]
    for faults, expected in plans:
        planted = Faults(monkeypatch, **faults)
        got = planted.outcome(verify.criterion_tableau_oracle, seed)
        assert got == expected, faults
        assert planted.outcome(reference_tableau_oracle, seed) == expected, faults


def test_tableau_side_exception_waits_for_earlier_cases(monkeypatch):
    """A tableau call that raises ends phase 1; the cases before it, and its
    own state, are checked first, as the one loop checks them."""
    det, _, with_x = case_kinds(4)
    boom = with_x[-3]
    plans = [
        ({"boom": boom}, ("raised", "planted tableau fault")),
        ({"det": det[3], "boom": boom}, DET_FAIL),
        ({"flip": boom, "boom": boom}, X_RAISED),  # the state is built before the outcome is read
    ]
    for faults, expected in plans:
        planted = Faults(monkeypatch, **faults)
        assert planted.outcome(verify.criterion_tableau_oracle, 4) == expected, faults
        assert planted.outcome(reference_tableau_oracle, 4) == expected, faults


@pytest.mark.parametrize("seed", [0, 5, 1010])
def test_draw_rule_replays_exactly(seed):
    """tableau.sample's draw rule: one 25-code draw on the random branch and
    none on the deterministic one, which phase 1 does not sample.  A replay
    of the set-up draws that samples every case leaves the generator where
    phase 1 left it, with the same counts."""
    rng = np.random.default_rng(seed)
    counts = {2: np.zeros(2), 4: np.zeros(4)}
    cases, error = verify._draw_cases(rng, counts)
    assert error is None and len(cases) == 200
    replay = np.random.default_rng(seed)
    want = {2: np.zeros(2), 4: np.zeros(4)}
    for case in cases:
        gf = make_field(int(replay.integers(1, 3)))
        n = int(replay.integers(1, 4))
        t = _random_full_tableau(gf, n, replay)
        assert np.array_equal(t.x, case.t.x) and np.array_equal(t.z, case.t.z)
        P = _random_pure_word(gf, n, replay)
        assert P == case.P
        state = replay.bit_generator.state
        shots = tab_mod.sample(t, P, replay, 25)
        if case.det is None:
            one = np.random.default_rng()
            one.bit_generator.state = state
            assert np.array_equal(shots, one.integers(0, gf.q, size=25))
            assert replay.bit_generator.state == one.bit_generator.state
            want[gf.q] += np.bincount(shots, minlength=gf.q)
        else:
            assert replay.bit_generator.state == state and np.array_equal(shots, np.full(25, case.det))
    assert replay.bit_generator.state == rng.bit_generator.state
    assert all(np.array_equal(counts[q], want[q]) for q in counts)


def reference_cat_gadget(seed=0):
    """Criterion 4 as one loop: each trial's gammas and eta drawn, then its
    gadget run, drawing its own outcomes, before the next trial is drawn."""
    gf = make_field(3)
    trials = 100
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        gammas = [int(g) for g in rng.integers(1, 8, size=4)]
        eta = int(rng.integers(0, 8))
        res = tab_mod.run_cat_gadget(gf, gammas, eta, rng)
        if res.recovered != eta:
            return _fail(f"gadget recovered {res.recovered}, planted {eta}")
        acc = eta
        for g, o in zip(gammas[:3], res.outcomes[:3]):
            acc ^= gf.mul(g, o)
        expected_fourth = gf.mul(gf.inv(gammas[3]), acc)
        if res.outcomes[3] != expected_fourth:
            return _fail("deterministic fourth outcome violates the closed form")
    return True, f"trials={trials} at q=8, fourth outcome closed form verified"


@pytest.mark.parametrize("seed", range(10))
def test_cat_gadget_matches_one_loop(seed):
    got = verify.criterion_cat_gadget(seed)
    assert got == reference_cat_gadget(seed)
    assert got[0]


def test_cat_gadget_measures_one_stack_a_word(monkeypatch):
    calls = []
    measure = tab_mod.measure
    monkeypatch.setattr(tab_mod, "measure", lambda t, P, rng: calls.append(len(t)) or measure(t, P, rng))
    assert verify.criterion_cat_gadget(0)[0]
    assert calls == [100] * 4


class CatFaults:
    """Faults planted at chosen trials of criterion 4, a trial being counted
    by its tableau.cat_block_tableau call, which both forms make in trial
    order: det flips the trial's deterministic fourth outcome, post the
    syndrome of the row [XX_0 | outcome] that its first measurement adds
    (flipped_syndrome).  Either way the gadget recovers eta + gamma_4 or
    eta + gamma_1 in place of eta, whatever the other outcomes were."""

    cat_block_tableau = staticmethod(tab_mod.cat_block_tableau)
    measure = staticmethod(tab_mod.measure)

    def __init__(self, monkeypatch, det=None, post=None):
        self.det, self.post = det, post
        self.trials = []  # (gammas, eta) of each trial, in order
        self.trial_of = {}  # id of a tableau -> (its trial, the tableau, kept alive)
        monkeypatch.setattr(tab_mod, "cat_block_tableau", self.planted_block)
        monkeypatch.setattr(tab_mod, "measure", self.planted_measure)

    def planted_block(self, gf, gammas, eta):
        t = self.cat_block_tableau(gf, gammas, eta)
        self.trial_of[id(t)] = len(self.trials), t
        self.trials.append(([int(g) for g in gammas], int(eta)))
        return t

    def planted_measure(self, t, P, rng):
        single = not isinstance(t, list)
        ts = [t] if single else t
        outs, posts = self.measure(ts, P, rng)
        for k, (u, v) in enumerate(zip(ts, posts)):
            trial = self.trial_of[id(u)][0]
            if v is u and trial == self.det:
                outs[k] ^= 1
            elif v is not u and P.xvec[0] and trial == self.post:
                posts[k] = v = flipped_syndrome(v, P)
            self.trial_of[id(v)] = trial, v
        return (outs[0], posts[0]) if single else (outs, posts)

    def message(self, trial, kind):
        gammas, eta = self.trials[trial]
        return False, f"gadget recovered {eta ^ gammas[3 if kind == 'det' else 0]}, planted {eta}"


@pytest.mark.parametrize("seed", [0, 6])
def test_cat_gadget_planted_faults_reported_at_the_same_trial(monkeypatch, seed):
    """Alone and in pairs in either trial order, the first planted trial
    decides, with its message in both forms.  The two forms draw their
    trials in another order, so each message is read off the form's own
    trials."""
    early, late = 7, 80
    plans = [{"det": early}, {"post": early}, {"det": early, "post": late}, {"post": early, "det": late}]
    for faults in plans:
        kind = next(k for k, v in faults.items() if v == early)
        for criterion in (verify.criterion_cat_gadget, reference_cat_gadget):
            planted = CatFaults(monkeypatch, **faults)
            got = criterion(seed)
            assert got == planted.message(early, kind), (faults, criterion.__name__)


def reference_qrs(seed=0):
    """Criterion 9 as one loop: each trial drawn, expanded and decoded
    before the next is drawn."""
    gf = make_field(3)
    trials = 500
    qrs = grs.make_qrs(gf, 8, 2, 5)
    p = css_mod.params(qrs.css)
    if (p.k, p.d_x, p.d_z) != (3, 4, 3):
        return _fail(f"QRS(8,8,2,5) parameters {p.to_json()} disagree with the formulas")
    if (p.d_x, p.d_z) != (qrs.d_x_formula, qrs.d_z_formula):
        return _fail("enumerated distances disagree with the closed forms")
    assignment = q2b.default_assignment(gf, 8)
    plan = q2b.make_plan(qrs.css, assignment)
    gf2 = make_field(1)
    rx, rz = linalg.rank(gf2, plan.hx), linalg.rank(gf2, plan.hz)
    if plan.ns != 24 or rx != 6 or rz != 9 or plan.k != 9:
        return _fail(f"conversion gave [[{plan.ns},{plan.k}]] with ranks ({rx},{rz})")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        kind = "Z" if rng.integers(0, 2) else "X"
        W = np.zeros(8, dtype=np.int64)
        W[int(rng.integers(0, 8))] = int(rng.integers(1, 8))
        bits = q2b.expand_dual(assignment, W) if kind == "Z" else q2b.expand_vector(assignment, W)
        recovered = q2b.end_to_end_decode(qrs, assignment, plan, bits, kind)
        if not np.array_equal(recovered, bits):
            return _fail(f"pipeline failed to recover a weight-1 {kind} error")
    return True, f"[[24,9]] conversion, ranks (6,9), {trials} within-radius recoveries"


def qrs_trials(seed):
    """Criterion 9's (kind, position, value) trials in draw order; each
    value is drawn before its position (W[position] = value evaluates the
    right-hand side first)."""
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(500):
        kind = "Z" if rng.integers(0, 2) else "X"
        value = int(rng.integers(1, 8))
        trials.append((kind, int(rng.integers(0, 8)), value))
    return trials


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 99])
def test_qrs_matches_one_loop(seed):
    assert verify.criterion_qrs(seed) == reference_qrs(seed)


def test_qrs_decodes_one_batch_per_kind(monkeypatch):
    calls = []
    decode = q2b.end_to_end_decode
    monkeypatch.setattr(q2b, "end_to_end_decode", lambda *a: calls.append(a) or decode(*a))
    assert verify.criterion_qrs(0)[0]
    assert sorted((a[4], len(a[3])) for a in calls) == sorted(
        (kind, n) for kind, n in Counter(k for k, _, _ in qrs_trials(0)).items()
    )


class QrsFaults:
    """Faults planted at chosen (kind, position, value) trials of criterion
    9: a wrong recovery and a RuntimeError in q2b.end_to_end_decode, and a
    DecodeFailure from the GRS decoder, each on every row that carries the
    trial's error."""

    end_to_end_decode = staticmethod(q2b.end_to_end_decode)
    decode = staticmethod(q2b.decode)

    def __init__(self, monkeypatch, wrong=None, boom=None, refuse=None):
        gf = make_field(3)
        qrs, assignment = grs.make_qrs(gf, 8, 2, 5), q2b.default_assignment(gf, 8)
        self.faults = {}  # name -> (kind, the error's bits, its F_q syndrome)
        for name, trial in (("wrong", wrong), ("boom", boom), ("refuse", refuse)):
            if trial is not None:
                kind, pos, value = trial
                W = np.zeros(8, dtype=np.int64)
                W[pos] = value
                expand = q2b.expand_dual if kind == "Z" else q2b.expand_vector
                syndrome = gf.matmul(qrs.decoders[kind].parity_check, W)
                self.faults[name] = kind, expand(assignment, W), syndrome
        monkeypatch.setattr(q2b, "end_to_end_decode", self.planted_pipeline)
        monkeypatch.setattr(q2b, "decode", self.planted_decoder)

    def hits(self, name, kind, stack):
        """The rows of a stack of bits or syndromes (or of one) that carry
        the error of fault name."""
        if name not in self.faults or self.faults[name][0] != kind:
            return []
        target = self.faults[name][1 if stack.shape[-1] == 24 else 2]
        return [i for i, row in enumerate(np.atleast_2d(stack)) if np.array_equal(row, target)]

    def planted_pipeline(self, qrs, assignment, plan, bits, kind):
        if self.hits("boom", kind, bits):
            raise RuntimeError(f"planted pipeline fault on a {kind} error")
        out = self.end_to_end_decode(qrs, assignment, plan, bits, kind)
        for i in self.hits("wrong", kind, bits):
            np.atleast_2d(out)[i, 0] ^= 1
        return out

    def planted_decoder(self, code, syndrome):
        kind = "Z" if code.k == 6 else "X"  # GRS_{n-k1} = GRS_6 decodes Z, GRS_{k2} = GRS_5 X
        for i in self.hits("refuse", kind, syndrome)[:1]:
            raise grs.DecodeFailure("planted refusal", stage="split", weight=1, radius=1, shot=i)
        return self.decode(code, syndrome)


def raised(criterion, seed):
    """criterion(seed), or the type and args of what it raised."""
    try:
        return criterion(seed)
    except (RuntimeError, grs.DecodeFailure) as exc:
        return type(exc).__name__, exc.args


@pytest.mark.parametrize("seed", [0, 3])
def test_qrs_planted_faults_reported_at_the_same_trial(monkeypatch, seed):
    """Alone and in pairs in either draw order, the first planted trial in
    draw order decides, with the one loop's message or exception."""
    trials = qrs_trials(seed)
    first = {}
    for i, trial in enumerate(trials):
        first.setdefault(trial, i)
    by_first = sorted(first, key=first.get)
    early, late = by_first[5], by_first[-5]
    kinds = ("wrong", "boom", "refuse")
    plans = [{k: early} for k in kinds] + [{a: early, b: late} for a in kinds for b in kinds if a != b]
    for faults in plans:
        QrsFaults(monkeypatch, **faults)
        got = raised(verify.criterion_qrs, seed)
        assert got == raised(reference_qrs, seed), faults
        name = next(k for k, v in faults.items() if v == early)
        if name == "wrong":
            assert got == (False, f"pipeline failed to recover a weight-1 {early[0]} error")
        elif name == "boom":
            assert got == ("RuntimeError", (f"planted pipeline fault on a {early[0]} error",))
        else:
            assert got == ("DecodeFailure", ("planted refusal", "split", 1, 1, 0))


def test_gate_identities_build_each_single_site_pauli_once(monkeypatch):
    """Criterion 5 builds X^beta and Z^beta once per field (2q) and its four
    two-site words per beta (4q): 6 * (2 + 4 + 8) matrices."""
    words = []
    build = oracle_mod.pauli_matrix
    monkeypatch.setattr(oracle_mod, "pauli_matrix", lambda P: words.append(P) or build(P))
    assert verify.criterion_gate_identities(0)[0]
    assert len(words) == 84
    fields = [make_field(s) for s in (1, 2, 3)]
    assert [P for P in words if P.n == 1] == [
        word(gf, [beta]) for gf in fields for word in (PauliWord.x_word, PauliWord.z_word)
        for beta in gf.elements()
    ]
