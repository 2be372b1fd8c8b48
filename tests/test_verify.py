"""Helpers of the acceptance criteria against their scalar references."""

import numpy as np
import pytest

from gqudits import grs, linalg, q2b, verify
from gqudits.bases import FieldBasis
from gqudits.field import make_field


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
    """Criterion 9 reads its [[24,9]] parameters and runs its decodes on one plan."""
    calls = []
    convert = q2b.convert_code
    monkeypatch.setattr(q2b, "convert_code", lambda *args: calls.append(args) or convert(*args))
    ok, detail = verify.criterion_qrs(0)
    assert ok and detail.startswith("[[24,9]] conversion") and len(calls) == 1
