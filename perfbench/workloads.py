"""The four benchmark workloads: inputs from a seed, one op, and its output check.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs are generated here from the seed; the
program receives nothing but those inputs.  Output checks
use code of this directory (an F_2 rank over Python integers, coordinate
tables built by XOR) wherever an independent check is cheap.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Package functions are looked up through their modules so that the tracer's
# wrappers see the calls made here too.
from gqudits import bases, field, gates, grs, q2b, verify
from gqudits.errors import DecodeFailure

REFUSED = "refused"  # decode result when the program raises DecodeFailure


def f2_rank(M) -> int:
    """Rank over F_2 of a 0/1 matrix, by elimination on packed Python ints."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    packed = np.packbits((M & 1).astype(np.uint8), axis=1)
    pivots: dict[int, int] = {}
    for row in packed:
        r = int.from_bytes(row.tobytes(), "big")
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                break
            r ^= p
    return len(pivots)


def random_basis_elements(rng: np.random.Generator, s: int) -> list[int]:
    """Element codes of a uniformly random F_2-basis of F_{2^s}."""
    while True:
        M = rng.integers(0, 2, size=(s, s))
        if f2_rank(M) == s:
            return [int(sum(int(b) << i for i, b in enumerate(row))) for row in M]


def coordinate_table(elements, s: int) -> np.ndarray:
    """table[eta] = coordinates of eta in the basis, built by XOR of subsets."""
    table = np.zeros((1 << s, s), dtype=np.int64)
    for c in range(1 << s):
        eta = 0
        for i, e in enumerate(elements):
            if (c >> i) & 1:
                eta ^= e
        table[eta] = [(c >> i) & 1 for i in range(s)]
    return table


class _Hash:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(str(item.shape).encode() + np.ascontiguousarray(item).tobytes())
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class Verify:
    """op = verify.run_all(seed): the body of `gqudits verify all --seed <seed>`."""

    name = "verify"
    round = 1
    prefix = 1  # ops whose counts are reported as exact.*

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first_report: str | None = None
        h = _Hash()
        h.add("verify", seed)
        self.inputs_sha256 = h.hexdigest()
        self.sizes = {"criteria": 10, "run_all_seed": seed}

    def op(self, i: int):
        return verify.run_all(self.seed)

    def check(self, i: int, result) -> bool:
        report, ok = result
        lines = report.rstrip("\n").split("\n")
        good = (
            ok
            and len(lines) == 11
            and all(line.startswith("PASS") for line in lines[:10])
            and lines[10].startswith("OK (10/10")
        )
        if self.first_report is None:
            self.first_report = report
        return good and report == self.first_report

    def notes(self) -> dict:
        report = self.first_report or ""
        return {"report_sha256": hashlib.sha256(report.encode()).hexdigest()}


class Decode:
    """op = one q2b.end_to_end_decode shot on QRS_{16,48} over F_64, n = 64."""

    name = "decode"
    S, N, K1, K2 = 6, 64, 16, 48
    # A shot's cost grows with the error weight, so every pool holds the same
    # weights: 7 shots of each weight 0..8 and 3 each of 9, 10 and 11, beyond
    # the radius (1 in 8).  Runs cover whole pools, so the latency mix and its
    # median hardly depend on the seed.
    WEIGHTS = [w for w in range(9) for _ in range(7)] + [9, 10, 11] * 3
    POOL = len(WEIGHTS)
    round = POOL
    prefix = 16

    def __init__(self, seed: int) -> None:
        gf = field.make_field(self.S)
        self.qrs = grs.make_qrs(gf, self.N, self.K1, self.K2)
        self.assignment = q2b.default_assignment(gf, self.N)
        self.plan = q2b.make_plan(self.qrs.css, self.assignment)
        # Z errors are decoded against GRS_{n-k1}, X errors against GRS_{k2}
        self.radius = {"Z": self.K1 // 2, "X": (self.N - self.K2) // 2}
        tables = {
            "X": [coordinate_table(b.elements, self.S) for b in self.assignment.bases],
            "Z": [coordinate_table(b.dual().elements, self.S) for b in self.assignment.bases],
        }
        rng = np.random.default_rng(seed)
        h = _Hash()
        self.shots = []
        for j, weight in enumerate(rng.permutation(self.WEIGHTS).tolist()):
            kind = "Z" if j % 2 == 0 else "X"
            err = np.zeros(self.N, dtype=np.int64)
            pos = rng.choice(self.N, size=weight, replace=False)
            err[pos] = rng.integers(1, gf.q, size=weight)
            bits = np.concatenate([tables[kind][i][err[i]] for i in range(self.N)])
            self.shots.append((kind, weight, bits))
            h.add(kind, bits)
        self.inputs_sha256 = h.hexdigest()
        beyond = sum(1 for _, w, _ in self.shots if w > self.radius["Z"])
        self.sizes = {
            "q": gf.q, "n": self.N, "k1": self.K1, "k2": self.K2, "radius": self.radius["Z"],
            "pool": self.POOL, "pool_beyond_radius": beyond,
        }
        self.refused = 0

    def op(self, i: int):
        kind, _, bits = self.shots[i % self.POOL]
        try:
            return q2b.end_to_end_decode(self.qrs, self.assignment, self.plan, bits, kind)
        except DecodeFailure:
            return REFUSED

    def check(self, i: int, result) -> bool:
        kind, weight, bits = self.shots[i % self.POOL]
        radius = self.radius[kind]
        if weight <= radius:
            return not isinstance(result, str) and np.array_equal(result, bits)
        if isinstance(result, str):
            self.refused += 1
            return result == REFUSED
        r = np.asarray(result)
        if r.shape != bits.shape or np.any((r != 0) & (r != 1)):
            return False
        checks = self.plan.x_checks if kind == "Z" else self.plan.z_checks
        same_syndrome = all(np.array_equal(g @ r % 2, g @ bits % 2) for g in checks)
        fq_weight = int(r.reshape(self.N, self.S).any(axis=1).sum())
        return same_syndrome and fq_weight <= radius

    def notes(self) -> dict:
        return {"refused_beyond_radius": self.refused}


class Convert:
    """op = one QRS -> qubit bundle at q = 256, n = 128 with random bases."""

    name = "convert"
    # A bundle's cost grows with k1^2 + (n - k2)^2 (F_2 elimination) and
    # with k2 - k1 (expansion).  Each run cycles over INSTANCES codes whose
    # k1 and k2 are drawn one from each equal slice of their ranges, and the
    # j-th slices are paired (small k1 with small k2), so the codes of a run
    # cost about the same and neither a round nor its median depends much on
    # the seed.
    INSTANCES = 4
    round = INSTANCES
    prefix = 1
    S, N = 8, 128

    def __init__(self, seed: int) -> None:
        gf = field.make_field(self.S)
        self.gf = gf
        rng = np.random.default_rng(seed)
        h = _Hash()
        self.instances = []
        n = self.N
        k1s = self._stratified(rng, n // 8, n // 4)
        k2s = self._stratified(rng, 3 * n // 4, 7 * n // 8)
        for k1, k2 in zip(k1s, k2s):
            alpha = rng.permutation(gf.q)[:n].astype(np.int64)
            v = rng.integers(1, gf.q, size=n, dtype=np.int64)
            elements = [random_basis_elements(rng, self.S) for _ in range(n)]
            h.add(k1, k2, alpha, v, elements)
            assignment = bases.BasisAssignment([bases.FieldBasis(gf, els) for els in elements])
            assignment.duals()  # dual bases are part of basis construction
            self.instances.append((k1, k2, alpha, v, assignment))
        self.inputs_sha256 = h.hexdigest()
        self.sizes = {
            "q": gf.q, "n": n,
            "k1_k2": [(k1, k2) for k1, k2, *_ in self.instances],
            "non_self_dual_bases": [
                sum(b.dual().elements != b.elements for b in a.bases) for *_, a in self.instances
            ],
        }

    def _stratified(self, rng, lo: int, hi: int) -> list[int]:
        """One draw from each of INSTANCES equal slices of [lo, hi)."""
        width = (hi - lo) // self.INSTANCES
        return [lo + j * width + int(rng.integers(0, width)) for j in range(self.INSTANCES)]

    def op(self, i: int):
        k1, k2, alpha, v, assignment = self.instances[i % len(self.instances)]
        qrs = grs.make_qrs(self.gf, self.N, k1, k2, alpha, v)
        code = q2b.convert_code(qrs.css, assignment)
        plan = q2b.make_plan(qrs.css, assignment)
        z_space, x_space = q2b.convert_logicals(qrs.css, assignment)
        k = code.k
        return code, plan, z_space, x_space, k, q2b.export_alist(code.hx), q2b.export_alist(code.hz)

    def check(self, i: int, result) -> bool:
        k1, k2, *_ = self.instances[i % len(self.instances)]
        code, plan, z_space, x_space, k, alist_hx, alist_hz = result
        s, n = self.S, self.N
        ns = s * n
        return (
            k == s * (k2 - k1)
            and code.hx.shape == (s * k1, ns)
            and code.hz.shape == (s * (n - k2), ns)
            and f2_rank(code.hx) == s * k1
            and f2_rank(code.hz) == s * (n - k2)
            and plan.total_checks == s * (k1 + n - k2)
            and z_space.shape == (s * (n - k1), ns)
            and x_space.shape == (s * k2, ns)
            and np.array_equal(q2b.import_alist(alist_hx), code.hx)
            and np.array_equal(q2b.import_alist(alist_hz), code.hz)
        )

    def notes(self) -> dict:
        return {}


class Hierarchy:
    """op = one gates.hierarchy_level(U, 4) query over a fixed gate zoo."""

    name = "hierarchy"
    MAX_LEVEL = 4

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        f4, f8, f64, f128 = (field.make_field(s) for s in (2, 3, 6, 7))
        zoo = []  # (label, operator, expected level)
        cczs = [(g, gates.build_gate(f4, "ccz", gamma=g)) for g in f4.nonzero_elements()]
        zoo += [(f"ccz{g}@4", U, 3) for g, U in cczs]
        images = bases.BasisAssignment(
            [bases.FieldBasis(f4, random_basis_elements(rng, 2)) for _ in range(3)]
        )
        zoo += [(f"pi(ccz{g}@4)", gates.pi_map(images, U), 3) for g, U in cczs]
        zoo.append(("cnot@8", gates.build_gate(f8, "cnot"), 2))
        zoo.append(("u11@64", self._nonidentity_u(f64, 11, rng), 3))
        zoo.append(("t@64", gates.build_gate(f64, "t", gamma=int(rng.integers(1, 64))), 3))
        zoo.append(("s@64", gates.build_gate(f64, "s", gamma=int(rng.integers(1, 64))), 2))
        zoo.append(("mult@64", gates.build_gate(f64, "mult", delta=int(rng.integers(2, 64))), 2))
        zoo.append(("h@64", gates.build_gate(f64, "hadamard"), 2))
        zoo.append(("u7@128", self._nonidentity_u(f128, 7, rng), 3))
        # Passes visit the zoo in this fixed order, so the warm-up op (op 0,
        # the first CCZ) is the same for every seed.
        self.zoo = zoo
        self.round = len(zoo)
        self.prefix = len(zoo)
        h = _Hash()
        for label, U, level in zoo:
            h.add(label, U.mat, level)
        self.inputs_sha256 = h.hexdigest()
        self.sizes = {"gates": len(zoo), "dims": sorted({U.dim for _, U, _ in zoo})}

    @staticmethod
    def _nonidentity_u(gf, npow: int, rng):
        # U_n^beta is the identity when tr(beta x^n) vanishes for every x
        while True:
            U = gates.build_gate(gf, "u_n", n=npow, beta=int(rng.integers(1, gf.q)))
            if not np.allclose(U.mat, np.eye(U.dim)):
                return U

    def op(self, i: int):
        label, U, _ = self.zoo[i % len(self.zoo)]
        return gates.hierarchy_level(U, self.MAX_LEVEL, label)

    def check(self, i: int, result) -> bool:
        _, _, expected = self.zoo[i % len(self.zoo)]
        return result.level == expected

    def notes(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Verify, Decode, Convert, Hierarchy)}
