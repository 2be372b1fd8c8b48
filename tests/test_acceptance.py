"""Acceptance suite: one test per criterion, each printing its PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or use the CLI equivalent `gqudits verify all --seed 0`.
"""

from gqudits import verify

SEED = 0


def _check(index, name, fn):
    ok, detail = fn(SEED)
    print(f"{'PASS' if ok else 'FAIL'} {index:2d} {name}: {detail}")
    assert ok, f"criterion {index} ({name}) failed: {detail}"


def test_criterion_01_field_suite():
    _check(1, "field-suite", verify.criterion_field)


def test_criterion_02_basis_suite():
    _check(2, "basis-suite", verify.criterion_bases)


def test_criterion_03_tableau_vs_oracle():
    _check(3, "tableau-vs-oracle", verify.criterion_tableau_oracle)


def test_criterion_04_cat_state_gadget():
    _check(4, "cat-state-gadget", verify.criterion_cat_gadget)


def test_criterion_05_gate_identities():
    _check(5, "gate-identities", verify.criterion_gate_identities)


def test_criterion_06_hierarchy_levels():
    _check(6, "hierarchy-levels", verify.criterion_hierarchy)


def test_criterion_07_isomorphism_suite():
    _check(7, "isomorphism-suite", verify.criterion_isomorphism)


def test_criterion_08_grs_suite():
    _check(8, "grs-suite", verify.criterion_grs)


def test_criterion_09_qrs_end_to_end():
    _check(9, "qrs-end-to-end", verify.criterion_qrs)


def test_verify_all_passes_and_is_stable():
    """run_all renders the report once and re-runs it for criterion 10; a
    third, independent run must render the same nine criterion lines."""
    report, ok = verify.run_all(SEED)
    assert ok
    lines = report.splitlines()
    assert len(lines) == 11 and lines[10] == f"OK (10/10 criteria passed, seed={SEED})"
    assert lines[9].startswith("PASS 10 determinism: two seeded runs rendered byte-identical")
    assert "\n".join(lines[:9]) == verify.render_report(verify.run_criteria(SEED))
