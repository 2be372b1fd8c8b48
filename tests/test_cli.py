"""Command-line surface: subcommands, artifacts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from gqudits.cli import main
from gqudits.field import make_field
from gqudits.gates import build_gate, hierarchy_level
from gqudits.q2b import import_alist
from gqudits.tableau import new_tableau


DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestField:
    def test_info(self, capsys):
        code, out = run(capsys, "field", "info", "--modulus", "11")
        assert code == 0
        data = json.loads(out)
        assert data["q"] == 8 and data["modulus_poly"] == "x^3 + x + 1"

    def test_table_contains_worked_product(self, capsys):
        code, out = run(capsys, "field", "table", "--modulus", "11")
        assert code == 0
        rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
        assert rows[0b110][0b111] == str(0b100)


class TestBasis:
    def test_selfdual(self, capsys):
        code, out = run(capsys, "basis", "selfdual", "--q", "4")
        assert code == 0 and json.loads(out)["elements"] == [2, 3]

    def test_dual(self, capsys):
        code, out = run(capsys, "basis", "dual", "--q", "8", "--elements", "1,2,4")
        data = json.loads(out)
        gf = make_field(3)
        for i, a in enumerate(data["elements"]):
            for j, b in enumerate(data["dual"]):
                assert gf.trace(gf.mul(a, b)) == (1 if i == j else 0)


class TestCodePipeline:
    def test_qrs_params_to_qubits_export(self, capsys, tmp_path):
        qrs_path = tmp_path / "qrs.json"
        code, _ = run(
            capsys, "code", "qrs", "--q", "8", "--n", "8", "--k1", "2", "--k2", "5",
            "--out", str(qrs_path),
        )
        assert code == 0
        data = json.loads(qrs_path.read_text())
        assert data["k1"] == 2 and len(data["gx"]) == 2 and len(data["gz"]) == 3

        code, out = run(capsys, "code", "params", "--in", str(qrs_path))
        params = json.loads(out)
        assert (params["k"], params["d_x"], params["d_z"]) == (3, 4, 3)

        bundle_path = tmp_path / "bundle.json"
        code, _ = run(capsys, "code", "to-qubits", "--in", str(qrs_path), "--out", str(bundle_path))
        assert code == 0
        bundle = json.loads(bundle_path.read_text())
        assert len(bundle["hx"][0]) == 24

        code, out = run(capsys, "code", "export", "--in", str(bundle_path), "--matrix", "hx",
                        "--format", "alist")
        assert code == 0
        back = import_alist(out)
        assert np.array_equal(back, np.array(bundle["hx"]))

        code, out = run(capsys, "code", "export", "--in", str(bundle_path), "--matrix", "hz",
                        "--format", "dense")
        assert out.splitlines()[0] == "".join(str(b) for b in bundle["hz"][0])


class TestSim:
    def test_measure_deterministic_row(self, capsys, tmp_path):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [2], [0])
        path = tmp_path / "t.json"
        path.write_text(json.dumps(t.to_json()))
        code, out = run(capsys, "sim", "measure", "--in", str(path),
                        "--pauli", "+|x:[1,1]|z:[0,0]", "--seed", "0")
        assert code == 0 and json.loads(out)["outcome"] == 2

    def test_cat_demo(self, capsys):
        code, out = run(capsys, "sim", "cat-demo", "--q", "8", "--gammas", "1,2,3,4",
                        "--eta", "5", "--seed", "0")
        data = json.loads(out)
        assert code == 0 and data["recovered"] == 5 and data["match"] is True


class TestGates:
    def test_level_report(self, capsys):
        code, out = run(capsys, "gates", "level", "--gate", "ccz", "--q", "4",
                        "--gamma", "1", "--max-level", "4")
        data = json.loads(out)
        assert code == 0 and data["level"] == 3

    def test_u_n_identity(self, capsys):
        gf = make_field(3)
        beta = next(b for b in gf.elements() if b and gf.trace(b) == 0)
        code, out = run(capsys, "gates", "level", "--gate", "u_n", "--q", "8",
                        "--power", "7", "--beta", str(beta))
        assert json.loads(out)["level"] == 1  # the identity is a Pauli multiple

    def test_multi_cz_site_count(self, capsys):
        code, out = run(capsys, "gates", "level", "--gate", "multi_cz", "--q", "4",
                        "--l", "2", "--gamma", "1")
        want = hierarchy_level(build_gate(make_field(2), "multi_cz", l=2, gamma=1), 4, "multi_cz")
        assert code == 0 and json.loads(out) == want.to_json()

    @pytest.mark.parametrize("level", ["0", "-3"])
    def test_max_level_below_one_is_two(self, capsys, level):
        with pytest.raises(SystemExit) as exc:
            main(["gates", "level", "--gate", "ccz", "--q", "4", "--gamma", "1",
                  "--max-level", level])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["code", "qrs", "--q", "8"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_subcommand_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_domain_errors_are_two(self, capsys):
        assert main(["gates", "level", "--gate", "mult", "--q", "4"]) == 2
        assert main(["gates", "level", "--gate", "mult", "--q", "4", "--delta", "0"]) == 2
        assert main(["field", "info", "--q", "7"]) == 2
        assert main(["field", "info", "--modulus", "5"]) == 2  # reducible
        capsys.readouterr()

    @pytest.mark.parametrize("eta", ["-1", "99"])
    def test_cat_demo_eta_outside_field_is_two(self, capsys, eta):
        code = main(["sim", "cat-demo", "--q", "8", "--gammas", "1,2,3,4", "--eta", eta])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and f"code {eta} outside [0, 8)" in err

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["code", "to-qubits"], "modulus"),
            (["code", "params"], "modulus"),
            (["code", "export"], "qudit_code"),
            (["sim", "measure", "--pauli", "+|x:[1]|z:[0]"], "modulus"),
        ],
    )
    def test_document_missing_key_is_two(self, capsys, tmp_path, argv, key):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"q": 8}))
        assert main(argv + ["--in", str(path)]) == 2
        assert f"missing key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["code", "to-qubits"], ["sim", "measure", "--pauli", "+"]])
    def test_document_not_an_object_is_two(self, capsys, tmp_path, argv):
        path = tmp_path / "doc.json"
        path.write_text("[8]")
        assert main(argv + ["--in", str(path)]) == 2
        assert "expected a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,doc,key",
        [
            (["code", "params"], {"modulus": 11, "gx": 5, "gz": []}, "gx"),
            (["code", "params"], {"modulus": "7", "gx": [], "gz": []}, "modulus"),
            (["code", "params"], {"modulus": 11, "gx": [], "gz": [[1, 2.5]]}, "gz"),
            (
                ["sim", "measure", "--pauli", "+|x:[1,1]|z:[0,0]"],
                {"modulus": 7, "xrows": [[1, 1]], "zrows": [[1, 1]], "xsyn": [0.5], "zsyn": [0]},
                "xsyn",
            ),
            (
                ["sim", "measure", "--pauli", "+|x:[1,1]|z:[0,0]"],
                {"modulus": 7, "xrows": [[1, True]], "zrows": [[1, 1]], "xsyn": [0], "zsyn": [0]},
                "xrows",
            ),
            (
                ["code", "export"],
                {"qudit_code": {"modulus": 3, "gx": [[1, 1]], "gz": []},
                 "basis_assignment": [[1], [1]], "hx": [[1, 1]], "hz": [1, 0]},
                "hz",
            ),
        ],
    )
    def test_document_value_type_is_two(self, capsys, tmp_path, argv, doc, key):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"key {key!r} must be" in err


    @pytest.mark.parametrize(
        "argv,doc,key,row",
        [
            (["code", "params"], {"modulus": 11, "gx": [[1, 2], [3]], "gz": []}, "gx", 1),
            (
                ["sim", "measure", "--pauli", "+|x:[1,1]|z:[0,0]"],
                {"modulus": 7, "xrows": [[1, 1]], "zrows": [[1, 1], [1, 1, 0]],
                 "xsyn": [0], "zsyn": [0, 0]},
                "zrows",
                1,
            ),
            (
                ["code", "export"],
                {"qudit_code": {"modulus": 3, "gx": [[1, 1]], "gz": []},
                 "basis_assignment": [[1], [1]], "hx": [[1, 1], [1, 1], [1]], "hz": []},
                "hx",
                2,
            ),
        ],
    )
    def test_document_ragged_matrix_is_two(self, capsys, tmp_path, argv, doc, key, row):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"key {key!r}: row {row} has" in err

    @pytest.mark.parametrize(
        "argv,doc,key",
        [
            (["code", "params"], {"modulus": 11, "gx": [[1, 2, 3]], "gz": [[1, 1]]}, "gz"),
            (
                ["sim", "measure", "--pauli", "+|x:[1,1]|z:[0,0]"],
                {"modulus": 7, "xrows": [[1, 1]], "zrows": [[1, 1, 0]], "xsyn": [0], "zsyn": [0]},
                "zrows",
            ),
            (
                ["code", "export"],
                {"qudit_code": {"modulus": 3, "gx": [[1, 1]], "gz": []},
                 "basis_assignment": [[1], [1]], "hx": [[1, 1, 0]], "hz": []},
                "hx",
            ),
            (
                ["code", "export"],
                {"qudit_code": {"modulus": 3, "gx": [[1, 1]], "gz": []},
                 "basis_assignment": [[1]], "hx": [[1, 1]], "hz": []},
                "basis_assignment",
            ),
        ],
    )
    def test_document_width_mismatch_is_two(self, capsys, tmp_path, argv, doc, key):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"key {key!r}:" in err

    @pytest.mark.parametrize("budget", ["-3", "0", "many"])
    def test_params_budget_below_one_is_two(self, capsys, tmp_path, budget):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"modulus": 11, "gx": [], "gz": []}))
        with pytest.raises(SystemExit) as exc:
            main(["code", "params", "--in", str(path), "--budget", budget])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "argument --budget: expected a positive integer" in err

    def test_qrs_alpha_of_another_length_than_n_is_two(self, capsys):
        argv = ["code", "qrs", "--q", "8", "--n", "8", "--k1", "1", "--k2", "2"]
        assert main(argv + ["--alpha", "0,1,2", "--v", "1,1,1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "n = 8, but alpha has 3 entries and v has 3" in err

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (
                ["sim", "measure", "--pauli", "+|x:[1]|z:[0]"],
                {"q": 4, "modulus": 11, "xrows": [[1]], "zrows": [], "xsyn": [5], "zsyn": []},
            ),
            (["code", "params"], {"q": 16, "modulus": 11, "gx": [[1, 1]], "gz": []}),
        ],
    )
    def test_document_q_other_than_modulus_is_two(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "key 'q'" in err


class TestGolden:
    """CLI outputs that must stay byte-identical, stored in tests/data/."""

    def test_verify_report(self, capsys):
        code, out = run(capsys, "verify", "all", "--seed", "0")
        assert code == 0 and out == (DATA / "verify_all_seed0.txt").read_text()

    @pytest.mark.parametrize("case", json.loads((DATA / "sim_golden.json").read_text())["measure"])
    def test_sim_measure(self, capsys, case):
        code, out = run(capsys, "sim", "measure", "--in", str(DATA / case["tableau"]),
                        "--pauli", case["pauli"], "--seed", str(case["seed"]))
        assert code == 0 and out == case["stdout"]

    @pytest.mark.parametrize("case", json.loads((DATA / "sim_golden.json").read_text())["cat_demo"])
    def test_sim_cat_demo(self, capsys, case):
        code, out = run(capsys, "sim", "cat-demo", *case["args"])
        assert code == 0 and out == case["stdout"]
