"""Command-line front end.

Subcommands: field info|table, basis selfdual|dual, code qrs|params|
to-qubits|export, sim measure|cat-demo, gates level, verify all.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import css as css_mod
from . import gates as gates_mod
from . import grs as grs_mod
from . import q2b as q2b_mod
from . import tableau as tab_mod
from . import verify as verify_mod
from .bases import FieldBasis, dual_basis, find_self_dual
from .errors import GquditError, InvalidArgument
from .field import GF, check_int, make_field, poly_str
from .pauli import PauliWord


def _field_from_args(args) -> GF:
    if getattr(args, "modulus", None) is not None:
        return make_field(modulus=args.modulus)
    q = getattr(args, "q", None)
    if q is None:
        raise InvalidArgument("need --q or --modulus")
    s = check_int(q, "q", 2).bit_length() - 1
    if 1 << s != q:
        raise InvalidArgument(f"q = {q} is not a power of 2")
    return make_field(s)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _write(args, text: str) -> None:
    """text to the file --out names, or to stdout without one."""
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _codes_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


# -- field ------------------------------------------------------------------------


def cmd_field_info(args) -> int:
    gf = _field_from_args(args)
    _emit(
        {
            "q": gf.q,
            "s": gf.s,
            "modulus": gf.modulus,
            "modulus_poly": poly_str(gf.modulus),
            "primitive": gf.primitive,
        }
    )
    return 0


def cmd_field_table(args) -> int:
    gf = _field_from_args(args)
    print(f"# multiplication table for F_{gf.q}, modulus {poly_str(gf.modulus)}")
    width = len(str(gf.q - 1))
    for a in gf.elements():
        print(" ".join(f"{gf.mul(a, b):{width}d}" for b in gf.elements()))
    return 0


# -- basis ------------------------------------------------------------------------


def cmd_basis_selfdual(args) -> int:
    gf = _field_from_args(args)
    basis = find_self_dual(gf)
    _emit({"q": gf.q, "elements": list(basis.elements), "self_dual": True})
    return 0


def cmd_basis_dual(args) -> int:
    gf = _field_from_args(args)
    basis = FieldBasis(gf, _codes_list(args.elements))
    dual = dual_basis(basis)
    _emit({"q": gf.q, "elements": list(basis.elements), "dual": list(dual.elements)})
    return 0


# -- code -------------------------------------------------------------------------


def cmd_code_qrs(args) -> int:
    gf = _field_from_args(args)
    alpha = _codes_list(args.alpha) if args.alpha else None
    v = _codes_list(args.v) if args.v else None
    qrs = grs_mod.make_qrs(gf, args.n, args.k1, args.k2, alpha, v)
    _write(args, json.dumps(qrs.to_json(), sort_keys=True) + "\n")
    return 0


def cmd_code_params(args) -> int:
    code = css_mod.CssCode.from_json(json.loads(Path(args.infile).read_text()))
    p = css_mod.params(code, args.budget)
    _emit(p.to_json())
    return 0


def cmd_code_to_qubits(args) -> int:
    code = css_mod.CssCode.from_json(json.loads(Path(args.infile).read_text()))
    if args.basis:
        basis = FieldBasis(code.gf, _codes_list(args.basis))
        assignment = q2b_mod.BasisAssignment.uniform(basis, code.n)
    else:
        assignment = q2b_mod.default_assignment(code.gf, code.n)
    qubit = q2b_mod.convert_code(code, assignment)
    _write(args, json.dumps(qubit.to_json(), sort_keys=True) + "\n")
    return 0


def cmd_code_export(args) -> int:
    bundle = q2b_mod.QubitCssCode.from_json(json.loads(Path(args.infile).read_text()))
    M = bundle.hx if args.matrix == "hx" else bundle.hz
    _write(args, q2b_mod.export_alist(M) if args.format == "alist" else q2b_mod.export_dense(M))
    return 0


# -- sim --------------------------------------------------------------------------


def cmd_sim_measure(args) -> int:
    t = tab_mod.CssTableau.from_json(json.loads(Path(args.infile).read_text()))
    P = PauliWord.from_text(t.gf, args.pauli)
    rng = np.random.default_rng(args.seed)
    outcome, t2 = tab_mod.measure(t, P, rng)
    _emit({"outcome": outcome, "tableau": tab_mod.canonical_form(t2).to_json()})
    return 0


def cmd_sim_cat_demo(args) -> int:
    gf = _field_from_args(args)
    gammas = _codes_list(args.gammas)
    rng = np.random.default_rng(args.seed)
    res = tab_mod.run_cat_gadget(gf, gammas, args.eta, rng)
    _emit(
        {
            "gammas": gammas,
            "planted": args.eta,
            "outcomes": res.outcomes,
            "recovered": res.recovered,
            "match": res.recovered == args.eta,
        }
    )
    return 0


# -- gates ------------------------------------------------------------------------


def cmd_gates_level(args) -> int:
    gf = _field_from_args(args)
    flags = (("gamma", "gamma"), ("beta", "beta"), ("delta", "delta"), ("l", "l"), ("power", "n"))
    params = {key: getattr(args, flag) for flag, key in flags if getattr(args, flag) is not None}
    U = gates_mod.build_gate(gf, args.gate, **params)
    report = gates_mod.hierarchy_level(U, args.max_level, args.gate)
    _emit(report.to_json())
    return 0


# -- verify -----------------------------------------------------------------------


def cmd_verify_all(args) -> int:
    report, ok = verify_mod.run_all(args.seed)
    sys.stdout.write(report)
    return 0 if ok else 1


# -- parser -----------------------------------------------------------------------


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, help="field size 2^s (canonical modulus)")
    p.add_argument("--modulus", type=int, help="packed modulus polynomial, e.g. 11")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gqudits", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)

    field = sub.add_parser("field", help="field construction and tables")
    fsub = field.add_subparsers(dest="cmd", required=True)
    p = fsub.add_parser("info")
    _add_field_args(p)
    p.set_defaults(fn=cmd_field_info)
    p = fsub.add_parser("table")
    _add_field_args(p)
    p.set_defaults(fn=cmd_field_table)

    basis = sub.add_parser("basis", help="dual and self-dual bases")
    bsub = basis.add_subparsers(dest="cmd", required=True)
    p = bsub.add_parser("selfdual")
    _add_field_args(p)
    p.set_defaults(fn=cmd_basis_selfdual)
    p = bsub.add_parser("dual")
    _add_field_args(p)
    p.add_argument("--elements", required=True, help="comma-separated basis codes")
    p.set_defaults(fn=cmd_basis_dual)

    code = sub.add_parser("code", help="code construction, parameters, conversion")
    csub = code.add_subparsers(dest="cmd", required=True)
    p = csub.add_parser("qrs")
    _add_field_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--alpha", help="comma-separated evaluation points")
    p.add_argument("--v", help="comma-separated column multipliers")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_code_qrs)
    p = csub.add_parser("params")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=_positive_int, default=css_mod.DEFAULT_DISTANCE_BUDGET)
    p.set_defaults(fn=cmd_code_params)
    p = csub.add_parser("to-qubits")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--basis", help="comma-separated basis codes used on every qudit")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_code_to_qubits)
    p = csub.add_parser("export")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--matrix", choices=("hx", "hz"), default="hx")
    p.add_argument("--format", choices=("alist", "dense"), default="alist")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_code_export)

    sim = sub.add_parser("sim", help="tableau simulation")
    ssub = sim.add_subparsers(dest="cmd", required=True)
    p = ssub.add_parser("measure")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pauli", required=True, help="word text, e.g. '+|x:[1,1]|z:[0,0]'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sim_measure)
    p = ssub.add_parser("cat-demo")
    _add_field_args(p)
    p.add_argument("--gammas", required=True, help="four non-zero codes, comma separated")
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sim_cat_demo)

    gates = sub.add_parser("gates", help="gate zoo and hierarchy levels")
    gsub = gates.add_subparsers(dest="cmd", required=True)
    p = gsub.add_parser("level")
    _add_field_args(p)
    p.add_argument(
        "--gate",
        required=True,
        choices=("x", "z", "hadamard", "mult", "cnot", "ccz", "multi_cz", "u_n", "s", "t"),
    )
    p.add_argument("--gamma", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--power", type=int, help="the exponent n of u_n")
    p.add_argument("--max-level", type=_positive_int, default=4)
    p.set_defaults(fn=cmd_gates_level)

    ver = sub.add_parser("verify", help="acceptance criteria")
    vsub = ver.add_subparsers(dest="cmd", required=True)
    p = vsub.add_parser("all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GquditError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
