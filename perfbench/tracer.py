"""Per-layer spans and counters for gqudits, installed from outside the package.

The tracer wraps public functions of each gqudits module at every place the
name is looked up, records call counts, inclusive time and self time, and
restores the original objects afterwards.  Nothing inside the package knows
about it.

Three kinds of lookup site are covered:

* module attributes: every ``gqudits.*`` module that holds the function
  object (``q2b`` binds ``decode`` by name, the package re-exports most
  names), found by identity;
* class attributes: ``GF`` and ``FieldBasis`` methods are patched on the
  class, so calls through ``self`` are seen;
* list entries: ``verify.run_criteria`` iterates ``verify._CRITERIA``, a
  list of ``(name, function)`` tuples, so those tuples are replaced.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Each span: (metric prefix, "module:attr" targets, workloads it must run on).
# "mostly on" means the span records at least one call on that workload,
# in its set-up or in its timed ops (see selftest.py).
SPANS: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = [
    ("grs.decode", ("gqudits.grs:decode",), ("decode",)),
    ("field.mul_arr", ("gqudits.field:GF.mul_arr",), ("decode", "convert")),
    ("field.make_field", ("gqudits.field:make_field",), ("decode", "convert")),
    ("bases.decompose", ("gqudits.bases:FieldBasis.decompose",), ("convert",)),
    ("bases.decompose_arr", ("gqudits.bases:FieldBasis.decompose_arr",), ("hierarchy",)),
    ("bases.dual_basis", ("gqudits.bases:dual_basis",), ("convert",)),
    ("bases.find_self_dual", ("gqudits.bases:find_self_dual",), ("convert",)),
    ("linalg.f2.rref", ("gqudits.linalg:rref_augmented",), ("convert",)),
    ("linalg.fq.rref", ("gqudits.linalg:rref_augmented",), ("verify",)),
    ("q2b.end_to_end_decode", ("gqudits.q2b:end_to_end_decode",), ("decode",)),
    ("q2b.reconstruct_syndrome", ("gqudits.q2b:reconstruct_syndrome",), ("decode",)),
    ("q2b.expand", ("gqudits.q2b:expand_vector", "gqudits.q2b:expand_dual"), ("decode", "convert")),
    ("q2b.convert_code", ("gqudits.q2b:convert_code",), ("convert",)),
    ("q2b.make_plan", ("gqudits.q2b:make_plan",), ("convert",)),
    ("q2b.convert_logicals", ("gqudits.q2b:convert_logicals",), ("convert",)),
    ("q2b.export_alist", ("gqudits.q2b:export_alist",), ("convert",)),
    ("tableau.measure", ("gqudits.tableau:measure",), ("verify",)),
    ("tableau.deterministic_outcome", ("gqudits.tableau:deterministic_outcome",), ("verify",)),
    ("tableau.measure_postselect", ("gqudits.tableau:measure_postselect",), ("verify",)),
    ("tableau.new_tableau", ("gqudits.tableau:new_tableau",), ("verify",)),
    ("oracle.stabiliser_state", ("gqudits.oracle:stabiliser_state",), ("verify",)),
    ("oracle.collapse", ("gqudits.oracle:collapse",), ("verify",)),
    ("oracle.born_probabilities", ("gqudits.oracle:born_probabilities",), ("verify",)),
    ("oracle.pauli_matrix", ("gqudits.oracle:pauli_matrix",), ("verify", "hierarchy")),
    ("gates.hierarchy_level", ("gqudits.gates:hierarchy_level",), ("hierarchy",)),
    ("gates.is_pauli_multiple", ("gqudits.gates:is_pauli_multiple",), ("hierarchy",)),
    ("gates.pi_map", ("gqudits.gates:pi_map",), ("hierarchy",)),
    ("gates.build_gate", ("gqudits.gates:build_gate",), ("hierarchy",)),
    ("css.new_css", ("gqudits.css:new_css",), ("convert",)),
    ("css.dual_space", ("gqudits.css:dual_space",), ("convert",)),
]

# The nine criteria of verify.run_criteria, by their report names.
CRITERIA = (
    "field-suite",
    "basis-suite",
    "tableau-vs-oracle",
    "cat-state-gadget",
    "gate-identities",
    "hierarchy-levels",
    "isomorphism-suite",
    "grs-suite",
    "qrs-end-to-end",
)
CRITERION_SPANS = [f"verify.criterion.{name}" for name in CRITERIA]

# Counters: (name, workloads it must be non-zero on).  grs.decode.refused
# depends on the drawn errors: a short run may refuse no shot.
COUNTERS: list[tuple[str, tuple[str, ...]]] = [
    ("field.mul.calls", ("decode", "convert")),
    ("field.inv.calls", ("decode", "convert")),
    ("field.mul_arr.elems", ("decode", "convert")),
    ("grs.decode.refused", ()),
    ("linalg.f2.rref.cells", ("convert",)),
    ("linalg.fq.rref.cells", ("verify",)),
]

# Counts over the first ops of a traced run (Workload.prefix of them), which
# repeat exactly for a given seed: metric -> ("count" | "span", source).
EXACT: list[tuple[str, tuple[str, str]]] = [
    ("exact.field.mul.calls", ("count", "field.mul.calls")),
    ("exact.bases.decompose.calls", ("span", "bases.decompose")),
    ("exact.gates.is_pauli_multiple.calls", ("span", "gates.is_pauli_multiple")),
    ("exact.linalg.f2.rref.cells", ("count", "linalg.f2.rref.cells")),
    ("exact.linalg.fq.rref.cells", ("count", "linalg.fq.rref.cells")),
]

# Spans whose time during set-up (construction and warm-up) is reported.
SETUP_SPANS = ("field.make_field", "bases.find_self_dual")


def _resolve(spec: str):
    """'pkg.mod:Class.attr' -> (owner, attribute name, object)."""
    modname, path = spec.split(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "gqudits" or name.startswith("gqudits."))
    ]


class Tracer:
    """Aggregated spans and counters over every lookup site of the targets.

    ``spans[name] = [calls, inclusive seconds, self seconds]``; a span's self
    time is its duration minus the time covered by its child spans.  A call
    whose innermost open span has the same name (``expand_dual`` calling
    ``expand_vector``) is not recorded again.
    """

    def __init__(self) -> None:
        importlib.import_module("gqudits")
        verify = importlib.import_module("gqudits.verify")
        self.spans: dict[str, list] = {}
        self.counts: dict[str, list] = {name: [0] for name, _ in COUNTERS}
        self._stack: list[list] = []
        # (owner, key, original, replacement); owner is a module, class or list
        self._sites: list[tuple[object, object, object, object]] = []

        field_mod = importlib.import_module("gqudits.field")
        for attr in ("mul", "inv"):
            self._add(field_mod.GF, attr, self._counting(vars(field_mod.GF)[attr], f"field.{attr}.calls"))
        for name, specs, _ in SPANS:
            if name == "linalg.fq.rref":
                continue  # one wrapper serves both rref spans
            for spec in specs:
                owner, attr, fn = _resolve(spec)
                if name == "linalg.f2.rref":
                    wrapper = self._span(fn, _rref_name, after=self._count_cells)
                elif name == "field.mul_arr":
                    wrapper = self._span(fn, name, after=self._count_elems)
                elif name == "grs.decode":
                    wrapper = self._span(fn, name, refused=_decode_failure())
                else:
                    wrapper = self._span(fn, name)
                self._add(owner, attr, wrapper, by_identity=True)
        by_name = dict(verify._CRITERIA)
        missing = [c for c in CRITERIA if c not in by_name]
        if missing:
            raise LookupError(f"verify._CRITERIA lacks {missing}")
        for i, entry in enumerate(verify._CRITERIA):
            cname, fn = entry
            if cname in CRITERIA:
                wrapper = self._span(fn, f"verify.criterion.{cname}")
                self._sites.append((verify._CRITERIA, i, entry, (cname, wrapper)))
                self._add_module_aliases(fn, wrapper)

    # -- lookup sites ---------------------------------------------------------

    def _add(self, owner, attr: str, wrapper, by_identity: bool = False) -> None:
        original = vars(owner)[attr]
        self._sites.append((owner, attr, original, wrapper))
        if by_identity:
            self._add_module_aliases(original, wrapper, skip=(owner, attr))

    def _add_module_aliases(self, fn, wrapper, skip=None) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn and (module, attr) != skip:
                    self._sites.append((module, attr, fn, wrapper))

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, list):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _get(self, owner, key):
        return owner[key] if isinstance(owner, list) else vars(owner)[key]

    def install(self) -> None:
        for owner, key, _, wrapper in self._sites:
            self._set(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._sites):
            self._set(owner, key, original)

    def sites_unchanged(self) -> bool:
        """Every lookup site holds the object it held when the tracer was built."""
        return all(self._get(owner, key) is original for owner, key, original, _ in self._sites)

    def site_count(self) -> int:
        return len(self._sites)

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        self.spans = {}
        for cell in self.counts.values():
            cell[0] = 0

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": {k: cell[0] for k, cell in self.counts.items()},
        }

    def _counting(self, fn, counter: str):
        cell = self.counts[counter]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper._perfbench_wraps = fn
        return wrapper

    def _count_cells(self, args, result) -> None:
        R, carried, _ = result
        counter = "linalg.f2.rref.cells" if args[0].q == 2 else "linalg.fq.rref.cells"
        self.counts[counter][0] += R.shape[0] * (R.shape[1] + carried.shape[1])

    def _count_elems(self, args, result) -> None:
        self.counts["field.mul_arr.elems"][0] += result.size

    def _span(self, fn, name, after=None, refused=None):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if refused is not None and isinstance(exc, refused):
                    tracer.counts["grs.decode.refused"][0] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                agg = tracer.spans.get(span)
                if agg is None:
                    agg = tracer.spans[span] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper._perfbench_wraps = fn
        return wrapper


def _rref_name(args) -> str:
    return "linalg.f2.rref" if args[0].q == 2 else "linalg.fq.rref"


def _decode_failure():
    return importlib.import_module("gqudits.errors").DecodeFailure


def span_names() -> list[str]:
    return [name for name, _, _ in SPANS] + CRITERION_SPANS
