"""Compare the end-to-end metrics of two benchmark snapshots.

    python3 scripts/bench_diff.py BENCH_20.json BENCH_21.json

The header names each snapshot's commit and its ``dirty`` flag: a dirty
snapshot was measured on uncommitted changes over that commit, so its SHA is
the parent of the code it measured.

For each workload in both files, prints every end-to-end metric of the
untraced run (``trace0``, the run that times end to end), the value in A and
in B, the ratio B/A and whether B is better or worse by the direction that
``BENCHMARK.json`` declares, followed by the failed ops and both runs' machine
speed factors.  The harness has already scaled each time by its run's speed
factor (its calibration of the machine's load); factors far apart say the
machine was loaded differently, and a ratio near 1 is then within noise.

Then, from the traced runs (``trace1``), the time of each verify criterion
(the ``verify.criterion.*.s`` spans, in criterion order) in the same columns,
so that a verify change shows which criterion moved; a workload whose runs
spent no time in any criterion gets none of these rows.  Traced spans are
raw seconds, not scaled by a speed factor, so a ratio that all nine
criteria share says the machine moved, not the code.
Standard library only; run from anywhere in a checkout.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def directions() -> dict:
    """metric name -> "higher" or "lower", from BENCHMARK.json's end_to_end
    and per_layer metrics, in their declared order."""
    bench = load(ROOT / "BENCHMARK.json")
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def verdict(a: float, b: float, better: str | None) -> str:
    if better is None or a == b:
        return ""
    return "better" if (b > a) == (better == "higher") else "worse"


def metric_row(workload: str, name: str, ma: dict, mb: dict, better: dict) -> list[str]:
    va, vb = ma["value"], mb["value"]
    ratio = f"{vb / va:.3f}" if va else "-"
    return [workload, name, ma["unit"], f"{va:.4g}", f"{vb:.4g}", ratio,
            verdict(va, vb, better.get(name))]


def rows(a: dict, b: dict, better: dict) -> list[list[str]]:
    out = []
    criteria = [m for m in better if m.startswith("verify.criterion.")]
    for workload in (w for w in a["runs"] if w in b["runs"]):
        ra, rb = a["runs"][workload]["trace0"], b["runs"][workload]["trace0"]
        for name in (m for m in ra["metrics"] if m in rb["metrics"]):
            out.append(metric_row(workload, name, ra["metrics"][name], rb["metrics"][name], better))
        failed = [f"{r['failed']}/{r['attempted']}" for r in (ra, rb)]
        out.append([workload, "failed", "ops", *failed, "", ""])
        speeds = [str(r.get("speed_factor")) for r in (ra, rb)]
        out.append([workload, "speed_factor", "", *speeds, "", ""])
        ta, tb = (s["runs"][workload].get("trace1", {}).get("metrics", {}) for s in (a, b))
        spans = [m for m in criteria if m in ta and m in tb]
        if any(ta[m]["value"] or tb[m]["value"] for m in spans):
            out += [metric_row(workload, m, ta[m], tb[m], better) for m in spans]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", help="the earlier snapshot, e.g. BENCH_20.json")
    p.add_argument("b", help="the later snapshot, e.g. BENCH_21.json")
    args = p.parse_args(argv)
    a, b = load(args.a), load(args.b)
    for tag, path, snap in (("A", args.a, a), ("B", args.b, b)):
        dirty = snap.get("dirty", "?")
        print(f"# {tag} {path}: {snap['git_sha'][:7]} (dirty: {dirty}), src {snap['src_lines']} lines")
    table = [["workload", "metric", "unit", "A", "B", "B/A", "B vs A"]] + rows(a, b, directions())
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
