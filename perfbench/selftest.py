"""Self-test of the benchmark harness; exits non-zero if any check fails.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Run from the root of a checkout.  It checks that

1. installing the tracer replaces every lookup site it found, and removing
   it puts back the very same objects;
2. an untraced run of each workload is correct (its outputs pass their
   checks and every lookup site still holds its original object) and prints
   exactly the end-to-end metrics of BENCHMARK.json with their units;
3. a traced run prints exactly the per-layer metrics of BENCHMARK.json with
   their units, and every span and counter records at least one call on each
   workload that tracer.py says it runs on (in set-up or in the ops);
4. two traced runs with the same seed report identical exact.* counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "decode", "convert", "hierarchy")


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line[2:] for line in lines[:-1] if line.startswith("# ")]


def recorded_calls(lines: list[str]) -> dict[str, int]:
    """Span and counter name -> calls (or count) in set-up plus ops."""
    out = {}
    for line in lines:
        kind, name, *fields = line.split()
        if kind in ("span", "count"):
            values = dict(f.split("=") for f in fields)
            out[name] = sum(int(v) for v in values.values())
    return out


def check_sites(failures: list[str]) -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tr

    t = tr.Tracer()
    t.install()
    try:
        replaced = all(t._get(owner, key) is new for owner, key, _, new in t._sites)
    finally:
        t.uninstall()
    if not replaced:
        failures.append("install() left a lookup site unpatched")
    if not t.sites_unchanged():
        failures.append("uninstall() did not restore every lookup site")
    print(f"sites: {t.site_count()} lookup sites patched and restored")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = p.parse_args()
    sys.path.insert(0, str(HERE))
    import tracer as tr

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: set() for name, _, _ in tr.SPANS}
    for name, _, on in tr.SPANS:
        expected[name].update(on)
    for name, on in tr.COUNTERS:
        expected[name] = set(on)
    for name in tr.CRITERION_SPANS:
        expected[name] = {"verify"}

    failures: list[str] = []
    check_sites(failures)
    for w in args.workload:
        plain, _ = run(w, args.seed, 0)
        if not plain["correct"]:
            failures.append(f"{w}: untraced run not correct")
        units = {k: v["unit"] for k, v in plain["metrics"].items()}
        if units != end_to_end:
            failures.append(f"{w}: end-to-end metrics {units} != BENCHMARK.json {end_to_end}")
        first, lines = run(w, args.seed, 1)
        second, _ = run(w, args.seed, 1)
        for res in (first, second):
            if not res["correct"]:
                failures.append(f"{w}: traced run not correct")
        units = {k: v["unit"] for k, v in first["metrics"].items()}
        if units != per_layer:
            diff = sorted(set(units) ^ set(per_layer))
            failures.append(f"{w}: per-layer metrics differ from BENCHMARK.json: {diff or 'units'}")
        calls = recorded_calls(lines)
        for name, on in expected.items():
            if w in on and calls.get(name, 0) < 1:
                failures.append(f"{w}: {name} recorded no call")
        for name, _ in tr.EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{w}: {name} differs between runs of seed {args.seed}: {a} vs {b}")
        print(f"{w}: checked ({plain['attempted']} untraced ops, {first['attempted']} traced-run ops)")
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
