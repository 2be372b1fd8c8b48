"""Record one benchmark snapshot: every workload at --trace 0 and --trace 1.

    python3 scripts/bench_snapshot.py --out BENCH_<n>.json

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``,
unmodified) once per workload and trace setting at seed SEED, each in its own
process for the ``run_seconds`` that file declares; one fixed seed keeps every
snapshot comparable with the one before it.  The snapshot keeps the last JSON
line of each run with the speed factor from its ``# machine speed factor``
line (null for a traced run, which prints none), and adds the HEAD SHA,
whether tracked files differ from HEAD, and the ``wc -l`` total of
``src/gqudits/*.py``.  Standard library only; run from anywhere in a checkout.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SPEED = re.compile(r"^# machine speed factor ([0-9.]+)", re.MULTILINE)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def run(cmd: list) -> dict:
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    speed = SPEED.search(out)
    result = json.loads(out.strip().splitlines()[-1])
    result["speed_factor"] = float(speed.group(1)) if speed else None
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True, help="snapshot file to write, e.g. BENCH_<n>.json")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            print(f"# {workload} --trace {trace}", file=sys.stderr, flush=True)
            runs.setdefault(workload, {})[f"trace{trace}"] = run(bench["command"] + [
                "--workload", workload, "--seed", str(SEED),
                "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
            ])
    snapshot = {
        "git_sha": git("rev-parse", "HEAD").strip(),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        "src_lines": sum(f.read_bytes().count(b"\n") for f in (ROOT / "src" / "gqudits").glob("*.py")),
        "command": bench["command"],
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
