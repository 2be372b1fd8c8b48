"""scripts/bench_diff.py: end-to-end metrics of two benchmark snapshots."""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
bench_diff = runpy.run_path(str(ROOT / "scripts" / "bench_diff.py"))


def snapshot(sha, ops_per_s, p50_ms, speed, failed=0):
    metrics = {
        "ops_per_s": {"unit": "ops/s", "value": ops_per_s},
        "op_p50_ms": {"unit": "ms", "value": p50_ms},
    }
    run = {"attempted": 100, "failed": failed, "metrics": metrics, "speed_factor": speed}
    return {"git_sha": sha, "src_lines": 10, "runs": {"decode": {"trace0": run, "trace1": {}}}}


def test_ratio_direction_failures_and_speed_factors(tmp_path, capsys):
    a, b = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    a.write_text(json.dumps(snapshot("a" * 40, 2000.0, 0.4, 1.25)))
    b.write_text(json.dumps(snapshot("b" * 40, 4000.0, 0.5, 1.5, failed=3)))
    assert bench_diff["main"]([str(a), str(b)]) == 0
    lines = {tuple(line.split()[:2]): line.split() for line in capsys.readouterr().out.splitlines()}
    assert lines[("decode", "ops_per_s")][3:] == ["2000", "4000", "2.000", "better"]
    assert lines[("decode", "op_p50_ms")][3:] == ["0.4", "0.5", "1.250", "worse"]
    assert lines[("decode", "failed")][3:] == ["0/100", "3/100"]
    assert lines[("decode", "speed_factor")][2:] == ["1.25", "1.5"]


def test_committed_snapshots_compare(capsys):
    """Every end-to-end metric that BENCHMARK.json declares appears for every
    workload of the two newest committed snapshots."""
    newest = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))[-2:]
    assert bench_diff["main"]([str(p) for p in newest]) == 0
    out = capsys.readouterr().out.split()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in declared["end_to_end"]:
        assert out.count(metric["name"]) == len(declared["workloads"])


def test_criterion_spans_of_the_traced_runs(tmp_path, capsys):
    """The nine verify.criterion.*.s spans of trace1, in criterion order,
    with their ratio and direction; none for a workload that ran no criterion."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"] for m in declared if m["name"].startswith("verify.criterion.")]
    assert len(names) == 9
    paths = []
    for tag, scale in (("a", 1.0), ("b", 0.5)):
        snap = snapshot(tag * 40, 2.0, 500.0, 1.0)
        snap["runs"]["verify"] = snap["runs"].pop("decode")
        spans = {name: {"unit": "s/op", "value": 0.01 * (i + 1) * (scale if i == 8 else 1.0)}
                 for i, name in enumerate(names)}
        snap["runs"]["verify"]["trace1"] = {"metrics": spans}
        snap["runs"]["decode"] = snapshot(tag * 40, 9000.0, 0.1, 1.0)["runs"]["decode"]
        snap["runs"]["decode"]["trace1"] = {"metrics": {n: {"unit": "s/op", "value": 0.0} for n in names}}
        paths.append(tmp_path / f"BENCH_{tag}.json")
        paths[-1].write_text(json.dumps(snap))
    assert bench_diff["main"]([str(p) for p in paths]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if "verify.criterion." in line]
    assert [r[1] for r in rows] == names and all(r[0] == "verify" for r in rows)
    assert rows[0][3:] == ["0.01", "0.01", "1.000"]
    assert rows[8][3:] == ["0.09", "0.045", "0.500", "better"]


def test_committed_snapshots_show_the_criteria(capsys):
    newest = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))[-2:]
    assert bench_diff["main"]([str(p) for p in newest]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if "verify.criterion." in line]
    assert len(rows) == 9 and {r[0] for r in rows} == {"verify"}


def test_header_shows_the_dirty_flag(tmp_path, capsys):
    """A dirty snapshot carries the SHA of the commit under its uncommitted
    changes, so the header prints the flag next to the SHA."""
    paths = []
    for tag, dirty in (("a", False), ("b", True)):
        snap = snapshot(tag * 40, 2000.0, 0.4, 1.0)
        snap["dirty"] = dirty
        paths.append(tmp_path / f"BENCH_{tag}.json")
        paths[-1].write_text(json.dumps(snap))
    assert bench_diff["main"]([str(p) for p in paths]) == 0
    head = capsys.readouterr().out.splitlines()[:2]
    assert head[0].endswith(": aaaaaaa (dirty: False), src 10 lines")
    assert head[1].endswith(": bbbbbbb (dirty: True), src 10 lines")
