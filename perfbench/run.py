"""gqudits benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: verify, decode, convert, hierarchy (see workloads.py and README.md).

--trace 0 runs the timed closed loop with no wrappers installed and reports
the end-to-end metrics, with times scaled to a reference machine speed
measured by a calibration loop between ops (see Speed).  --trace 1 runs the same ops in pairs, once plain and
once with the per-layer spans of tracer.py installed, and reports per-layer
metrics and the tracing overhead.  Human-readable lines start with "# "; the
last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads: the matrices here are at most
# 128 x 128, and a second thread would tie every timing to the load on the
# other CPU.  An explicit setting in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # this process plus two fresh processes that only set up
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples above it
CAL_ITERS = 50_000  # calibration loop length: about 10 ms on an idle 2-core VM
CAL_REF_S = 0.010  # calibration time that defines the reference machine speed
CAL_EVERY_S = 0.5  # least wall time between calibration samples in the timed loop
CAL_AFTER_SETUP = 5  # calibration samples taken right after set-up


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["verify", "decode", "convert", "hierarchy"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="set up and warm up, print set-up time and speed factor as JSON, and exit",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def load_program() -> None:
    """Import gqudits from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import gqudits
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import gqudits from {src}: {exc}")
    if not Path(gqudits.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"run.py: gqudits resolved to {gqudits.__file__}, not under {src}")


# -- environment ---------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> tuple[str, str]:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg['name']} {cfg.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in symbols:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, str(fn())
    return name, threads


def environment() -> dict:
    import numpy as np

    blas, threads = blas_info()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
    }


# -- machine speed -------------------------------------------------------------


class Speed:
    """How fast this machine runs Python right now, relative to a reference.

    Shared machines change speed by tens of percent within minutes, so every
    timed end-to-end metric is scaled to the reference speed: times are
    divided and rates multiplied by ``factor()``.  The calibration loop
    (interpreter work and numpy scalar indexing, nothing from gqudits) runs
    between ops, never inside the timed region.  On a loaded machine it
    slowed about twice as much, in relative terms, as the workloads' ops
    (ten-run sets of decode and hierarchy spread least with this exponent),
    so the factor is the square root of its median time over ``CAL_REF_S``.
    The raw figures are printed beside the scaled ones.
    """

    def __init__(self) -> None:
        import numpy as np

        self._table = np.arange(256, dtype=np.int64)
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        table = self._table
        acc = 0
        t0 = time.perf_counter()
        for i in range(CAL_ITERS):
            acc ^= int(table[(i * 7) & 255]) + i % 7
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return (statistics.median(self.samples) / CAL_REF_S) ** 0.5


def setup_speed() -> float:
    """Speed factor measured right after set-up, for scaling setup_s."""
    speed = Speed()
    for _ in range(CAL_AFTER_SETUP):
        speed.sample()
    return speed.factor()


# -- running ops -----------------------------------------------------------------


def run_op(wl, i: int):
    """(seconds, ok) for op i; an exception or a failed check is a failed op."""
    t0 = time.perf_counter()
    try:
        result = wl.op(i)
    except Exception:
        dt = time.perf_counter() - t0
        print(f"# op {i} raised:\n# " + traceback.format_exc().replace("\n", "\n# "), file=sys.stderr)
        return dt, False
    dt = time.perf_counter() - t0
    try:
        ok = bool(wl.check(i, result))
    except Exception:
        print(f"# check of op {i} raised:\n# " + traceback.format_exc().replace("\n", "\n# "), file=sys.stderr)
        ok = False
    return dt, ok


def set_up(name: str, seed: int):
    """Build the workload's inputs and program objects, then one warm-up op."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    _, ok = run_op(wl, 0)
    return wl, ok


def finished(wl, i: int, t_start: float, seconds: float, minimum: int = 1) -> bool:
    return i >= minimum and i % wl.round == 0 and time.perf_counter() - t_start >= seconds


def setup_sample(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    if not sample["ok"]:
        raise RuntimeError("warm-up op failed in a set-up sample")
    return float(sample["setup_s"]), float(sample["speed"])


def timed_run(args, tracer) -> tuple[object, dict]:
    wl, warm_ok = set_up(args.workload, args.seed)
    setups = [(time.perf_counter() - T0, setup_speed())]
    speed = Speed()
    lat, oks = [], []
    t_start = time.perf_counter()
    i = 0
    while not finished(wl, i, t_start, args.seconds):
        speed.sample_if_due()
        dt, ok = run_op(wl, i)
        lat.append(dt)
        oks.append(ok)
        i += 1
    speed.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = oks.count(False)
    correct = warm_ok and failed == 0 and tracer.sites_unchanged()
    lines = []
    try:
        setups += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as exc:
        lines.append(f"set-up sample failed: {exc!r}")
        correct = False
    f = speed.factor()
    ops_per_s = len(lat) / sum(lat)  # failed ops count here and in "failed"
    op_p50_ms = statistics.median(lat) * 1e3
    setup_s = statistics.median(s for s, _ in setups)
    lines.append(
        f"machine speed factor {f:.4f} over {len(speed.samples)} calibration samples "
        f"(1 = reference; timed metrics below are scaled by it)"
    )
    lines.append(f"raw ops_per_s {ops_per_s:.6g} ops/s, op_p50_ms {op_p50_ms:.6g} ms, setup_s {setup_s:.6g} s")
    lines.append(f"fail_ratio {failed / len(oks):.6g} ratio ({failed} of {len(oks)} ops failed)")
    if len(lat) > TAIL_BEYOND:
        ranked = sorted(lat)
        pct = 100.0 * (len(lat) - TAIL_BEYOND) / len(lat)
        lines.append(
            f"op_tail_ms {ranked[-TAIL_BEYOND - 1] * 1e3 / f:.6g} ms "
            f"(p{pct:.1f}, {TAIL_BEYOND} of {len(lat)} samples beyond; scaled)"
        )
    else:
        lines.append(f"op_tail_ms undefined ({len(lat)} samples, needs > {TAIL_BEYOND})")
    lines.append("setup_s samples (raw s, speed factor) " + " ".join(f"{s:.4f},{g:.3f}" for s, g in setups))
    metrics = {
        "ops_per_s": (ops_per_s * f, "ops/s"),
        "op_p50_ms": (op_p50_ms / f, "ms"),
        "setup_s": (statistics.median(s / g for s, g in setups), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return wl, {"metrics": metrics, "attempted": len(oks), "failed": failed,
                "correct": correct, "lines": lines}


def traced_run(args, tracer) -> tuple[object, dict]:
    import tracer as tr

    tracer.install()
    try:
        wl, warm_ok = set_up(args.workload, args.seed)
    finally:
        tracer.uninstall()
    in_setup = tracer.snapshot()
    tracer.reset()
    plain, traced, oks = [], [], []
    exact = None
    restored = tracer.sites_unchanged()
    t_start = time.perf_counter()
    i = 0
    while not finished(wl, i, t_start, args.seconds, minimum=wl.prefix):
        dt, ok = run_op(wl, i)
        plain.append(dt)
        oks.append(ok)
        tracer.install()
        try:
            dt, ok = run_op(wl, i)
        finally:
            tracer.uninstall()
        restored = restored and tracer.sites_unchanged()
        traced.append(dt)
        oks.append(ok)
        i += 1
        if i == wl.prefix:
            exact = tracer.snapshot()
    loop = tracer.snapshot()
    n = len(traced)
    metrics = {}
    for name in tr.span_names():
        calls, s, self_s = loop["spans"].get(name, (0, 0.0, 0.0))
        if name in tr.CRITERION_SPANS:  # one call per op, no child spans of note
            metrics[f"{name}.s"] = (s / n, "s/op")
            continue
        metrics[f"{name}.calls"] = (calls / n, "calls/op")
        metrics[f"{name}.s"] = (s / n, "s/op")
        metrics[f"{name}.self_s"] = (self_s / n, "s/op")
    for name, _ in tr.COUNTERS:
        metrics[name] = (loop["counts"][name] / n, "count/op")
    for metric, source in tr.EXACT:
        kind, key = source
        value = exact["counts"][key] if kind == "count" else exact["spans"].get(key, (0,))[0]
        metrics[metric] = (value / wl.prefix, "count/op")
    for name in tr.SETUP_SPANS:
        metrics[f"setup.{name}.s"] = (in_setup["spans"].get(name, (0, 0.0))[1], "s")
    metrics["trace.overhead_s"] = ((sum(traced) - sum(plain)) / n, "s/op")
    metrics["trace.overhead_share"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    lines = [f"sites patched {tracer.site_count()}; traced ops {n}, plain ops {len(plain)}"]
    for name in tr.span_names():
        setup_calls = in_setup["spans"].get(name, (0,))[0]
        calls = loop["spans"].get(name, (0,))[0]
        lines.append(f"span {name} setup_calls={setup_calls} calls={calls}")
    for name, _ in tr.COUNTERS:
        lines.append(f"count {name} setup={in_setup['counts'][name]} ops={loop['counts'][name]}")
    failed = oks.count(False)
    correct = warm_ok and failed == 0 and restored and tracer.sites_unchanged()
    return wl, {"metrics": metrics, "attempted": len(oks), "failed": failed,
                "correct": correct, "lines": lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from tracer import Tracer

    tracer = Tracer()  # resolves every lookup site; installs nothing yet
    if args.setup_only:
        wl, ok = set_up(args.workload, args.seed)
        setup_s = time.perf_counter() - T0
        print(json.dumps({"setup_s": setup_s, "speed": setup_speed(), "ok": ok}))
        return 0
    if args.trace:
        wl, res = traced_run(args, tracer)
    else:
        wl, res = timed_run(args, tracer)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed={args.seed} inputs_sha256={wl.inputs_sha256}")
    print("# sizes " + json.dumps(wl.sizes, sort_keys=True))
    print("# notes " + json.dumps(wl.notes(), sort_keys=True))
    for line in res["lines"]:
        print("# " + line)
    if not args.trace:
        for name, (value, unit) in res["metrics"].items():
            print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
