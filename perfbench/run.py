"""meshcount benchmark: one seeded workload, timed as a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mesh-frames --seed 1 --seconds 20 --trace 0

One client in this one process runs ops back to back and checks every
op's output against an oracle. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics plus the tracing overhead. A full report goes to
standard output and to ``.perfbench/results/``; the last line of standard
output is the result object named in BENCHMARK.json.
"""

import time

PROCESS_T0 = time.perf_counter()  # taken before any heavy import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import pb_trace  # noqa: E402  (needs numpy only; meshcount is looked up at install)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mesh-frames", "mesh-calib", "eval", "rescore")
SETUP_ROUNDS = 3  # set-up runs in rounds; setup_s uses the median round
MIN_TIMED_OPS = 4  # a run always times at least this many ops
COUNT_OPS = 2  # per-layer counts come from this many traced ops, so they repeat exactly
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many samples beyond it
# Times are scaled to a machine on which reference_work takes this long.
# On a shared host the speed of one machine drifts by tens of percent over
# minutes; the reference runs before every op and tracks that drift.
REFERENCE_NOMINAL_S = 0.04

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
    "count_mae": "count",
    "heldout_pearson_r": "r",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
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
    return None


def blas_threads():
    """OpenBLAS's own thread count, asked through ctypes; None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def reference_work() -> float:
    """A fixed mix of interpreter work and small numpy calls, like the
    program's own, that shares no code with it."""
    a = np.linspace(0.0, 1.0, 128).reshape(64, 2)
    total = 0.0
    for _ in range(1500):
        v = np.roll(a, -1, axis=0) - a
        total += float(np.hypot(v[:, 0], v[:, 1]).sum())
        d = {k: k * 1.5 for k in range(40)}
        total += sum(sorted(d.values(), reverse=True)[:5])
    return total


def tail(latencies):
    """(value, percentile, samples) of the highest percentile that has
    TAIL_BEYOND samples beyond it; value None when there are too few."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None, None, n
    k = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return sorted(latencies)[k - 1], 100.0 * k / n, n


class Run:
    """One benchmark process: set-up, timed phase, checks and metrics."""

    def __init__(self, args, workload, tracer, workdir):
        self.args = args
        self.wl = workload
        self.tracer = tracer
        self.workdir = workdir
        self.next_index = 0
        self.pool = deque()
        self.warmups = []  # (case, outcome, latency, error)
        self.timed = []  # (case, outcome, latency, error, traced)
        self.round_s = []
        self.reference_s = []
        self.paused_s = 0.0  # refills and reference runs, outside the timed phase

    def new_case(self):
        case = self.wl.make_case(self.workdir, self.args.seed, self.next_index)
        self.next_index += 1
        return case

    def refill(self):
        self.pool.extend(self.new_case() for _ in range(self.wl.batch))

    def probe(self) -> float:
        """Time one run of the reference work."""
        started = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - started
        self.reference_s.append(elapsed)
        return elapsed

    def op(self, case, traced):
        span = self.tracer.begin_op(case.index) if traced else None
        started = time.perf_counter()
        outcome, error = None, None
        try:
            outcome = self.wl.run(case)
        except Exception:  # an op that raises is a failed op, not a failed run
            error = traceback.format_exc()
        latency = time.perf_counter() - started
        if traced:
            self.tracer.end_op(span)
        return outcome, latency, error

    def setup(self):
        """SETUP_ROUNDS rounds, each writing one batch of inputs and running
        one warm-up op on an input of its own."""
        for _ in range(SETUP_ROUNDS):
            started = time.perf_counter()
            self.refill()
            case = self.new_case()
            probe_s = self.probe()
            outcome, latency, error = self.op(case, traced=self.tracer is not None)
            self.warmups.append((case, outcome, latency, error))
            self.round_s.append(time.perf_counter() - started - probe_s)

    def timed_phase(self):
        """Ops back to back for --seconds; with tracing, every second op is
        traced. Refills and the reference run before each op pause the clock."""
        if self.tracer is not None:
            self.tracer.remove()
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started - self.paused_s
            if elapsed >= self.args.seconds and len(self.timed) >= MIN_TIMED_OPS:
                break
            if not self.pool:
                paused = time.perf_counter()
                self.refill()
                self.paused_s += time.perf_counter() - paused
            self.paused_s += self.probe()
            case = self.pool.popleft()
            traced = self.tracer is not None and len(self.timed) % 2 == 1
            if traced:
                self.tracer.install()
            outcome, latency, error = self.op(case, traced)
            if traced:
                self.tracer.remove()
            self.timed.append((case, outcome, latency, error, traced))
        return time.perf_counter() - started - self.paused_s

    def check(self, case, outcome, error):
        if error is not None:
            return [error.strip().splitlines()[-1]]
        try:
            return self.wl.check(case, outcome)
        except Exception:  # a crash while checking counts against the op
            return ["check raised: " + traceback.format_exc().strip().splitlines()[-1]]


def trace_metrics(run):
    """Per-layer metrics of a traced run, plus overhead and warm-up figures."""
    tracer = run.tracer
    traced = [c.index for c, _, _, _, t in run.timed if t]
    spans = pb_trace.SpanTable(tracer, traced)
    out = pb_trace.layer_metrics(spans, pb_trace.SpanTable(tracer, traced[:COUNT_OPS]), run.wl.curves_per_op)
    setup = pb_trace.SpanTable(tracer, [pb_trace.SETUP_OP])
    scenes = setup.calls("synth.generate_scene")
    out["synth.generate_s"] = setup.seconds("synth.generate_scene") / scenes if scenes else 0.0
    lat_traced = [lat for _, _, lat, _, t in run.timed if t]
    lat_plain = [lat for _, _, lat, _, t in run.timed if not t]
    out["trace.overhead_s"] = statistics.median(lat_traced) - statistics.median(lat_plain)
    first = run.warmups[0][0].index
    out["warmup.first_op_s"] = run.warmups[0][2]
    out["warmup.geometry.dlt_s"] = pb_trace.SpanTable(tracer, [first]).seconds("geometry.estimate_homography_dlt")
    return out, spans.per_span()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (args.seconds > 0):
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "meshcount" / "__init__.py").is_file():
        print(f"run.py: no meshcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pb_workloads

    import_s = time.perf_counter() - PROCESS_T0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    capture = pb_workloads.CalibrationCapture()
    workload = pb_workloads.make_workloads(capture)[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer = pb_trace.Tracer() if args.trace else None
    run = Run(args, workload, tracer, workdir)
    try:
        capture.install()
        if tracer is not None:
            tracer.install()
        try:
            run.setup()
            setup_wall_s = time.perf_counter() - PROCESS_T0
            wall = run.timed_phase()
        finally:
            if tracer is not None:
                tracer.remove()
            capture.remove()

        warm_problems = [p for c, o, _, e in run.warmups for p in run.check(c, o, e)]
        failures = []
        for case, outcome, _, error, _ in run.timed:
            problems = run.check(case, outcome, error)
            if problems:
                failures.append({"case": case.index, "problems": problems[:5]})
        ok_pairs = [(c, o) for c, o, _, e, _ in run.timed if e is None]
        quality = workload.quality(ok_pairs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.timed)
    latencies = [lat for _, _, lat, _, _ in run.timed]
    tail_value, tail_pct, tail_n = tail(latencies)
    wall_clock = {
        "setup_s": import_s + SETUP_ROUNDS * statistics.median(run.round_s),
        "ops_per_s": attempted / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
    }
    # > 1 while the machine runs slower than nominal
    slowdown = statistics.median(run.reference_s) / REFERENCE_NOMINAL_S
    e2e = {
        "setup_s": wall_clock["setup_s"] / slowdown,
        "ops_per_s": wall_clock["ops_per_s"] * slowdown,
        "op_p50_s": wall_clock["op_p50_s"] / slowdown,
        "op_tail_s": None if tail_value is None else tail_value / slowdown,
        "error_rate": len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "count_mae": quality.get("count_mae"),
        "heldout_pearson_r": quality.get("heldout_pearson_r"),
    }
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT),
        "loop": "closed, 1 client, 1 process",
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "warmup_problems": warm_problems[:10],
        "setup": {"import_s": import_s, "round_s": run.round_s, "wall_s": setup_wall_s,
                  "inputs_per_round": workload.batch},
        "timed_wall_s": wall,
        "paused_s": run.paused_s,
        "reference": {"median_s": statistics.median(run.reference_s), "run_s": run.reference_s,
                      "nominal_s": REFERENCE_NOMINAL_S, "slowdown": slowdown},
        "wall_clock": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in wall_clock.items()},
        "warmup_op_s": [lat for _, _, lat, _ in run.warmups],
        "op_tail": {"percentile": tail_pct, "samples": tail_n},
        "op_s": latencies,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
    }
    if tracer is not None:
        layers, per_span = trace_metrics(run)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["per_layer"] = {k: {"value": v, "unit": units.get(k)} for k, v in layers.items()}
        report["spans"] = per_span
        phases = {c.index: "warmup" for c, _, _, _ in run.warmups}
        phases.update({c.index: ("traced" if t else "untraced") for c, _, _, _, t in run.timed})
        trace_path = results / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path, op_ids=np.array(sorted(phases)),
                    op_phases=np.array([phases[k] for k in sorted(phases)]))
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        values = layers
    else:
        values = e2e

    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("report " + json.dumps(report, sort_keys=True))
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": not failures and not warm_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
