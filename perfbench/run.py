"""qcartan benchmark: one workload per process, closed loop, one task at a time.

Run from the repository root:

    python3 perfbench/run.py --workload cache_deep --seed 1 --seconds 30 --trace 0

A pass runs every task of the workload once, in an order drawn from the
seed; passes repeat until the next one would end after ``--seconds`` (at
least one pass).
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it spends half the time on untraced passes and half on
traced passes (at least two) with the span tracer of ``tracer.py``
installed, and reports the per-layer metrics; the raw spans go to
``.bench_trace/``.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.

The program under test is the ``src/qcartan`` package of the same checkout.
Without it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"        # per-run scratch outputs, removed at exit
TRACE_DIR = ROOT / ".bench_trace"    # raw spans of traced runs
try:
    LIBC = ctypes.CDLL("libc.so.6")
except OSError:              # not glibc: skip the trim
    LIBC = None
SETUP_PROBES = 5                     # fresh processes timed for setup_s
TRACED_MIN_PASSES = 2                # counts are compared across passes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def fail(message: str):
    """Stop before measuring: exit code 2, no result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_qcartan():
    """Import qcartan from this checkout's src/, never from elsewhere."""
    init = SRC / "qcartan" / "__init__.py"
    if not init.is_file():
        fail(f"{init} not found; run from the root of a qcartan checkout")
    sys.path.insert(0, str(SRC))
    import qcartan
    if Path(qcartan.__file__).resolve() != init.resolve():
        fail(f"imported qcartan from {qcartan.__file__}, not from {init}")
    return qcartan


def setup(workload: str, seed: int):
    """Imports, BLAS warm-up, a scratch directory and the seeded task list."""
    import_qcartan()
    import numpy as np
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if workload not in workloads.WORKLOADS:
        fail(f"unknown workload {workload!r}; have {sorted(workloads.WORKLOADS)}")
    # Start the BLAS threads and touch the LAPACK paths the chains use.
    a = np.random.default_rng(0).standard_normal((384, 384))
    np.linalg.svd(a)
    np.linalg.eigvalsh(a + a.T)
    a @ a
    os.environ.pop("QCARTAN_CACHE_DIR", None)
    RUN_DIR.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR)
    tasks = workloads.WORKLOADS[workload](workloads.make_inputs(seed), outdir)
    return outdir, tasks


def remove_outdir(outdir: str) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        RUN_DIR.rmdir()          # only when no other run is using it
    except OSError:
        pass


def time_setups(args) -> list:
    """Seconds from spawning a fresh interpreter until it reports 'ready'."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
        times.append(dt)
    return times


def clear_lru_caches() -> None:
    """Empty qcartan's memo tables so every pass starts like a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("qcartan"):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def release_memory() -> None:
    """Collect garbage and hand free heap pages back to the kernel.

    Runs between tasks, untimed, so each task starts from a heap like a
    fresh CLI process has and peak_rss_mb reads the largest task, not the
    fragmentation left by the task order.
    """
    gc.collect()
    if LIBC is not None:
        LIBC.malloc_trim(0)


class Passes:
    """Closed-loop passes over a task list, with every task's duration.

    A pass's wall time is the sum of its task durations; the housekeeping
    between tasks is not timed.  A run reports, per task, the median of its
    durations over the passes, summed over the tasks: a slow moment of the
    machine then costs one task of one pass, not a whole pass.
    """

    def __init__(self, tasks, seed: int):
        self.tasks = tasks
        self.seed = seed
        self.durations: list = []    # per pass: task index -> seconds
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, min_passes: int, tracer=None) -> list:
        """Run passes; return the pass ids (tracer run ids) used."""
        import numpy as np
        ids = []
        start = time.perf_counter()
        while True:
            pass_id = len(self.durations)
            clear_lru_caches()
            order = np.random.default_rng([self.seed, pass_id]).permutation(
                len(self.tasks))
            if tracer is not None:
                tracer.start_run(pass_id)
            took = {}
            for i in order:
                release_memory()
                took[int(i)] = self._one(self.tasks[i], tracer)
            self.durations.append(took)
            ids.append(pass_id)
            elapsed = time.perf_counter() - start
            typical = statistics.median(self.pass_wall(i) for i in ids)
            if len(ids) >= min_passes and elapsed + typical > seconds:
                return ids

    def _one(self, task, tracer) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        span = tracer.open("bench.task") if tracer is not None else None
        try:
            task.run()
        except Exception:
            self.failed += 1
            print(f"perfbench: task {task.name!r} failed:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
        finally:
            if span is not None:
                tracer.close(span)
        return time.perf_counter() - t0

    def pass_wall(self, pass_id: int) -> float:
        return sum(self.durations[pass_id].values())

    def wall(self, ids, family: str = None) -> float:
        """Sum over tasks (of one family) of the median task duration."""
        return sum(statistics.median(self.durations[p][i] for p in ids)
                   for i, task in enumerate(self.tasks)
                   if family is None or task.family == family)


def blas_provenance() -> dict:
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = "unknown"
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                and ln.split()[-1].startswith("/")}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def provenance(args, passes) -> dict:
    prov = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "pass_walls_s": [round(passes.pass_wall(i), 4)
                             for i in range(len(passes.durations))],
            "task_median_s": {
                t.name: round(statistics.median(d[i] for d in passes.durations), 4)
                for i, t in enumerate(passes.tasks)}}
    prov.update(blas_provenance())
    return prov


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(args, tasks) -> tuple:
    setups = time_setups(args)
    passes = Passes(tasks, args.seed)
    ids = passes.run(args.seconds, 1)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": passes.wall(ids),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": 1.0 - passes.failed / passes.attempted,
    }
    prov = provenance(args, passes)
    prov["setup_probes_s"] = [round(s, 4) for s in setups]
    return values, passes, prov, []


def per_layer(args, spec, tasks) -> tuple:
    import tracer as tracing

    passes = Passes(tasks, args.seed)
    plain = passes.run(args.seconds / 2, 1)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = passes.run(args.seconds / 2, TRACED_MIN_PASSES, tracer=tr)
    finally:
        tr.uninstall()
    tr.write(str(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"))

    problems = []
    stats = [tr.run_stats(i) for i in traced]
    for i, st in zip(traced, stats):
        wall = passes.pass_wall(i)
        if abs(st["self_sum"] - wall) > 0.01 * wall + 0.01:
            problems.append(f"pass {i}: span self times sum to "
                            f"{st['self_sum']:.4f} s, pass wall {wall:.4f} s")
    if any(st["counts"] != stats[0]["counts"] for st in stats[1:]):
        problems.append("computed counts differ between traced passes")
    layers = [tracing.layer_metrics(st) for st in stats]

    untraced, traced_wall = passes.wall(plain), passes.wall(traced)
    values = {
        "trace.untraced_wall_s": untraced,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced,
        "trace.self_sum_s": statistics.median(st["self_sum"] for st in stats),
    }
    for family in ("cache", "scan", "star", "cg", "qda"):
        values[f"{family}_s"] = passes.wall(plain, family)
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        seen = [lm.get(name, 0) for lm in layers]
        values[name] = statistics.median(seen) if m["unit"] == "s" else seen[0]
    prov = provenance(args, passes)
    prov["untraced_passes"] = len(plain)
    prov["traced_passes"] = len(traced)
    prov["spans"] = len(tr.names)
    prov["chain_work_dtypes"] = tr.chain_dtypes
    return values, passes, prov, problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    outdir, tasks = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        spec = load_spec()
        if args.trace:
            values, passes, prov, problems = per_layer(args, spec, tasks)
        else:
            values, passes, prov, problems = end_to_end(args, tasks)
    finally:
        remove_outdir(outdir)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"summary: {passes.attempted} tasks, {passes.failed} failed, "
          f"ops_failed_ratio {passes.failed / passes.attempted:.6g}")
    result = {"correct": passes.failed == 0 and not problems,
              "attempted": passes.attempted, "failed": passes.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
