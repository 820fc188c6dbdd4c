"""Benchmark of the xnesyl pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload e1-frcnn-exact --seed 7 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The run sets up the workload's dataset several times, then repeats
train / eval / explain cycles in one process, one operation at a time,
until `--seconds` have passed. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced cycles and
reports per-layer metrics from the traced ones. A summary goes to stdout,
followed by one JSON line (the last line). The full record, with every
span of a traced run, is written to `.perfbench_out/`. The exit code is 0
only when every operation and correctness check passed.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
MIN_SETUPS = 5
SETUP_SECONDS = 2.0  # set-up repeats until both minimums are met; its median is reported
MIN_CYCLES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads(nproc: int) -> None:
    # Must run before numpy is imported; keeps BLAS threads <= nproc.
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
    }


def _finite(value: float) -> float | None:
    # A failed operation enters the samples as infinity; JSON has no infinity.
    return value if math.isfinite(value) else None


def measure(session, tracer, seconds: float) -> tuple[list[float], dict[str, list[float]], int]:
    """Set-ups, then cycles until `seconds` have passed; returns the samples."""
    session.tracing = tracer is not None
    setups = []
    while len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS:
        setups.append(session.setup())
    times: dict[str, list[float]] = {
        "train_s": [], "traced_train_s": [], "eval_s": [], "explain_s": [], "ged_mismatch": []
    }
    cycles = 0
    start = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
        # A traced run alternates untraced and traced cycles, so both see
        # the same machine state and their train_s gives the overhead.
        session.tracing = tracer is not None and cycles % 2 == 1
        for key, values in session.cycle().items():
            times["traced_train_s" if session.tracing and key == "train_s" else key] += values
        if session.tracing:
            session.tracing = False
            session.check_efficiency(tracer.attributions)
            tracer.attributions.clear()
        cycles += 1
    return setups, times, cycles


def per_layer(tracer, tracing, session, times) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics (median over traced set-ups plus median over traced
    cycles) and the same totals per operation kind."""
    roots = [i for i, span in enumerate(tracer.spans) if span[3] == -1] + [len(tracer.spans)]
    ops = [
        (tracer.spans[a][0], tracing.totals(tracer.spans, a, b)) for a, b in zip(roots, roots[1:])
    ]
    setup_groups = [t for name, t in ops if name == "bench.setup"]
    cycle_groups: list[dict[str, float]] = []
    for name, t in ops:
        if name == "bench.train":
            cycle_groups.append({})
        if cycle_groups and name != "bench.setup":
            for key, value in t.items():
                cycle_groups[-1][key] = cycle_groups[-1].get(key, 0.0) + value
    values = tracing.median_totals({"setup": setup_groups, "cycle": cycle_groups})
    values["bench.unattributed_s"] = sum(
        v for k, v in values.items() if k.startswith("bench.") and k.endswith(".s")
    )
    if "shapley.sample_masks" in tracer.present:
        drawn = values.get("shapley.sample_masks.drawn", 0.0)
        unique = values.get("shapley.sample_masks.unique", 0.0)
        values["shapley.sample_masks.unique_frac"] = unique / drawn if drawn else 0.0
    values["bench.trace_overhead_frac"] = (
        statistics.median(times["traced_train_s"]) / statistics.median(times["train_s"]) - 1.0
    )
    values["cli.explain.ged_mismatch"] = statistics.median(times["ged_mismatch"])
    for key in ("accuracy", "part_macro_accuracy", "mean_shap_ged"):
        values[f"training.evaluate.{key}"] = (session.train_metrics or {}).get(key, math.nan)
    by_op = {
        name: tracing.median_totals({name: [t for n, t in ops if n == name]})
        for name in sorted({n for n, _ in ops})
    }
    return dict(values), by_op


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    _limit_blas_threads(nproc)
    if not (ROOT / "src" / "xnesyl").is_dir():
        print(f"error: no xnesyl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ".lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("error: another benchmark run is active in this checkout", file=sys.stderr)
            return 2
        record = run_record(args, nproc)
        print("run " + json.dumps(record))
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
        tracer = tracing.Tracer() if args.trace else None
        try:
            session = workloads.Session(workload, args.seed, workdir, tracer)
            if tracer is not None:
                tracer.install()
            setups, times, cycles = measure(session, tracer, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)

        checks = session.checks
        result = {"record": record, "cycles": cycles, "setups_s": setups, "times": times,
                  "checks": vars(checks)}
        if args.trace:
            metrics, by_op = per_layer(tracer, tracing, session, times)
            result.update(per_operation=by_op, absent=tracer.absent, spans=tracer.spans)
            wanted = spec["per_layer"]
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "train_s": statistics.median(times["train_s"]),
                "eval_s": statistics.median(times["eval_s"]),
                "explain_s": statistics.median(times["explain_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]

        print(
            f"workload {workload.name}: {cycles} cycles, {len(setups)} set-ups, "
            f"attempted {checks.attempted}, failed {checks.failed}, "
            f"failed_frac {checks.failed / checks.attempted:.4f}"
        )
        quality = session.train_metrics or {}
        for key in ("accuracy", "part_macro_accuracy", "mean_shap_ged"):
            print(f"  {key:<40} {quality.get(key)!r}")
        print(f"  {'ged_digest':<40} {session.ged_digest}")
        print(
            f"  {'ged_mismatch':<40} {statistics.median(times['ged_mismatch'])!r} "
            f"of {len(session.explain_ids)} explained ids per cycle"
        )
        for failure in checks.failures:
            print(f"  FAILED: {failure}")
        out = {}
        for entry in wanted:
            name = entry["name"]
            if name not in metrics and args.trace and name.rsplit(".", 1)[0] in tracer.present:
                metrics[name] = 0.0  # the layer exists but did no such work on this workload
            if name in metrics:
                print(f"  {name:<40} {metrics[name]!r} {entry['unit']}")
                out[name] = {"value": _finite(metrics[name]), "unit": entry["unit"]}
        result["metrics"] = out
        stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(result), encoding="utf-8")
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
