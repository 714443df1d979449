"""srdpeig benchmark: one workload, one closed loop, one JSON result line.

Run from the root of a source checkout:

    python3 bench/run.py --workload lshape_p_sweep --seed 0 --seconds 50 --trace 0

The process pins the BLAS thread count before numpy is imported, sets the
workload up (import plus the caches a user fills once per process), times
the same set-up in fresh child processes (untraced runs only), then runs
units of work back to back for ``--seconds`` and checks every unit's
outputs.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
units and reports the per-layer metrics.  The inputs are fixed paper
configurations; ``--seed`` is recorded but changes nothing.  The last line of
standard output is the result object; the line before it holds the details.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: BLAS threads, capped at the cores this process may use.  Unpinned, one
#: L-shape p-sweep took 4.2-4.6 s with 2 threads and 5.5-5.7 s with 1.
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes whose set-up times join the main process's own sample.
SETUP_PROBES = 2
WORKLOADS = ("lshape_p_sweep", "square_h_sweep", "reference_cold", "matrices_dump")


def pin_blas_threads() -> None:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)


def setup(name: str, tiny: bool = False, trace: bool = False):
    """Import srdpeig and fill the workload's caches.

    Returns (workload, seconds, tracer).  With ``trace`` the cache fill, not
    the import, runs under the returned tracer; otherwise tracer is None.
    """
    start = time.perf_counter()
    import workloads  # imports numpy, scipy and srdpeig

    workload = workloads.catalog(tiny)[name]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer("setup")
    with tracer.recording() if tracer else contextlib.nullcontext():
        workload.setup()
    return workload, time.perf_counter() - start, tracer


def probe_setup(name: str) -> float:
    """Set-up time of the workload in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_unit(workload, tmp: Path, tracer=None) -> tuple[int, float]:
    """One unit of work; returns (exit status, wall seconds)."""
    start = time.perf_counter()
    with tracer.recording() if tracer else contextlib.nullcontext():
        try:
            status = workload.run(tmp)
        except Exception:  # a failed unit is counted, and the loop goes on
            traceback.print_exc()
            status = 1
    return status, time.perf_counter() - start


def clear(tmp: Path) -> None:
    """Remove a unit's outputs, so the next check cannot read stale files."""
    for path in tmp.iterdir():
        path.unlink()


def measure(workload, seconds: float, trace: bool, tmp: Path) -> dict:
    """Closed loop: each unit starts when the previous unit and its check end.

    A first, untimed unit warms the allocator and the code paths; it is
    checked like the rest.  No unit starts that would, at the median
    iteration time so far, end past the deadline.  With ``trace`` the units
    alternate untraced and traced.
    """
    if trace:
        from tracing import Tracer
    walls: list[float] = []
    traced: list[dict] = []
    spans: list[list] = []
    attempted, failed = workload.check(run_unit(workload, tmp)[0], tmp)
    clear(tmp)
    iterations: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer(len(walls) + len(traced)) if trace and len(traced) < len(walls) else None
        began = time.perf_counter()
        gc.collect()
        status, wall = run_unit(workload, tmp, tracer)
        a, f = workload.check(status, tmp)
        clear(tmp)
        attempted += a
        failed += f
        if tracer is None:
            walls.append(wall)
        else:
            traced.append(tracer.metrics())
            spans.extend(tracer.spans)
        iterations.append(time.perf_counter() - began)
        enough = bool(traced) if trace else bool(walls)
        if enough and time.perf_counter() + statistics.median(iterations) > deadline:
            break
    return {"walls": walls, "traced": traced, "spans": spans,
            "attempted": attempted, "failed": failed}


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def per_layer(traced: list[dict], walls: list[float]) -> dict[str, float]:
    """Mean over traced units (max for the max_* and byte-peak metrics).

    Means keep the self times summing to trace.wall_s.
    """
    out = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        peak = ".max_" in name or name == "eigensolve.dense_bytes"
        out[name] = max(values) if peak else statistics.fmean(values)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.fmean(walls)
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_commit() -> str:
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


def source_digest() -> str:
    """SHA-256 over src/srdpeig/*.py, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "srdpeig").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def filesystem(path: Path) -> str:
    """Type of the filesystem holding path, from the longest matching mount."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].encode().decode("unicode_escape")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(module) -> str:
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def environment(write_dir: Path = ROOT) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas(numpy),
        "openblas_scipy": _blas(scipy),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "write_filesystem": filesystem(write_dir),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up in this process and print it")
    return parser.parse_args(argv)


def report(name: str, setups: list[float], m: dict, env: dict, setup_tracer=None) -> list[str]:
    """Human-readable lines, the detail line and the result line.

    A run with a set-up tracer is a traced run and reports per-layer metrics.
    """
    walls = m["walls"]
    attempted, failed = m["attempted"], m["failed"]
    trace = setup_tracer is not None
    lines = []
    if trace:
        values = per_layer(m["traced"], walls) | setup_tracer.setup_metrics()
    else:
        p25, p75 = quartiles(walls)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines.append(f"{name} wall_s quartiles {p25:.6f} .. {p75:.6f} s over {len(walls)} units")
    for metric, value in values.items():
        lines.append(f"{name} {metric} {value:.6g} {unit_of(metric)}")
    lines.append(f"{name} fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    detail = {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "wall_s_samples": walls,
        "setup_s_samples": setups,
        "fail_ratio": failed / attempted,
    }
    if trace:
        detail["traced_units"] = m["traced"]
    lines.append(json.dumps(detail))
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    if not (SRC / "srdpeig" / "__init__.py").is_file():
        print(f"run.py: no srdpeig package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload)[1]}))
        return 0

    workload, own, setup_tracer = setup(args.workload, trace=bool(args.trace))
    setups = [own]
    if not args.trace:  # setup_s is an end-to-end metric, reported untraced
        setups += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    tmp_root = ROOT / ".bench_tmp"
    tmp = tmp_root / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(tmp)
        m = measure(workload, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    env["seed"] = args.seed
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans_{args.workload}_seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in setup_tracer.spans + m["spans"]:
                fh.write(json.dumps(span) + "\n")
    print("\n".join(report(args.workload, setups, m, env, setup_tracer)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
