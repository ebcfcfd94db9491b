"""Repository benchmark: the offline, serve and fleet paths, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced reps and reports the per-layer table instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (host fingerprint, checks, details).  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import time

#: Process start, as far as this program can see it (set-up is timed from here).
T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is timed in this many fresh processes, one after another, half
#: before the reps and half after them; the median is reported, so a slow
#: spell on a shared host moves it less.
SETUP_PROBES = 4
#: One BLAS thread: on a 2-vCPU host two threads made serving flushes
#: ~1.5x slower and bimodal, and training no faster.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("offline", "serve", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set the workload up, print the set-up record, exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}") from None
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, not from {SRC}")
    return repro


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    """What a result depends on besides the code: compare only equal hosts."""
    import numpy as np
    from repro.obs import git_describe

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # git must not climb out of the checkout looking for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git": git_describe(ROOT),
    }


def set_up(args: argparse.Namespace):
    """Import the program and build the workload: everything before the first rep."""
    from workloads import WORKLOADS

    bench = WORKLOADS[args.workload](args.seed)
    offline_s = bench.setup()
    return bench, {"setup_s": time.perf_counter() - T_START, "offline_s": offline_s}


def probe_setup(args: argparse.Namespace, count: int) -> list[dict]:
    """Set-up records of ``count`` fresh processes, run one at a time."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "0",
        "--setup-only",
    ]
    records = []
    for _ in range(count):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    return records


def run(args: argparse.Namespace) -> dict:
    from layers import LayerTable

    probes = [] if args.trace else probe_setup(args, SETUP_PROBES // 2)
    bench, _ = set_up(args)

    table = LayerTable()
    wall = {False: [], True: []}
    errors: list[str] = []
    modes = (False, True) if args.trace else (False,)
    min_reps = 1 if args.trace else bench.min_reps
    t_loop = time.perf_counter()
    while not errors and (
        len(wall[False]) < min_reps or time.perf_counter() - t_loop < args.seconds
    ):
        for traced in modes:
            t0 = time.perf_counter()
            try:
                if traced:
                    with table.traced(f"bench.{bench.name}"):
                        bench.rep()
                else:
                    bench.rep()
            except Exception:  # one failed operation; the run still reports
                errors.append(traceback.format_exc())
                traceback.print_exc(file=sys.stderr)
                bench.attempted += 1
                bench.failed += 1
                break
            wall[traced].append(time.perf_counter() - t0)

    if not args.trace:
        bench.finish()
        probes += probe_setup(args, SETUP_PROBES - len(probes))
    bench.verify()
    checks = dict(bench.checks, completed_without_error=not errors)
    if args.trace:
        checks["self_time_conserved"] = table.conserved
        overhead = sum(wall[True]) / sum(wall[False])
        metrics = table.metrics(overhead)
        details = {
            "traced_reps": table.reps,
            "conservation_err_s": table.conservation_err_s,
            "spans": table.per_rep_table(),
        }
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            **bench.metrics([p["offline_s"] for p in probes]),
        }
        details = {
            "setup_probes": probes,
            "rep_wall_s": wall[False],
            **bench.details(),
        }
    return {
        "workload": bench.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "checks": checks,
        "errors": errors,
        "attempted": bench.attempted,
        "succeeded": bench.attempted - bench.failed,
        "failed": bench.failed,
        "details": details,
        "metrics": metrics,
    }


def declared_metrics(trace: int) -> list[str]:
    """The metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    import_program()
    if args.setup_only:
        print(json.dumps(set_up(args)[1]))
        return 0
    record = run(args)
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()
    }
    if sorted(metrics) != sorted(declared_metrics(args.trace)):
        raise SystemExit("perfbench: measured metrics differ from those BENCHMARK.json declares")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, ok in record["checks"].items():
        print(f"check {name:40s} {'ok' if ok else 'FAILED'}")
    print(json.dumps({"perfbench": dict(record, metrics=metrics)}))
    correct = all(record["checks"].values()) and record["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
