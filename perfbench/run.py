"""The repository's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search_ep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs plain and traced work side by side and prints the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--limits`` fixes each workload's latency limit for ``goodput_per_s``
(``BENCHMARK.json`` passes them).  See ``perfbench/README.md`` for what
each workload and metric means.
"""

from __future__ import annotations

import os
import sys

# Pin the threading of every BLAS/OpenMP runtime before NumPy loads, and
# measure the program's defaults whatever the caller's environment says.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("DISTMIS_COMPUTE_DTYPE", "DISTMIS_KERNEL_BACKEND",
             "DISTMIS_KERNEL_THREADS", "DISTMIS_KERNEL_TILE_MB"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_limits(text: str) -> dict[str, float]:
    limits = {}
    for part in filter(None, text.split(",")):
        name, sep, value = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"bad limit {part!r}")
        limits[name.strip()] = float(value)
    return limits


def _host(phase: str, record: dict) -> None:
    record[f"loadavg_{phase}"] = list(os.getloadavg())


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    Pool workers and replicas are joined by the program's own shutdown;
    anything still alive here is terminated.  CPython's multiprocessing
    resource tracker is stopped last: left alone it would outlive this
    process by the time it takes to notice the exit."""
    from multiprocessing import resource_tracker

    from workloads import child_pids

    tracker = resource_tracker._resource_tracker
    others = [pid for pid in child_pids() if pid != tracker._pid]
    for pid in others:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in others:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break            # reaped already, or not ours to reap
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    tracker._stop()


def _exit_on_sigterm(main_pid: int):
    """A SIGTERM handler that unwinds this process through its clean-up
    like any other exit.  Forked workers inherit it and die at once, as
    they would without it."""
    def handler(signum, _frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        sys.exit(128 + signum)
    return handler


def host_record() -> dict:
    import numpy as np

    from repro.nn.dtypes import get_compute_dtype
    from repro.nn.kernels import get_backend

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "kernel_backend": get_backend().name,
        "default_compute_dtype": str(get_compute_dtype()),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limits", type=_parse_limits, default={},
                   help="per-workload latency limit in seconds, "
                        "e.g. serve_small=0.05,serve_scan=2")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    signal.signal(signal.SIGTERM, _exit_on_sigterm(os.getpid()))
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)   # record files, checkpoints, spans
    tempfile.tempdir = str(tmp)

    from workloads import (E2E, PER_LAYER, WORKLOADS, Context,
                           run_workload)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload not in args.limits:
        print(f"perfbench: --limits gives no latency limit for "
              f"{args.workload!r}", file=sys.stderr)
        return 2
    host = host_record()
    _host("start", host)
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), workers=min(2, host["nproc"]),
                  limit_s=args.limits[args.workload], tmp=tmp)
    try:
        result = run_workload(args.workload, ctx)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass   # another run still uses it
    _host("end", host)
    host["compute_dtype"] = ("float32" if args.workload.startswith("search")
                             else host["default_compute_dtype"])

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("# host " + json.dumps(host, sort_keys=True))
    print("# details " + json.dumps(result.details, sort_keys=True,
                                    default=str))
    if args.trace:
        names = PER_LAYER
        values = {k: float(result.per_layer.get(k, 0.0)) for k in names}
    else:
        names = E2E
        values = {k: float(result.metrics[k]) for k in names}
    for name, value in values.items():
        if not math.isfinite(value):    # JSON has no NaN or infinity
            result.problems.append(f"{name} is {value}")
            values[name] = 0.0
    for problem in result.problems:
        print(f"# CHECK FAILED: {problem}")
    for name, unit in names.items():
        print(f"{name:42s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not result.problems and result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {k: {"value": values[k], "unit": names[k]}
                    for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
