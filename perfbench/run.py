"""Outside-in benchmark for qqdyn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1110 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each workload runs in its own fresh interpreter (``worker.py``) against the
package in ``src/``, with the BLAS/OpenMP thread variables set to
``THREADS``.  A run does a fixed number of ops, set by the workload and
``--seconds``, so the same seed always runs the same ops.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead.  Lines before it give the environment record and a
readable summary.

Set-up time is the median over fresh interpreters, spawned at even intervals
during the run, of the wall time from process start until ``qqdyn.cli`` is
imported.  After the timed run, a second fresh interpreter repeats the run's
first ops with the same seed; a different output digest marks the run
incorrect, as does any op that raised, exited non-zero or failed a check
other than the package's one known ESD miss.

Seeds: ``DEFAULT_SEED`` is the default; ``HELD_OUT_SEED`` is kept for
confirming a claimed gain on inputs not used while writing the change.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 1110
HELD_OUT_SEED = 382
WORKLOAD_NAMES = ("sweep", "esd", "points")
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds a child may take beyond the measured time before it is stopped.
CHILD_GRACE_S = 60


class BenchError(Exception):
    pass


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def _run_child(argv: list[str], env: dict[str, str], timeout: float) -> str:
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Value at the percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(n * percentile / 100)))
    return sorted_values[rank - 1], n - rank


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository.
    Git is kept from looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=CHILD_GRACE_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _child_env(root)
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    worker = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds),
              "1" if trace else "0", str(work)]
    timeout = 2 * seconds + CHILD_GRACE_S
    try:
        res = json.loads(_run_child(worker, env, timeout))
        again = json.loads(_run_child(worker + [str(res["digest_ops"])], env, timeout))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    deterministic = again["digest"] == res["digest"]
    if not deterministic:
        res["errors"].append("replay with the same seed gave a different output digest")
    res["correct"] = deterministic and res["unexpected"] == 0
    res["env"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": res["attempted"],
        "failed_frac": res["failed"] / res["attempted"],
        "unexpected_failures": res["unexpected"],
        "digest": res["digest"],
        "digest_ops": res["digest_ops"],
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas": res["blas"],
        "nproc": os.cpu_count(),
        "threads": {var: THREADS for var in THREAD_VARS},
        "commit": git_commit(root),
    }
    if trace:
        res["metrics"] = res["layers"]
        res["env"]["absent"] = res["absent"]
        return res

    setup = res["setup_s"]
    lat = sorted(res["latencies_s"])
    tail, beyond = nearest_rank(lat, res["tail_percentile"])
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    speed = res["speed"]
    res["env"].update(
        setup_samples=len(setup),
        tail_percentile=res["tail_percentile"],
        tail_samples_beyond=beyond,
        speed=speed,
        probes=res["probes"],
        raw=raw,
    )
    res["metrics"] = {
        "setup_s": raw["setup_s"] * speed,
        "ops_per_s": raw["ops_per_s"] / speed,
        "op_p50_ms": raw["op_p50_ms"] * speed,
        "op_tail_ms": raw["op_tail_ms"] * speed,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res


def _units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qqdyn" / "__init__.py").is_file():
        print("error: run from a qqdyn checkout (no src/qqdyn here)", file=sys.stderr)
        return 2
    units = _units()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        print(json.dumps({"env": res["env"]}))
        for err in res["errors"]:
            print(f"# {name}: {err}")
        print(f"# {name}: failed_frac = {res['env']['failed_frac']!r} "
              f"({res['failed']} of {res['attempted']} ops)")
        for metric, value in res["metrics"].items():
            print(f"# {name}: {metric} = {value!r} {units[metric]}")
    summary = {
        name: {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in res["metrics"].items()},
        }
        for name, res in results.items()
    }
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
