"""Per-layer and end-to-end timings of qqdyn, from the inside.

Run from the root of a checkout, preferably with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python bench/layers.py                # JSON on stdout
    OPENBLAS_NUM_THREADS=1 python bench/layers.py --repeat 1     # quickest pass
    OPENBLAS_NUM_THREADS=1 python bench/layers.py --out FILE

Every row is timed with ``time.perf_counter`` ``--repeat`` times (the tier-1
suite once) and reports the median, the minimum and N, in milliseconds per
call.  Layer rows time one stage of the pipeline on 64 strengths at
(b, c) = (0.05, 0.6), depolarizing multi-local unless the row says otherwise
(``check_density_16`` checks the 16 members of an ESD node chunk,
``check_density_1`` the one member of a one-point evaluation);
end-to-end rows time whole runs, the ``cli_*_inprocess`` ones through
``qqdyn.cli.main`` in this process (after one warm-up call, so the per-call
dispatch cost shows next to the library rows) and the other CLI ones in a
fresh interpreter each.
A layer that the checkout does not have is reported as absent, so the same
file runs against older checkouts.  The package is imported from ``src/``
next to this file; nothing in ``qqdyn`` imports this module.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qqdyn import (  # noqa: E402
    ChannelKind,
    Mode,
    StateParams,
    cli,
    evolution,
    negativity,
    states,
    validate,
)
from qqdyn.channels import Side, kraus_operators  # noqa: E402
from qqdyn.sweep import render_sweep, run_sweep  # noqa: E402

P = StateParams(0.05, 0.6)
KIND, MODE = ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL
N = 64
G = np.linspace(0.0, 1.0, N)
CELLS = [(kind, mode) for kind in ChannelKind for mode in Mode]


def _stack() -> np.ndarray:
    return np.concatenate(list(evolution.evolve_grid(KIND, P, G, G)))


def _closed_forms():
    ga, gb = evolution.sweep_strengths(MODE, np.linspace(0.0, 1.0, 513))
    if hasattr(negativity, "analytic_negativities"):
        return lambda: negativity.analytic_negativities(KIND, MODE, P, ga, gb)
    pairs = list(zip(ga.tolist(), gb.tolist()))  # one scalar call per row
    return lambda: [
        negativity.negativity_analytic(evolution.ChannelScenario(KIND, MODE, a, b), P)
        for a, b in pairs
    ]


def _table_combine():
    from qqdyn.channels import channel_weights

    table, ta, tb = evolution._BASIS_TABLES[KIND]
    terms = (states.family_weights(P) @ table).reshape(-1, 72)[ta + tb :]
    wa, wb = channel_weights(KIND, Side.QUBIT, G), channel_weights(KIND, Side.QUTRIT, G)
    pairs = (wb[:, :, None] * wa[:, None, :]).reshape(N, -1)
    return lambda: evolution._combine(pairs, terms)


def _completeness():
    from qqdyn.channels import channel_weights

    return lambda: channel_weights(KIND, Side.QUTRIT, G)


def _esd_node_step():
    (nodes,) = evolution.evolve_grid(KIND, P, *evolution.sweep_strengths(MODE, negativity._NODES))
    values = negativity._eigenvalue_product(nodes)
    return {
        "esd_node_eigenvalue_product": lambda: negativity._eigenvalue_product(nodes),
        "esd_node_roots": lambda: negativity._node_roots(values),
    }


def _esd_alive():
    # Looked up now, so that a checkout without it reports the row absent.
    negativities = negativity.sweep_negativities
    return lambda g: negativities(KIND, MODE, P, g) > negativity.ESD_NEGATIVITY_THRESHOLD


def _esd_certify_batch():
    # At tol = 1 the sectioning takes no step: the node roots plus the one
    # certification batch about them.
    (nodes,) = evolution.evolve_grid(KIND, P, *evolution.sweep_strengths(MODE, negativity._NODES))
    values, alive = negativity._eigenvalue_product(nodes), _esd_alive()
    return lambda: negativity._death_bracket(values, alive, 1.0)


def _esd_section_step():
    # One sectioning step: half the certified width is reached after one batch.
    lo, hi = _esd_certify_batch()()
    section, alive = negativity._section, _esd_alive()
    return lambda: section(lo, hi, alive, (hi - lo) / 2.0)


def layer_rows() -> dict:
    """name -> (setup returning the timed callable, calls per sample)."""
    stack = _stack()
    ops = kraus_operators(KIND, Side.QUTRIT, G)
    sweep = run_sweep(KIND, MODE, P)
    one = evolution.ChannelScenario(KIND, MODE, 0.3, 0.7)
    rows = {
        "initial_state": (lambda: lambda: states.initial_state(P), 500),
        "table_combine": (_table_combine, 500),
        "completeness": (_completeness, 500),
        "kraus_operators": (lambda: lambda: kraus_operators(KIND, Side.QUTRIT, G), 200),
        "apply_channel": (lambda: lambda: evolution.apply_channel(ops, stack), 50),
        "check_density": (lambda: lambda: states.check_density(stack), 200),
        "check_density_16": (lambda: lambda: states.check_density(stack[:16]), 500),
        "check_density_1": (lambda: lambda: states.check_density(stack[:1]), 1000),
        "negativity_numeric": (lambda: lambda: negativity.negativity_numeric(stack), 200),
        "coherence_l1": (lambda: lambda: evolution.coherence_l1(stack), 500),
        "closed_forms_513": (_closed_forms, 50),
        "emit_csv_513": (lambda: lambda: render_sweep(sweep, "csv"), 20),
        "emit_json_513": (lambda: lambda: render_sweep(sweep, "json"), 20),
        "evolve_one_point": (lambda: lambda: evolution.evolve(one, P), 300),
        "esd_certify_batch": (_esd_certify_batch, 300),
        "esd_section_step": (_esd_section_step, 300),
    }
    for name, fn in _esd_node_step().items():
        rows[name] = (lambda fn=fn: fn, 300)
    return rows


def _cli_call(argv: list[str]):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"qqdyn {' '.join(argv)} failed")
    return call


def end_to_end_rows(workdir: str) -> dict:
    argv = cli_rows(workdir)
    rows = {
        "cli_esd_inprocess": (lambda: _cli_call(argv["cli_esd"]), 20),
        "cli_sweep_csv_inprocess": (lambda: _cli_call(argv["cli_sweep_513_csv"]), 5),
        "cli_sweep_json_inprocess": (lambda: _cli_call(argv["cli_sweep_513_json"]), 5),
        "run_sweep_513_bitflip_qubitonly": (
            lambda: lambda: run_sweep(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY, P), 5),
        "run_sweep_513_depolarizing_multilocal": (lambda: lambda: run_sweep(KIND, MODE, P), 5),
        "esd_gamma_15_cells": (
            lambda: lambda: [negativity.esd_gamma(k, m, P) for k, m in CELLS], 3),
    }
    for name in ("_completeness_check", "_threshold_checks", "_grid_bisection_check",
                 "_route_agreement_check"):
        rows[f"validate.{name}"] = (lambda name=name: getattr(validate, name), 1)
    points = validate.random_entangled_params(np.random.default_rng(validate._SEED), 20)
    for name in ("_evolved_form_checks", "_negativity_form_checks", "_equivalence_checks"):
        rows[f"validate.{name}"] = (lambda name=name: lambda: getattr(validate, name)(points), 1)
    return rows


def cli_rows(workdir: str) -> dict:
    """name -> argv after ``python -m qqdyn.cli``, each run in a fresh interpreter."""
    point = ["--b", "0.05", "--c", "0.6"]
    sweep = ["sweep", "--kind", "depolarizing", "--mode", "multilocal", *point]
    return {
        "cli_sweep_513_csv": sweep + ["--out", f"{workdir}/s.csv", "--format", "csv"],
        "cli_sweep_513_json": sweep + ["--out", f"{workdir}/s.json", "--format", "json"],
        "cli_esd": ["esd", "--kind", "dephasing", "--mode", "qubitonly", *point,
                    "--out", f"{workdir}/e.json"],
        "cli_table1": ["table1", "--out", f"{workdir}/t.json"],
        "cli_validate": ["validate", "--out", f"{workdir}/v.json"],
    }


def sample(fn, calls: int, repeat: int) -> list[float]:
    fn()  # warm-up, untimed
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls * 1e3)
    return times


def run_process(argv: list[str], repeat: int, check: bool = True) -> tuple[list[float], int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, check=check, capture_output=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return times, proc.returncode


def row(name: str, group: str, times: list[float] | None, detail: str = "") -> dict:
    out = {"name": name, "group": group, "unit": "ms"}
    if times is None:
        return out | {"absent": True, "detail": detail}
    return out | {"median": statistics.median(times), "min": min(times), "n": len(times),
                  "detail": detail}


def _git(*args: str) -> str:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
        return proc.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:  # the config layout is not a stable numpy API
        blas = "unknown"
    return {
        "machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "git_head": _git("rev-parse", "HEAD"), "git_dirty": bool(_git("status", "--porcelain")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "grid_chunk": evolution.GRID_CHUNK,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="samples per row, at least 1")
    parser.add_argument("--out", help="write the JSON here instead of to standard output")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for group, table in (("layer", layer_rows()), ("end_to_end", end_to_end_rows(workdir))):
            for name, (setup, calls) in table.items():
                try:
                    fn = setup()
                except (AttributeError, ImportError) as exc:
                    rows.append(row(name, group, None, f"absent: {exc}"))
                    continue
                times = sample(fn, calls, args.repeat)
                rows.append(row(name, group, times, f"{calls} calls per sample"))
        for name, cmd in cli_rows(workdir).items():
            times, _ = run_process([sys.executable, "-m", "qqdyn.cli", *cmd], args.repeat)
            rows.append(row(name, "end_to_end", times, "fresh interpreter, " + " ".join(cmd[:1])))
    suite = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"]
    times, code = run_process(suite, 1, check=False)
    detail = f"once, fresh interpreter, exit code {code}"
    rows.append(row("tier1_suite", "end_to_end", times, detail))
    text = json.dumps({"environment": environment(), "repeat": args.repeat, "rows": rows},
                      indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
