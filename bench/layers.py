"""Per-layer and end-to-end timings of qqdyn, from the inside.

Run from the root of a checkout, preferably with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python bench/layers.py                # JSON on stdout
    OPENBLAS_NUM_THREADS=1 python bench/layers.py --repeat 1     # quickest pass
    OPENBLAS_NUM_THREADS=1 python bench/layers.py --out FILE
    OPENBLAS_NUM_THREADS=1 python bench/layers.py --baseline DIR # against DIR

Every row is timed with ``time.perf_counter`` ``--repeat`` times (the tier-1
suite once) and reports the median, the minimum and N, in milliseconds per
call.  The samples are taken round-robin: each round times every row once,
so a slow stretch of the host spreads over all rows instead of moving one
row's samples together.  Layer rows time one stage of the pipeline on 64
strengths at (b, c) = (0.05, 0.6), depolarizing multi-local unless the row
says otherwise (``_16`` rows take 16 members, ``_1`` rows the one member
of a one-point evaluation, the ``evolve_grid_chunk_*`` rows one
``evolve_grid`` call over that many strengths (all its chunks, on checkouts
where it yields them), and the ``esd_*`` rows one ESD search of that
cell; ``_qutritonly`` rows take the qutrit-only mode at the same qutrit
strengths).  ``table_combine`` mixes the terms of both sides with 64 pair
weight rows.  ``completeness`` weights both sides of a chunk of 64 strength
pairs, and ``channel_weights_1`` the one strength pair of
``evolve_one_point``, as the checkout's ``evolve_grid`` does: one
``channel_weights`` call for both sides, or one call per side on checkouts
that weight each side on its own.  The ``esd_*`` rows time the checkout's
own ESD search: ``esd_block_invariants`` takes the invariants of both
partial-transpose blocks, ``esd_candidates`` the candidate deaths from the
point, ``esd_alive`` one batch of the test of life at the candidates plus
and minus the certification half-width (the invariants' test, or the
numeric negativity of evolved states on checkouts that still evolve them),
``esd_certify_batch`` the certified bracket and ``esd_section_step`` one
sectioning step.  ``check_density*``, ``negativity_numeric`` and
``coherence_l1`` take the states as complex 6x6 matrices, the
``*_blocks*`` rows as the block stack that ``evolve_grid`` returns
(``negativity_blocks_513_diagonal`` the 513 states of a default multi-local
dephasing sweep, whose partial transposes are diagonal).  The ``emit_*``
rows render the default sweep of the subject cell, and the
``*_no_closed_form`` ones that of multi-local bit flip, whose analytic
column is empty.  ``points_op`` makes the calls of one perfbench ``points``
op (the point, the scenario, ``evolve``, both negativities,
``analytic_evolved`` and ``coherence_l1``) for each of the five kinds at
the one-point strengths, and ``negativity_numeric_1``,
``analytic_evolved_1`` and ``coherence_l1_1`` time one such call of the
subject cell; these four rows use only the package's public names.
End-to-end rows time whole runs, the ``cli_*_inprocess`` ones through
``qqdyn.cli.main`` in this process (after one warm-up call, so the
per-call dispatch cost shows next to the library rows) and the other CLI
ones in a fresh interpreter each.
A layer that the checkout does not have is reported as absent, so the same
file runs against older checkouts.  The package is imported from ``src/``
next to this file; nothing in ``qqdyn`` imports this module.

With ``--baseline DIR`` the package in ``DIR/src`` is imported too, under
another module name, and every row timed in this process is timed on both
packages within each round, the two sides in turn and the first side
alternating from round to round, so that both see the same stretch of the
host.  Such a row also reports the baseline's median, minimum and N, and
the ratio of the medians (this checkout over the baseline).  The
fresh-interpreter CLI rows and the tier-1 row time this checkout only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from types import ModuleType

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: The submodules a row may use, imported with the package.
SUBMODULES = ("channels", "cli", "evolution", "linalg", "negativity", "states", "sweep",
              "validate")
N = 64
G = np.linspace(0.0, 1.0, N)
#: The strengths (gamma_qubit, gamma_qutrit) of the one-point rows.
_ONE_POINT = (0.3, 0.7)


def load_package(root: Path, name: str) -> ModuleType:
    """The qqdyn package in ``root/src``, imported as ``name`` with its
    submodules."""
    src = root / "src" / "qqdyn"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return package


def _subject(q: ModuleType) -> tuple:
    """The point, kind and mode the rows time, as the package ``q`` builds
    them."""
    return q.StateParams(0.05, 0.6), q.ChannelKind.DEPOLARIZING, q.Mode.MULTI_LOCAL


def _evolved(q: ModuleType, kind, p, ga, gb) -> np.ndarray:
    """The states of the checkout's ``evolve_grid`` as one block stack: the
    one it returns, or the chunks it yields on checkouts that yield them."""
    states = q.evolution.evolve_grid(kind, p, ga, gb)
    return states if isinstance(states, np.ndarray) else np.concatenate(list(states))


def _stack(q: ModuleType) -> np.ndarray:
    """The 64 states as ``evolve_grid`` returns them."""
    p, kind, _ = _subject(q)
    return _evolved(q, kind, p, G, G)


def _closed_forms(q: ModuleType):
    p, kind, mode = _subject(q)
    ga, gb = q.evolution.sweep_strengths(mode, np.linspace(0.0, 1.0, 513))
    return lambda: q.negativity.analytic_negativities(kind, mode, p, ga, gb)


def _weighting(q: ModuleType, ga: np.ndarray, gb: np.ndarray):
    """Both sides' weight rows at the strength pairs (ga, gb), as the
    checkout's ``evolve_grid`` takes them: one ``channel_weights`` call, or
    one call per side where it takes a side."""
    _, kind, _ = _subject(q)
    channel_weights, side = q.channels.channel_weights, q.channels.Side
    if "side" in inspect.signature(channel_weights).parameters:
        return lambda: (channel_weights(kind, side.QUBIT, ga), channel_weights(kind, side.QUTRIT, gb))
    return lambda: channel_weights(kind, ga, gb)


def _table_combine(q: ModuleType):
    p, kind, _ = _subject(q)
    wa, wb = _weighting(q, G, G)()
    table = q.evolution._BASIS_TABLES[kind]
    both = count = wa.shape[1] * wb.shape[1]
    # Older checkouts hold (table, ta, tb): the qubit-side terms, the
    # qutrit-side terms, then those of both sides.
    if isinstance(table, tuple):
        table, ta, tb = table
        count += ta + tb
    # One row per term, whatever the checkout stores per term.
    terms = (q.states.family_weights(p) @ table).reshape(count, -1)[-both:]

    def mix():
        pairs = (wb[:, :, None] * wa[:, None, :]).reshape(N, 1, -1)
        out = np.empty((N, terms.shape[1]))
        np.matmul(pairs, terms, out=out.reshape(N, 1, -1))
        return out
    return mix


def _esd_search(q: ModuleType) -> tuple:
    """The candidate deaths, as a callable from the point, and the test of
    life of the checkout's ESD search: on the invariant polynomials where
    the checkout decides death there (``_alive``), else on the numeric
    negativity of evolved states (``sweep_alive``).  Looked up now, so that
    a checkout without them reports the row absent."""
    p, kind, mode = _subject(q)
    negativity = q.negativity
    if not hasattr(negativity, "_alive"):
        candidates = negativity._esd_candidates
        return (lambda: candidates(kind, mode, p)), partial(negativity.sweep_alive, kind, mode, p)
    invariants, chosen, roots = (negativity._block_invariants, negativity._chosen_invariants,
                                 negativity._strengths_of_roots)

    def candidates():
        found, k = invariants(kind, mode, p)
        return roots(chosen(found), k)
    return candidates, partial(negativity._alive, *invariants(kind, mode, p))


def _esd_block_invariants(q: ModuleType):
    p, kind, mode = _subject(q)
    invariants = q.negativity._block_invariants
    return lambda: invariants(kind, mode, p)


def _esd_alive(q: ModuleType):
    candidates, alive = _esd_search(q)
    h = q.negativity.ESD_BRACKET
    samples = [r + s * h for r in candidates() for s in (-1.0, 1.0)]
    return lambda: alive(samples)


def _esd_certify_batch(q: ModuleType):
    # At tol = 1 the sectioning takes no step: the one certification batch
    # about the candidates.
    candidates, alive = _esd_search(q)
    roots = candidates()
    return lambda: q.negativity._death_bracket(roots, alive, 1.0)


def _esd_section_step(q: ModuleType):
    # One sectioning step: half the certified width is reached after one batch.
    lo, hi = _esd_certify_batch(q)()
    section, alive = q.negativity._section, _esd_search(q)[1]
    return lambda: section(lo, hi, alive, (hi - lo) / 2.0)


def _points_op(q: ModuleType):
    """The calls of one perfbench ``points`` op, as ``perfbench/worker.py``
    makes them, for each of the five kinds at the one-point strengths."""
    point = _subject(q)[0]

    def op():
        for kind in q.ChannelKind:
            p = q.StateParams(point.b, point.c)
            scenario = q.ChannelScenario(kind, q.Mode.MULTI_LOCAL, *_ONE_POINT)
            state = q.evolve(scenario, p)
            q.negativity_numeric(state)
            try:
                q.negativity_analytic(scenario, p)
            except q.NoClosedFormError:
                pass
            q.analytic_evolved(kind, p, *_ONE_POINT)
            q.coherence_l1(state)
    return op


def _diagonal_stack(q: ModuleType) -> np.ndarray:
    """The 513 states of a default multi-local dephasing sweep at the
    subject point, whose partial transposes are diagonal."""
    p, _, mode = _subject(q)
    ga, gb = q.evolution.sweep_strengths(mode, np.linspace(0.0, 1.0, 513))
    return _evolved(q, q.ChannelKind.DEPHASING, p, ga, gb)


def _grid_chunk(q: ModuleType, n: int, mode):
    p, kind, _ = _subject(q)
    ga, gb = q.evolution.sweep_strengths(mode, np.linspace(0.0, 1.0, n))
    grid = q.evolution.evolve_grid
    # A generator does its work only as its chunks are taken.
    if inspect.isgeneratorfunction(grid):
        return lambda: list(grid(kind, p, ga, gb))
    return lambda: grid(kind, p, ga, gb)


def layer_rows(q: ModuleType) -> dict:
    """name -> (setup returning the timed callable, calls per sample), for
    the package ``q``."""
    p, kind, mode = _subject(q)
    evolution, negativity, states = q.evolution, q.negativity, q.states
    stack = _stack(q)
    product = q.linalg.from_blocks(stack).astype(complex)
    sweep = q.sweep.run_sweep(kind, mode, p)
    no_closed_form = q.sweep.run_sweep(q.ChannelKind.BIT_FLIP, mode, p)
    render_sweep = q.sweep.render_sweep
    diagonal = _diagonal_stack(q)
    one = evolution.ChannelScenario(kind, mode, *_ONE_POINT)
    one_qutrit = evolution.ChannelScenario(kind, q.Mode.QUTRIT_ONLY, 0.0, _ONE_POINT[1])
    one_state = q.evolve(one, p)
    rows = {
        "initial_state": (lambda: lambda: states.initial_state(p), 500),
        "table_combine": (lambda: _table_combine(q), 500),
        "completeness": (lambda: _weighting(q, G, G), 500),
        "channel_weights_1": (
            lambda: _weighting(q, np.array(_ONE_POINT[:1]), np.array(_ONE_POINT[1:])), 1000),
        "check_density": (lambda: lambda: states.check_density(product), 200),
        "check_density_16": (lambda: lambda: states.check_density(product[:16]), 500),
        "check_density_1": (lambda: lambda: states.check_density(product[:1]), 1000),
        "negativity_numeric": (lambda: lambda: negativity.negativity_numeric(product), 200),
        "coherence_l1": (lambda: lambda: evolution.coherence_l1(product), 500),
        "closed_forms_513": (lambda: _closed_forms(q), 50),
        "emit_csv_513": (lambda: lambda: render_sweep(sweep, "csv"), 20),
        "emit_json_513": (lambda: lambda: render_sweep(sweep, "json"), 20),
        "emit_csv_513_no_closed_form": (lambda: lambda: render_sweep(no_closed_form, "csv"), 20),
        "emit_json_513_no_closed_form": (lambda: lambda: render_sweep(no_closed_form, "json"), 20),
        "evolve_one_point": (lambda: lambda: evolution.evolve(one, p), 300),
        "evolve_one_point_qutritonly": (lambda: lambda: evolution.evolve(one_qutrit, p), 300),
        "evolve_grid_chunk_128": (lambda: _grid_chunk(q, 128, mode), 100),
        "evolve_grid_chunk_128_qutritonly": (lambda: _grid_chunk(q, 128, q.Mode.QUTRIT_ONLY), 100),
        "evolve_grid_chunk_16": (lambda: _grid_chunk(q, 16, mode), 300),
        "points_op": (lambda: _points_op(q), 100),
        "negativity_numeric_1": (lambda: lambda: q.negativity_numeric(one_state), 1000),
        "analytic_evolved_1": (lambda: lambda: q.analytic_evolved(kind, p, *_ONE_POINT), 1000),
        "coherence_l1_1": (lambda: lambda: q.coherence_l1(one_state), 1000),
        "esd_candidates": (lambda: _esd_search(q)[0], 300),
        "esd_block_invariants": (lambda: _esd_block_invariants(q), 300),
        "esd_alive": (lambda: _esd_alive(q), 300),
        "esd_certify_batch": (lambda: _esd_certify_batch(q), 300),
        "esd_section_step": (lambda: _esd_section_step(q), 300),
    }
    for n, suffix, calls in ((64, "", 200), (16, "_16", 500), (1, "_1", 1000)):
        rows[f"check_density_blocks{suffix}"] = (
            lambda n=n: lambda b=stack[:n]: states.check_density(b), calls)
        rows[f"negativity_blocks{suffix}"] = (
            lambda n=n: lambda b=stack[:n]: negativity.negativity_numeric(b), calls)
    rows["negativity_blocks_513_diagonal"] = (
        lambda: lambda: negativity.negativity_numeric(diagonal), 50)
    return rows


def _cli_call(q: ModuleType, argv: list[str]):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if q.cli.main(argv) != 0:
                raise RuntimeError(f"qqdyn {' '.join(argv)} failed")
    return call


def inprocess_rows(q: ModuleType, workdir: str) -> dict:
    """The end-to-end rows timed in this process, as :func:`layer_rows`."""
    p, kind, mode = _subject(q)
    run_sweep, negativity, validate = q.sweep.run_sweep, q.negativity, q.validate
    cells = [(k, m) for k in q.ChannelKind for m in q.Mode]
    argv = cli_rows(workdir)
    rows = {
        "cli_esd_inprocess": (lambda: _cli_call(q, argv["cli_esd"]), 20),
        "cli_sweep_csv_inprocess": (lambda: _cli_call(q, argv["cli_sweep_513_csv"]), 5),
        "cli_sweep_json_inprocess": (lambda: _cli_call(q, argv["cli_sweep_513_json"]), 5),
        "run_sweep_513_bitflip_qubitonly": (
            lambda: lambda: run_sweep(q.ChannelKind.BIT_FLIP, q.Mode.QUBIT_ONLY, p), 5),
        "run_sweep_513_depolarizing_multilocal": (lambda: lambda: run_sweep(kind, mode, p), 5),
        "esd_gamma_15_cells": (
            lambda: lambda: [negativity.esd_gamma(k, m, p) for k, m in cells], 3),
    }
    for name in ("_completeness_check", "_grid_bisection_check", "_route_agreement_check"):
        rows[f"validate.{name}"] = (lambda name=name: getattr(validate, name), 1)
    points = validate.random_entangled_params(np.random.default_rng(validate._SEED), 20)
    for name in ("_evolved_form_checks", "_closed_form_curves", "_negativity_form_checks",
                 "_threshold_checks", "_equivalence_checks"):
        rows[f"validate.{name}"] = (lambda name=name: _validate_check(q, name, points), 1)
    return rows


def _validate_check(q: ModuleType, name: str, points: list):
    """Setup of a ``validate`` row that takes the 20 points of a run.  The
    check is looked up now, so that a checkout without it reports the row
    absent.  The checks on the closed-form curves take those curves,
    evaluated once (``_closed_form_curves``, a row of its own).  A check
    that takes no argument (``_threshold_checks`` on checkouts that list
    its cells by hand) is timed as it is."""
    check = getattr(q.validate, name)
    if not inspect.signature(check).parameters:
        return check
    shared = name in ("_negativity_form_checks", "_threshold_checks", "_equivalence_checks")
    arg = q.validate._closed_form_curves(points) if shared else points
    return lambda: check(arg)


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


def interleaved(timers: dict, repeat: int) -> dict:
    """name -> side -> ``repeat`` samples of the timer ``timers[name][side]``,
    taken in rounds: each round calls every row's timers once, rows in the
    order given and the sides of a row in turn, the first side alternating
    from round to round."""
    times = {name: {side: [] for side in sides} for name, sides in timers.items()}
    for r in range(repeat):
        for name, sides in timers.items():
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                times[name][side].append(sides[side]())
    return times


def timed_rows(q: ModuleType, workdir: str) -> dict:
    """name -> (group, detail, timer or None) of every row timed in this
    process on the package ``q``; None where the package lacks the layer."""
    table = {}
    for group, rows in (("layer", layer_rows(q)), ("end_to_end", inprocess_rows(q, workdir))):
        for name, (setup, calls) in rows.items():
            try:
                fn = setup()
            except (AttributeError, ImportError) as exc:
                table[name] = (group, f"absent: {exc}", None)
                continue
            table[name] = (group, f"{calls} calls per sample", sampler(fn, calls))
    return table


def sampler(fn, calls: int):
    """A timer of ``calls`` calls of ``fn``, in ms per call, after one
    untimed warm-up call."""
    fn()

    def timer() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls * 1e3
    return timer


def run_process(argv: list[str], check: bool = True) -> tuple[float, int]:
    """One run of ``argv`` in a fresh process: its time in ms and exit code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, check=check, capture_output=True)
    return (time.perf_counter() - t0) * 1e3, proc.returncode


def summary(times: list[float] | None, detail: str) -> dict:
    if times is None:
        return {"absent": True, "detail": detail}
    return {"median": statistics.median(times), "min": min(times), "n": len(times),
            "detail": detail}


def _git(root: Path, *args: str) -> str:
    # Kept from looking above the checkout, which need not be a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True,
                              check=True)
        return proc.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def checkout(root: Path, q: ModuleType) -> dict:
    # GRID_CHUNK lives in ``sweep``, its one user, or in ``evolution`` on
    # checkouts whose ``evolve_grid`` yields chunks.
    grid_chunk = getattr(q.sweep, "GRID_CHUNK", None) or q.evolution.GRID_CHUNK
    return {"git_head": _git(root, "rev-parse", "HEAD"),
            "git_dirty": bool(_git(root, "status", "--porcelain")),
            "grid_chunk": grid_chunk}


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
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="samples per row, at least 1")
    parser.add_argument("--out", help="write the JSON here instead of to standard output")
    parser.add_argument("--baseline", metavar="DIR",
                        help="also time the rows of this process on the checkout in DIR")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    base_root = Path(args.baseline).resolve() if args.baseline else None
    if base_root and not (base_root / "src" / "qqdyn" / "__init__.py").is_file():
        parser.error(f"--baseline: no qqdyn package in {base_root / 'src'}")
    q = load_package(ROOT, "qqdyn")
    base = load_package(base_root, "qqdyn_baseline") if base_root else None
    with tempfile.TemporaryDirectory() as workdir:
        # name -> (group, detail, timer or None), in report order.
        table = timed_rows(q, workdir)
        base_table = timed_rows(base, workdir) if base else {}
        for name, cmd in cli_rows(workdir).items():
            argv = [sys.executable, "-m", "qqdyn.cli", *cmd]
            timer = lambda argv=argv: run_process(argv)[0]  # noqa: E731
            table[name] = ("end_to_end", "fresh interpreter, " + cmd[0], timer)
        timers = {}
        for side, rows in (("checkout", table), ("baseline", base_table)):
            for name, (_, _, timer) in rows.items():
                if timer:
                    timers.setdefault(name, {})[side] = timer
        times = interleaved(timers, args.repeat)
    rows = []
    for name, (group, detail, _) in table.items():
        sides = times.get(name, {})
        out = {"name": name, "group": group, "unit": "ms"} | summary(sides.get("checkout"), detail)
        if name in base_table:
            out["baseline"] = summary(sides.get("baseline"), base_table[name][1])
            if "median" in out and "median" in out["baseline"]:
                out["ratio"] = out["median"] / out["baseline"]["median"]
        rows.append(out)
    suite = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"]
    ms, code = run_process(suite, check=False)
    rows.append({"name": "tier1_suite", "group": "end_to_end", "unit": "ms"}
                | summary([ms], f"once, fresh interpreter, exit code {code}"))
    env = environment() | checkout(ROOT, q)
    if base:
        env["baseline"] = {"root": str(base_root)} | checkout(base_root, base)
    text = json.dumps({"environment": env, "repeat": args.repeat, "rows": rows}, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
