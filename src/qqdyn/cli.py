"""Command-line front end.

Subcommands:
  sweep     tabulate negativity/coherence over a strength grid (CSV or JSON)
  esd       locate the ESD threshold for one scenario
  table1    classify all 15 (kind, mode) cells over a set of parameter points
  validate  run the closed-form cross-validation suite

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 validation
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .channels import ChannelKind
from .evolution import Mode
from .negativity import (
    CANONICAL_POINTS,
    CELL_LABELS,
    DEFAULT_TOL,
    REFERENCE_ESD_TABLE,
    check_entangled,
    classify_table1,
    esd_report,
)
from .states import StateParams
from .sweep import DEFAULT_STEPS, FORMATS, check_grid, esd_report_obj, render_sweep, run_sweep
from .validate import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

_KINDS = [k.value for k in ChannelKind]
_MODES = [m.value for m in Mode]

#: The default format of ``sweep`` and of each batch entry alike.  Grid points
#: and ESD tolerances default to the library's ``DEFAULT_STEPS`` and
#: ``DEFAULT_TOL``.
_FORMAT = "csv"
#: The ``sweep`` flags that a ``--config`` batch entry sets for itself; the
#: parser leaves each None unless it is given.
_RUN_FLAGS = ("kind", "mode", "b", "c", "a_zero", "gamma_steps", "out", "format", "tol")


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from exc


def _point(b: float, c: float | None, a_zero: bool) -> StateParams:
    """The point (b, c), or (b, 1 - 3b) with ``a_zero``; ValueError unless
    it is a valid, entangled point."""
    params = StateParams.a_zero(b) if a_zero else StateParams(b, c)
    check_entangled(params)
    return params


def _resolve_points(args) -> list[StateParams]:
    """Turn --b/--c/--a-zero flags into checked parameter points (zipped lists)."""
    if args.b is None:
        raise ValueError("--b is required")
    bs = _float_list(args.b)
    if args.a_zero:
        if args.c is not None:
            raise ValueError("--a-zero and --c are mutually exclusive")
        cs = [None] * len(bs)
    else:
        if args.c is None:
            raise ValueError("either --c or --a-zero is required")
        cs = _float_list(args.c)
        if len(cs) == 1 and len(bs) > 1:
            cs = cs * len(bs)
        if len(bs) == 1 and len(cs) > 1:
            bs = bs * len(cs)
        if len(bs) != len(cs):
            raise ValueError("--b and --c lists must have equal length")
    if not bs:
        raise ValueError("--b names no parameter point")
    return [_point(b, c, args.a_zero) for b, c in zip(bs, cs)]


def _write_text(path: str | None, text: str) -> None:
    """Write to stdout, or to ``path`` through a temporary file in the same
    directory and a rename, so that a failed write leaves no partial file."""
    if path is None:
        sys.stdout.write(text)
        return
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        # Only a failed write or rename leaves the temporary file behind.
        tmp.unlink(missing_ok=True)
        raise


def _sweep_out_path(base: str | None, params: StateParams, many: bool) -> str | None:
    if base is None or not many:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}_b{params.b:g}_c{params.c:g}{p.suffix}"))


def cmd_sweep(args) -> int:
    if args.config is not None:
        given = [f"--{name.replace('_', '-')}" for name in _RUN_FLAGS
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--config sets every run itself; it cannot take {' '.join(given)}")
        return _run_batch(args.config)
    if args.kind is None or args.mode is None:
        raise ValueError("--kind and --mode are required without --config")
    points = _resolve_points(args)
    runs = [
        {
            "kind": args.kind,
            "mode": args.mode,
            "params": p,
            "steps": DEFAULT_STEPS if args.gamma_steps is None else args.gamma_steps,
            "out": _sweep_out_path(args.out, p, len(points) > 1),
            "fmt": args.format or _FORMAT,
            "tol": DEFAULT_TOL if args.tol is None else args.tol,
        }
        for p in points
    ]
    return _run_sweeps(runs, [f"point (b={p.b!r}, c={p.c!r})" for p in points])


def _entry(path: str) -> tuple[int, int, str]:
    """The directory entry that :func:`_write_text` replaces at ``path``: its
    directory, told by device and inode, which follows a symlinked directory,
    and its name, a symlink itself included, since ``os.replace`` replaces
    the link and not its target.  OSError unless the directory exists."""
    # The trailing separator fails the stat where the parent is not a directory.
    st = os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    return st.st_dev, st.st_ino, os.path.basename(path)


def _claim(outs: list[str | None], labels: list[str], config: str | None = None) -> None:
    """Check every output path of a command (None for stdout) before any
    work: a path with an empty name (ending in a separator, say), two
    outputs sharing a directory entry, or one writing the batch ``config``
    it came from (the entry that the config resolves to) are a ValueError;
    a missing output directory, or a path that is a directory, an OSError.
    The string is split by ``os.path``, as the kernel splits it, so a path
    that ``Path`` would shorten to another name fails; one that passes names
    the entry that ``Path`` does."""
    claimed = {} if config is None else {_entry(os.path.realpath(config)): "its config file"}
    for out, label in zip(outs, labels):
        if out is None:
            continue
        if not os.path.basename(out):
            raise ValueError(f"{label}: output path {out!r} has an empty name")
        try:
            entry = _entry(out)
        except OSError as exc:
            raise OSError(f"{label}: cannot write {os.path.abspath(out)}: {exc.strerror}") from exc
        if os.path.isdir(out) and not os.path.islink(out):
            raise IsADirectoryError(f"{label}: output path {os.path.abspath(out)} is a directory")
        if entry in claimed:
            raise ValueError(f"{label} would overwrite {claimed[entry]}, {out}")
        claimed[entry] = f"the output of {label}"


def _run_sweeps(runs: list[dict], labels: list[str], config: str | None = None) -> int:
    """Run the sweeps (``run_sweep``'s arguments plus ``out`` and ``fmt``)
    once :func:`_claim` has passed their output paths."""
    _claim([run["out"] for run in runs], labels, config)
    for run in runs:
        sweep = dict(run)
        out, fmt = sweep.pop("out"), sweep.pop("fmt")
        _write_text(out, render_sweep(run_sweep(**sweep, esd=fmt == "json"), fmt))
    return EXIT_OK


def _run_batch(config_path: str) -> int:
    try:
        entries = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ValueError(f"cannot read config {config_path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError("batch config must be a JSON list of run objects")
    runs = [_batch_run(i, entry) for i, entry in enumerate(entries)]
    return _run_sweeps(runs, [f"batch entry {i}" for i in range(len(runs))], config_path)


def _number(name: str, value) -> float:
    """A batch-config value as a float; it must be a JSON number, not a string or a boolean."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _batch_run(i: int, entry) -> dict:
    """Resolve and check one batch entry, so that a bad entry stops the batch
    before any entry has run or written output."""
    try:
        b = _number("b", entry["b"])
        a_zero = entry.get("a_zero", False)
        if not isinstance(a_zero, bool):
            raise TypeError(f"a_zero must be true or false, got {a_zero!r}")
        if a_zero and "c" in entry:
            raise ValueError("a_zero and c are mutually exclusive")
        c = None if a_zero else _number("c", entry["c"])
        grid = entry.get("gamma", {})
        if not isinstance(grid, dict):
            raise TypeError(f"gamma must be an object, got {grid!r}")
        steps = grid.get("steps", DEFAULT_STEPS)
        if not isinstance(steps, int) or isinstance(steps, bool):
            raise TypeError(f"steps must be an integer, got {steps!r}")
        run = {
            "kind": ChannelKind(entry["kind"]),
            "mode": Mode(entry["mode"]),
            "params": _point(b, c, a_zero),
            "steps": steps,
            "out": entry.get("out"),
            "fmt": entry.get("format", _FORMAT),
            "tol": _number("tol", entry.get("tol", DEFAULT_TOL)),
            "start": _number("start", grid.get("start", 0.0)),
            "stop": _number("stop", grid.get("stop", 1.0)),
        }
        check_grid(run["start"], run["stop"], run["steps"], run["tol"])
        if run["fmt"] not in FORMATS:
            raise ValueError(f"unknown format {run['fmt']!r}")
        if run["out"] is not None and not isinstance(run["out"], str):
            raise TypeError(f"out must be a path string, got {run['out']!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"batch entry {i}: {exc}") from exc
    return run


def cmd_esd(args) -> int:
    points = _resolve_points(args)
    if len(points) != 1:
        raise ValueError("esd takes a single (b, c) pair")
    _claim([args.out], ["--out"])
    report = esd_report(args.kind, args.mode, points[0], tol=args.tol)
    obj = esd_report_obj(report)
    if report.esd_gamma is not None and report.analytic_gamma is not None:
        obj["agreement_delta"] = abs(report.esd_gamma - report.analytic_gamma)
    text = json.dumps(obj, indent=2) + "\n"
    _write_text(args.out, text)
    if args.out is not None:
        print(f"{args.kind}/{args.mode} (b={points[0].b:g}, c={points[0].c:g}): {report.classification}")
    return EXIT_OK


def cmd_table1(args) -> int:
    if args.b is None and args.c is None and not args.a_zero:
        points = list(CANONICAL_POINTS)
    else:
        points = _resolve_points(args)
    _claim([args.out], ["--out"])
    cells = []
    # One row of 15 reports per point; zip(*...) regroups them by cell.
    for reports in zip(*(classify_table1(p, tol=args.tol) for p in points)):
        kind, mode = reports[0].kind, reports[0].mode
        reference = REFERENCE_ESD_TABLE[(kind, mode)]
        cells.append(
            {
                "kind": kind.value,
                "mode": mode.value,
                "reference": reference,
                "observed": next(label for label, holds in CELL_LABELS.items() if holds(reports)),
                "matches_reference": CELL_LABELS[reference](reports),
                "esd_count": sum(r.classification == "ESD" for r in reports),
                "point_count": len(reports),
                "points": [esd_report_obj(r) for r in reports],
            }
        )
    obj = {
        "tool_version": __version__,
        "points": [{"b": p.b, "c": p.c} for p in points],
        "cells": cells,
    }
    _write_text(args.out, json.dumps(obj, indent=2) + "\n")

    if args.out is not None:
        width = max(len(k) for k in _KINDS) + 2
        lines = ["ESD classification (observed / reference):"]
        for i, kind in enumerate(ChannelKind):
            row = [f"  {kind.value:<{width}}"]
            for cell in cells[i * len(Mode) : (i + 1) * len(Mode)]:
                mark = "" if cell["matches_reference"] else " [!]"
                row.append(f"{cell['mode']}: {cell['observed']}/{cell['reference']}{mark}")
            lines.append("  ".join(row))
        print("\n".join(lines))
    return EXIT_OK


def cmd_validate(args) -> int:
    _claim([args.out], ["--out"])
    report = run_validation()
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.out is not None:
        for check in report["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            print(f"{status}  {check['name']}  (max error {check['max_error']:.3e})")
        n_disc = len(report["closed_form_discrepancies"])
        print(f"{n_disc} known closed-form discrepancies documented")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def _add_scenario_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--kind", required=required, choices=_KINDS)
    p.add_argument("--mode", required=required, choices=_MODES)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", help="comma-separated list of b values")
    p.add_argument("--c", help="comma-separated list of c values")
    p.add_argument("--a-zero", action="store_true", default=None, help="resolve c = 1 - 3b")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qqdyn`` parser, built on the first call and shared by every later
    :func:`main` call in the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(prog="qqdyn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="negativity/coherence sweep over gamma")
    _add_scenario_flags(p, required=False)
    _add_param_flags(p)
    # Unset by default, so that a flag given with --config can be told.
    p.add_argument("--gamma-steps", type=int, help=f"grid points (default {DEFAULT_STEPS})")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=FORMATS, help=f"default {_FORMAT}")
    p.add_argument("--tol", type=float, help=f"default {DEFAULT_TOL:g}")
    p.add_argument("--config", default=None, help="JSON batch config (list of runs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("esd", help="locate the ESD threshold for one scenario")
    _add_scenario_flags(p)
    _add_param_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_esd)

    p = sub.add_parser("table1", help="15-cell ESD classification table")
    _add_param_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("validate", help="closed-form cross-validation report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
