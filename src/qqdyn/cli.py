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
    REFERENCE_ESD_TABLE,
    cell_summary,
    classify_table1,
    esd_report,
    semantics_match,
)
from .states import StateParams
from .sweep import FORMATS, check_grid, esd_report_obj, render_sweep, run_sweep
from .validate import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

_KINDS = [k.value for k in ChannelKind]
_MODES = [m.value for m in Mode]


class ConfigError(Exception):
    pass


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def _resolve_points(args) -> list[StateParams]:
    """Turn --b/--c/--a-zero flags into parameter points (zipped lists)."""
    if args.b is None:
        raise ConfigError("--b is required")
    bs = _float_list(args.b)
    if args.a_zero:
        if args.c is not None:
            raise ConfigError("--a-zero and --c are mutually exclusive")
        cs = [1.0 - 3.0 * b for b in bs]
    else:
        if args.c is None:
            raise ConfigError("either --c or --a-zero is required")
        cs = _float_list(args.c)
        if len(cs) == 1 and len(bs) > 1:
            cs = cs * len(bs)
        if len(bs) == 1 and len(cs) > 1:
            bs = bs * len(cs)
        if len(bs) != len(cs):
            raise ConfigError("--b and --c lists must have equal length")
    if not bs:
        raise ConfigError("--b names no parameter point")
    try:
        return [StateParams(b, c) for b, c in zip(bs, cs)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    finally:
        tmp.unlink(missing_ok=True)


def _run_one_sweep(kind, mode, params, steps, out, fmt, tol, start=0.0, stop=1.0) -> None:
    result = run_sweep(kind, mode, params, start=start, stop=stop, steps=steps, tol=tol)
    _write_text(out, render_sweep(result, fmt))


def _sweep_out_path(base: str | None, params: StateParams, many: bool) -> str | None:
    if base is None or not many:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}_b{params.b:g}_c{params.c:g}{p.suffix}"))


def cmd_sweep(args) -> int:
    if args.config is not None:
        return _run_batch(args.config)
    if args.kind is None or args.mode is None:
        raise ConfigError("--kind and --mode are required without --config")
    points = _resolve_points(args)
    runs = [
        {
            "kind": args.kind,
            "mode": args.mode,
            "params": p,
            "steps": args.gamma_steps,
            "out": _sweep_out_path(args.out, p, len(points) > 1),
            "fmt": args.format,
            "tol": args.tol,
        }
        for p in points
    ]
    return _run_sweeps(runs, [f"point (b={p.b!r}, c={p.c!r})" for p in points])


def _run_sweeps(runs: list[dict], labels: list[str]) -> int:
    """Run the sweeps once every output path is known to be writable as
    given: two runs sharing a path are a configuration error, a missing
    output directory an I/O error, and either stops all runs before any
    output is written."""
    claimed: dict[Path, str] = {}
    for run, label in zip(runs, labels):
        if run["out"] is None:
            continue
        path = Path(run["out"]).resolve()
        if path in claimed:
            raise ConfigError(f"{claimed[path]} and {label} both write {run['out']}")
        if not path.parent.is_dir():
            raise FileNotFoundError(f"{label}: output directory {path.parent} does not exist")
        claimed[path] = label
    for run in runs:
        _run_one_sweep(**run)
    return EXIT_OK


def _run_batch(config_path: str) -> int:
    try:
        entries = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {config_path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError("batch config must be a JSON list of run objects")
    runs = [_batch_run(i, entry) for i, entry in enumerate(entries)]
    return _run_sweeps(runs, [f"batch entry {i}" for i in range(len(runs))])


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
        c = 1.0 - 3.0 * b if a_zero else _number("c", entry["c"])
        grid = entry.get("gamma", {})
        if not isinstance(grid, dict):
            raise TypeError(f"gamma must be an object, got {grid!r}")
        steps = grid.get("steps", 513)
        if not isinstance(steps, int) or isinstance(steps, bool):
            raise TypeError(f"steps must be an integer, got {steps!r}")
        run = {
            "kind": ChannelKind(entry["kind"]),
            "mode": Mode(entry["mode"]),
            "params": StateParams(b, c),
            "steps": steps,
            "out": entry.get("out"),
            "fmt": entry.get("format", "csv"),
            "tol": _number("tol", entry.get("tol", 1e-9)),
            "start": _number("start", grid.get("start", 0.0)),
            "stop": _number("stop", grid.get("stop", 1.0)),
        }
        check_grid(run["start"], run["stop"], run["steps"], run["tol"])
        if run["fmt"] not in FORMATS:
            raise ValueError(f"unknown format {run['fmt']!r}")
        if run["out"] is not None and not isinstance(run["out"], str):
            raise TypeError(f"out must be a path string, got {run['out']!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"batch entry {i}: {exc}") from exc
    return run


def cmd_esd(args) -> int:
    points = _resolve_points(args)
    if len(points) != 1:
        raise ConfigError("esd takes a single (b, c) pair")
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
    if args.b is not None or args.c is not None:
        points = _resolve_points(args)
    else:
        points = list(CANONICAL_POINTS)
    cells = []
    # One row of 15 reports per point; zip(*...) regroups them by cell.
    for reports in zip(*(classify_table1(p, tol=args.tol) for p in points)):
        kind, mode = reports[0].kind, reports[0].mode
        reference = REFERENCE_ESD_TABLE[(kind, mode)]
        summary = cell_summary(reports)
        cells.append(
            {
                "kind": kind.value,
                "mode": mode.value,
                "reference": reference,
                "observed": summary["observed"],
                "matches_reference": semantics_match(reference, reports),
                "esd_count": summary["esd_count"],
                "point_count": summary["point_count"],
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
    p.add_argument("--a-zero", action="store_true", help="resolve c = 1 - 3b")


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
    p.add_argument("--gamma-steps", type=int, default=513)
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--config", default=None, help="JSON batch config (list of runs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("esd", help="locate the ESD threshold for one scenario")
    _add_scenario_flags(p)
    _add_param_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_esd)

    p = sub.add_parser("table1", help="15-cell ESD classification table")
    _add_param_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("validate", help="closed-form cross-validation report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
