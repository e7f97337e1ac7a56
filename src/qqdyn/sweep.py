"""Strength sweeps over a scenario with CSV and JSON emission.

Sweeps are deterministic: the same configuration always produces byte
identical output.  CSV prints floats with 17 significant digits and JSON with
the shortest round-trip ``repr``, as ``json.dumps`` does, so parsing either
file recovers the in-memory values exactly.  Each writer formats all of a
file's rows with one ``%``, over a template that holds one fixed row template
per row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import __version__
from .channels import ChannelKind
from .evolution import Mode, coherence_l1, evolve_grid, sweep_strengths
from .linalg import from_blocks
from .negativity import (
    DEFAULT_TOL,
    EsdReport,
    NoClosedFormError,
    analytic_negativities,
    check_entangled,
    check_tol,
    esd_report,
    negativity_numeric,
)
from .states import StateParams

#: Output formats accepted by :func:`render_sweep`.
FORMATS = ("csv", "json")
#: The default number of grid points of :func:`run_sweep`, and of ``qqdyn sweep``.
DEFAULT_STEPS = 513

CSV_HEADER = "gamma,negativity,negativity_analytic,coherence"
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g"
#: The row of a None analytic value, which ``%.0s`` consumes and prints as
#: nothing.
_CSV_ROW_BLANK = "%.17g,%.17g,%.0s,%.17g"

#: One sweep row as ``json.dumps(..., indent=2)`` lays it out inside ``rows``.
#: ``%s`` prints a float as ``float.__repr__``, as the ``json`` encoder does.
_JSON_ROW = """    {
      "gamma": %s,
      "negativity": %s,
      "negativity_analytic": %s,
      "coherence": %s
    }"""
#: The row of a None analytic value: ``null``, and ``%.0s`` consumes the None.
_JSON_ROW_NULL = _JSON_ROW.replace('"negativity_analytic": %s', '"negativity_analytic": null%.0s')
#: Values that ``%s`` prints other than ``json`` does: the non-finite floats.
#: No key and no finite float contains any of these texts.
_JSON_SPELLINGS = (
    (": nan", ": NaN"),
    (": -inf", ": -Infinity"),
    (": inf", ": Infinity"),
)


#: Strengths that :func:`run_sweep` evolves together, which bounds its memory
#: for any grid length; a default sweep of 513 strengths is one piece.  The
#: largest arrays of a piece are a few (n, 2, 3, 3) real block stacks, 147 kB
#: each at n = 1024, and the rebuilt (n, 6, 6) real matrices, 295 kB.
#: Measured with ``ru_maxrss`` in a fresh process, no ESD search, multi-local
#: depolarizing and dephasing: a sweep of 10^5 strengths peaked at 57.3-57.5
#: MB in pieces of 1024 against 57.0-57.5 MB in pieces of 128, and one of
#: 10^6 at 293 MB against 279-287 MB (most of it the rows); evolved in one
#: piece, 123-124 and 788 MB, the block stacks, product-basis matrices and
#: eigensolver temporaries of the whole grid at once.  On a shared 2-vCPU
#: Xeon with one BLAS thread, a 513-point sweep without the ESD search (mean
#: over the 15 cells of the median of 9 rounds that alternate the piece
#: sizes, two runs) took 3.9-4.1, 2.5, 1.7, 1.4, 1.2, 0.98 and 0.98 ms with
#: pieces of 16, 32, 64, 128, 256, 513 and 1024.
GRID_CHUNK = 1024


class SweepRow(NamedTuple):
    """One grid point of a sweep.  A plain tuple underneath, so a file's rows
    chain into the one tuple of values that its template formats, and it
    compares equal to a tuple of the same values."""

    gamma: float
    negativity: float
    negativity_analytic: float | None
    coherence: float


@dataclass(frozen=True)
class SweepResult:
    kind: ChannelKind
    mode: Mode
    b: float
    c: float
    rows: tuple[SweepRow, ...]
    esd: EsdReport | None


def check_grid(start: float, stop: float, steps: int, tol: float) -> None:
    """Reject a sweep grid or ESD tolerance before anything is evaluated."""
    if steps < 2:
        raise ValueError("a sweep grid needs at least 2 points")
    if not (0.0 <= start < stop <= 1.0):
        raise ValueError(f"grid must satisfy 0 <= start < stop <= 1, got [{start}, {stop}]")
    check_tol(tol)


def run_sweep(
    kind: ChannelKind,
    mode: Mode,
    params: StateParams,
    start: float = 0.0,
    stop: float = 1.0,
    steps: int = DEFAULT_STEPS,
    tol: float = DEFAULT_TOL,
    esd: bool = True,
) -> SweepResult:
    """Tabulate negativity and coherence over a uniform strength grid, and
    with ``esd`` locate the ESD threshold too (the point must be entangled
    either way)."""
    kind, mode = ChannelKind(kind), Mode(mode)
    check_grid(start, stop, steps, tol)
    check_entangled(params)

    gammas = start + (stop - start) * np.arange(steps) / (steps - 1)
    ga, gb = sweep_strengths(mode, gammas)
    negativity, coherence = [], []
    for s in range(0, steps, GRID_CHUNK):
        states = evolve_grid(kind, params, ga[s : s + GRID_CHUNK], gb[s : s + GRID_CHUNK])
        negativity += negativity_numeric(states).value.tolist()
        coherence += coherence_l1(from_blocks(states)).tolist()
    try:
        analytic = analytic_negativities(kind, mode, params, ga, gb).tolist()
    except NoClosedFormError:
        analytic = [None] * steps
    # tuple.__new__ builds each row in C, without the Python-level SweepRow.__new__.
    columns = zip(gammas.tolist(), negativity, analytic, coherence)
    rows = tuple(map(tuple.__new__, repeat(SweepRow), columns))
    report = esd_report(kind, mode, params, tol=tol) if esd else None
    return SweepResult(kind=kind, mode=mode, b=params.b, c=params.c, rows=rows, esd=report)


def _row_templates(rows: tuple[SweepRow, ...], row: str, blank: str) -> list[str]:
    """``row`` for each row, or ``blank`` where the analytic value is None."""
    return [blank if r[2] is None else row for r in rows]


def sweep_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER, *_row_templates(result.rows, _CSV_ROW, _CSV_ROW_BLANK)]
    return ("\n".join(lines) + "\n") % tuple(chain.from_iterable(result.rows))


def parse_sweep_csv(text: str) -> list[SweepRow]:
    """Read back a sweep CSV; inverse of :func:`sweep_csv` on the rows."""
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        g, n, na, coh = line.split(",")
        rows.append(
            SweepRow(
                gamma=float(g),
                negativity=float(n),
                negativity_analytic=float(na) if na else None,
                coherence=float(coh),
            )
        )
    return rows


def esd_report_obj(report: EsdReport) -> dict:
    return {
        "kind": report.kind.value,
        "mode": report.mode.value,
        "b": report.b,
        "c": report.c,
        "esd_gamma": report.esd_gamma,
        "analytic_gamma": report.analytic_gamma,
        "classification": report.classification,
    }


def sweep_json(result: SweepResult) -> str:
    """The bytes of ``json.dumps(obj, indent=2) + "\\n"`` for the sweep object,
    with only the short header and the ``esd`` object run through ``json``."""
    skeleton = json.dumps(
        {
            "kind": result.kind.value,
            "mode": result.mode.value,
            "b": result.b,
            "c": result.c,
            "tool_version": __version__,
            "rows": [],
            "esd": None if result.esd is None else esd_report_obj(result.esd),
        },
        indent=2,
    ) + "\n"
    if not result.rows:
        return skeleton
    values = tuple(chain.from_iterable(result.rows))
    rows = ",\n".join(_row_templates(result.rows, _JSON_ROW, _JSON_ROW_NULL)) % values
    # A sum is finite only if every term is, so the spellings are needed
    # only where it is not (or where a sum of finite values overflows).
    analytic = [x for x in values[2::4] if x is not None]
    if not math.isfinite(sum(values[0::4]) + sum(values[1::4]) + sum(analytic) + sum(values[3::4])):
        for text, spelling in _JSON_SPELLINGS:
            rows = rows.replace(text, spelling)
    return skeleton.replace('"rows": []', f'"rows": [\n{rows}\n  ]', 1)


def render_sweep(result: SweepResult, fmt: str) -> str:
    if fmt == "csv":
        return sweep_csv(result)
    if fmt == "json":
        return sweep_json(result)
    raise ValueError(f"unknown format {fmt!r}")
