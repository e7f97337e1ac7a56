"""Strength sweeps over a scenario with CSV and JSON emission.

Sweeps are deterministic: the same configuration always produces byte
identical output.  CSV prints floats with 17 significant digits and JSON with
the shortest round-trip ``repr``, as ``json.dumps`` does, so parsing either
file recovers the in-memory values exactly.  Both writers format each row
through one fixed template.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .channels import ChannelKind
from .evolution import Mode, coherence_l1, evolve_grid, sweep_strengths
from .linalg import from_blocks
from .negativity import (
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

CSV_HEADER = "gamma,negativity,negativity_analytic,coherence"
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g"
_CSV_ROW_BLANK = "%.17g,%.17g,,%.17g"

#: One sweep row as ``json.dumps(..., indent=2)`` lays it out inside ``rows``.
#: ``%s`` prints a float as ``float.__repr__``, as the ``json`` encoder does.
_JSON_ROW = """    {
      "gamma": %s,
      "negativity": %s,
      "negativity_analytic": %s,
      "coherence": %s
    }"""
#: Values that ``%s`` prints other than ``json`` does: None and the non-finite
#: floats.  No key and no finite float contains any of these texts.
_JSON_SPELLINGS = (
    (": None", ": null"),
    (": nan", ": NaN"),
    (": -inf", ": -Infinity"),
    (": inf", ": Infinity"),
)


#: Strengths that :func:`run_sweep` evolves together, which bounds its memory
#: for any grid length.  The largest arrays of a piece are a few (n, 2, 3, 3)
#: real block stacks, 18 kB each at n = 128, and the rebuilt (n, 6, 6) real
#: matrices, 37 kB.  Evolved in one piece, a sweep of 10^5 strengths peaked
#: at 119 MB resident against 57 MB in pieces of 128 (``ru_maxrss``, a fresh
#: process, no ESD search, multi-local depolarizing and dephasing alike): the
#: block stacks, product-basis matrices and eigensolver temporaries of the
#: whole grid at once.  On a shared 2-vCPU Xeon with one BLAS thread, a
#: 513-point sweep without the ESD search (mean over the 15 cells, best of 7,
#: two runs) took 2.6-3.3, 1.9-2.2, 1.4, 1.1-1.8 and 0.8-1.4 ms with pieces of
#: 16, 32, 64, 128 and 513.  The tier-1 test of sweep columns against
#: one-point evaluations runs grids of about 4 pieces, so its cost grows with
#: the piece: its 15 cases took 3.7-3.9 s at 64 and 6.4-6.8 s at 128.
GRID_CHUNK = 128


class SweepRow(NamedTuple):
    """One grid point of a sweep.  A plain tuple underneath, so the row
    templates format it directly and it compares equal to a tuple of the
    same values."""

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
    steps: int = 513,
    tol: float = 1e-9,
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
    rows = tuple(map(SweepRow, gammas.tolist(), negativity, analytic, coherence))
    report = esd_report(kind, mode, params, tol=tol) if esd else None
    return SweepResult(kind=kind, mode=mode, b=params.b, c=params.c, rows=rows, esd=report)


def sweep_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for row in result.rows:
        g, n, na, coh = row
        if na is None:
            lines.append(_CSV_ROW_BLANK % (g, n, coh))
        else:
            lines.append(_CSV_ROW % row)
    return "\n".join(lines) + "\n"


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
    rows = ",\n".join(map(_JSON_ROW.__mod__, result.rows))
    for text, spelling in _JSON_SPELLINGS:
        rows = rows.replace(text, spelling)
    return skeleton.replace('"rows": []', f'"rows": [\n{rows}\n  ]', 1)


def render_sweep(result: SweepResult, fmt: str) -> str:
    if fmt == "csv":
        return sweep_csv(result)
    if fmt == "json":
        return sweep_json(result)
    raise ValueError(f"unknown format {fmt!r}")
