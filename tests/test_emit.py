"""The sweep writers against the generic encoders they replace.

``render_sweep`` formats each row through a fixed template.  The oracles here
are the plain encoders: ``json.dumps(obj, indent=2) + "\\n"`` of the whole
sweep object, and ``format(x, ".17g")`` per CSV field.  Property examples are
drawn from a fixed seed (``derandomize``), as in ``test_properties.py``.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qqdyn
from qqdyn import ChannelKind, EsdReport, Mode, StateParams, run_sweep
from qqdyn.negativity import CANONICAL_POINTS
from qqdyn.sweep import CSV_HEADER, SweepResult, SweepRow, render_sweep

CELLS = [(kind, mode) for kind in ChannelKind for mode in Mode]


def oracle_json(result: SweepResult) -> str:
    esd = result.esd
    obj = {
        "kind": result.kind.value,
        "mode": result.mode.value,
        "b": result.b,
        "c": result.c,
        "tool_version": qqdyn.__version__,
        "rows": [
            {
                "gamma": r.gamma,
                "negativity": r.negativity,
                "negativity_analytic": r.negativity_analytic,
                "coherence": r.coherence,
            }
            for r in result.rows
        ],
        "esd": {
            "kind": esd.kind.value,
            "mode": esd.mode.value,
            "b": esd.b,
            "c": esd.c,
            "esd_gamma": esd.esd_gamma,
            "analytic_gamma": esd.analytic_gamma,
            "classification": esd.classification,
        },
    }
    return json.dumps(obj, indent=2) + "\n"


def oracle_csv(result: SweepResult) -> str:
    def fmt(x):
        return "" if x is None else format(x, ".17g")

    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(",".join(map(fmt, (r.gamma, r.negativity, r.negativity_analytic, r.coherence))))
    return "\n".join(lines) + "\n"


def assert_matches_oracles(result: SweepResult) -> None:
    assert render_sweep(result, "json") == oracle_json(result)
    assert render_sweep(result, "csv") == oracle_csv(result)


SWEEPS = (
    [(p, {"steps": 65}) for p in CANONICAL_POINTS]
    + [(StateParams(0.1333333333333333, 1.0 - 3.0 * 0.1333333333333333), {"steps": 65})]
    + [(StateParams(0.05, 0.6), {"start": 0.2, "stop": 0.7, "steps": 7})]
)


@pytest.mark.parametrize("kind, mode", CELLS, ids=[f"{k.value}-{m.value}" for k, m in CELLS])
def test_writers_match_the_generic_encoders(kind, mode):
    for params, grid in SWEEPS:
        result = run_sweep(kind, mode, params, **grid)
        assert_matches_oracles(result)
        # run_sweep checks every state it evaluates, so its values are finite;
        # the writers also match the oracles on non-finite values (below).
        values = [x for r in result.rows for x in (r.gamma, r.negativity, r.coherence)]
        assert all(map(math.isfinite, values))


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
maybe_float = st.none() | any_float


@st.composite
def sweep_results(draw) -> SweepResult:
    """A directly built sweep: any floats, None where the schema allows it."""
    kind, mode = draw(st.sampled_from(list(ChannelKind))), draw(st.sampled_from(list(Mode)))
    b, c = draw(any_float), draw(any_float)
    rows = draw(st.lists(st.builds(SweepRow, any_float, any_float, maybe_float, any_float),
                         max_size=12))
    esd_gamma = draw(maybe_float)
    esd = EsdReport(kind, mode, b, c, esd_gamma, draw(maybe_float),
                    "NoESD" if esd_gamma is None else "ESD")
    return SweepResult(kind, mode, b, c, tuple(rows), esd)


def _result(*rows: SweepRow) -> SweepResult:
    esd = EsdReport(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, 0.05, 0.6, None, None, "NoESD")
    return SweepResult(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, 0.05, 0.6, rows, esd)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(sweep_results())
@example(_result(SweepRow(-0.0, 5e-324, None, -2.2250738585072014e-308)))
@example(_result(SweepRow(float("nan"), float("inf"), float("-inf"), 1e16),
                 SweepRow(1e-5, 0.0001, -0.0, 1e22)))
@example(_result())
def test_writers_match_the_generic_encoders_on_any_floats(result):
    assert_matches_oracles(result)
