"""One benchmark workload, run in a fresh interpreter by ``run.py``.

Drives qqdyn from outside, through ``qqdyn.cli.main`` and the public library
functions.  Ops are generated from the seed, timed one by one, and checked
against the package's own oracles outside the timed region.  Prints one JSON
object as its last line of standard output.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR [REPLAY]

A run does a fixed number of ops, set by WORKLOAD and SECONDS (see
``OPS_PER_SECOND``), so the same seed always runs the same ops.  An untraced
run also spawns fresh interpreters at even intervals during the run, between
ops, and times each until ``qqdyn.cli`` is imported.

With REPLAY = n the first n ops are run untimed and only their output digest
is printed, so that ``run.py`` can compare it with the timed run's digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import qqdyn
import qqdyn.cli
from qqdyn import (
    ChannelKind,
    ChannelScenario,
    EsdReport,
    Mode,
    NoClosedFormError,
    StateParams,
)
from qqdyn.sweep import SweepResult, SweepRow, parse_sweep_csv, render_sweep
from speed import Probes
from tracer import Tracer

# Oracle tolerances, as used by ``qqdyn.validate``.
EVOLVED_TOL = 1e-12
NEGATIVITY_TOL = 1e-10
ESD_TOL = 1e-6
#: Coherence sums 30 off-diagonal magnitudes, each within EVOLVED_TOL.
COHERENCE_TOL = 30 * EVOLVED_TOL
#: Negativity at or below this counts as dead (``ESD_NEGATIVITY_THRESHOLD``).
DEAD = 1e-12

#: CLI defaults that users run.
GRID_STEPS = 513

#: ``esd_gamma`` scans the grid points k/512 for k < 512, so a death inside
#: the last grid cell is reported as None.  This is the one failure the
#: package is known to have.  It is counted in ``failed`` like any other;
#: every other failure also makes the run incorrect.
LAST_CELL = 511 / 512
KNOWN_MISS = "known miss: death inside the last grid cell"

CELLS = tuple((kind, mode) for kind in ChannelKind for mode in Mode)

#: Parameter points of the paper's six figures: (b, c, a_zero).
FIGURE_POINTS = (
    *((b / 30.0, 1.0 - b / 10.0, True) for b in range(5)),
    *((0.0, c, False) for c in (1.0, 0.75, 0.5, 0.25)),
    *((0.05, c, False) for c in (0.8, 0.6, 0.4, 0.2)),
)


class PointStream:
    """Seeded (b, c, a_zero) points from the entangled regime.

    The paper's figure points, the a = 0 edge, the b = 0 edge and the
    interior are taken in turn.  Within a regime the points follow an
    additive low-discrepancy sequence from a seeded offset, so that even
    the few points of one run spread evenly over the regime and runs with
    different seeds measure the same mix of work.
    """

    #: Additive steps: the golden ratio for one dimension, the plastic
    #: number's powers for two.
    GOLDEN = 0.6180339887498949
    PLASTIC = (0.7548776662466927, 0.5698402909980532)

    def __init__(self, rng: random.Random) -> None:
        self.offsets = [rng.random() for _ in range(4)]
        self.figures = list(FIGURE_POINTS)
        rng.shuffle(self.figures)
        self.i = 0
        self.taken = [0, 0, 0, 0]

    def _u(self, dim: int, k: int, step: float) -> float:
        return (self.offsets[dim] + k * step) % 1.0

    def next(self) -> tuple[float, float, bool]:
        self.i += 1
        return self.take((self.i - 1) % 4)

    def take(self, regime: int) -> tuple[float, float, bool]:
        """The next point of one regime: 0 figures, 1 a = 0, 2 b = 0, 3 interior."""
        k = self.taken[regime]
        self.taken[regime] += 1
        if regime == 0:
            return self.figures[k % len(self.figures)]
        if regime == 1:
            b = 0.16 * self._u(0, k, self.GOLDEN)
            return b, 1.0 - 3.0 * b, True
        if regime == 2:
            return 0.0, 0.05 + 0.95 * self._u(1, k, self.GOLDEN), False
        b = 0.16 * self._u(2, k, self.PLASTIC[0])
        lo = 3.0 * b + 0.01
        return b, lo + (1.0 - 3.0 * b - lo) * self._u(3, k, self.PLASTIC[1]), False


def _point_flags(b: float, c: float, a_zero: bool) -> list[str]:
    return ["--b", repr(b), "--a-zero"] if a_zero else ["--b", repr(b), "--c", repr(c)]


def _params(b: float, c: float, a_zero: bool) -> StateParams:
    return StateParams(b, 1.0 - 3.0 * b if a_zero else c)


def _has_closed_form(kind: ChannelKind, mode: Mode, p: StateParams) -> bool:
    try:
        qqdyn.negativity_analytic(ChannelScenario.at(kind, mode, 0.5), p)
    except NoClosedFormError:
        return False
    return True


def check_threshold(kind: ChannelKind, mode: Mode, p: StateParams, found) -> list[str]:
    """ESD threshold vs its closed form, or a dead state where none exists."""
    analytic = qqdyn.analytic_esd_gamma(kind, mode, p)
    if _has_closed_form(kind, mode, p):
        if found is None and analytic is not None and LAST_CELL < analytic < 1.0:
            return [f"{KNOWN_MISS}, closed form {analytic}"]
        if (found is None) != (analytic is None):
            return [f"esd {found} vs closed form {analytic}"]
        if found is not None and abs(found - analytic) > ESD_TOL:
            return [f"esd {found} off closed form {analytic} by {abs(found - analytic):.3e}"]
        return []
    if found is not None:
        state = qqdyn.evolve(ChannelScenario.at(kind, mode, found), p)
        if qqdyn.negativity_numeric(state).value > DEAD:
            return [f"esd {found} is not dead"]
    return []


class CliOp:
    """One ``qqdyn`` CLI call writing to a file; stdout is captured."""

    def __init__(self, argv: list[str], out: Path) -> None:
        self.argv = argv
        self.out = out
        self.rc = None
        self.stdout = ""

    def run(self) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.rc = qqdyn.cli.main(self.argv)
        self.stdout = buf.getvalue()

    def collect(self) -> bytes:
        return self.out.read_bytes() + self.stdout.encode("utf-8")


class SweepOp(CliOp):
    """``qqdyn sweep`` for one curve at default grid and tolerance."""

    def __init__(self, cell, point, fmt: str, out: Path) -> None:
        kind, mode = cell
        argv = ["sweep", "--kind", kind.value, "--mode", mode.value, *_point_flags(*point)]
        super().__init__(argv + ["--out", str(out), "--format", fmt], out)
        self.kind, self.mode, self.fmt = kind, mode, fmt
        self.params = _params(*point)

    def check(self) -> list[str]:
        if self.rc != 0:
            return [f"exit code {self.rc}"]
        text = self.out.read_text(encoding="utf-8")
        kind, mode, p = self.kind, self.mode, self.params
        esd = None
        if self.fmt == "csv":
            rows = parse_sweep_csv(text)
        else:
            obj = json.loads(text)
            rows = [SweepRow(**r) for r in obj["rows"]]
            e = obj["esd"]
            esd = EsdReport(kind, mode, e["b"], e["c"], e["esd_gamma"], e["analytic_gamma"],
                            e["classification"])
        errors = []
        again = render_sweep(SweepResult(kind, mode, p.b, p.c, tuple(rows), esd), self.fmt)
        if again != text:
            errors.append("file does not re-parse to the same rows")
        if len(rows) != GRID_STEPS:
            errors.append(f"{len(rows)} rows, expected {GRID_STEPS}")
        form = _has_closed_form(kind, mode, p)
        worst_neg = worst_coh = 0.0
        for r in rows:
            if (r.negativity_analytic is not None) != form:
                errors.append(f"analytic column presence wrong at gamma={r.gamma}")
                break
            if form:
                worst_neg = max(worst_neg, abs(r.negativity - r.negativity_analytic))
            ga = 0.0 if mode is Mode.QUTRIT_ONLY else r.gamma
            gb = 0.0 if mode is Mode.QUBIT_ONLY else r.gamma
            expected = qqdyn.coherence_l1(qqdyn.analytic_evolved(kind, p, ga, gb))
            worst_coh = max(worst_coh, abs(r.coherence - expected))
        if worst_neg > NEGATIVITY_TOL:
            errors.append(f"negativity off closed form by {worst_neg:.3e}")
        if worst_coh > COHERENCE_TOL:
            errors.append(f"coherence off closed form by {worst_coh:.3e}")
        if esd is not None:
            errors += check_threshold(kind, mode, p, esd.esd_gamma)
        return errors


class EsdOp(CliOp):
    """``qqdyn esd`` for one cell at default tolerance."""

    def __init__(self, cell, point, out: Path) -> None:
        kind, mode = cell
        argv = ["esd", "--kind", kind.value, "--mode", mode.value, *_point_flags(*point)]
        super().__init__(argv + ["--out", str(out)], out)
        self.kind, self.mode = kind, mode
        self.params = _params(*point)

    def check(self) -> list[str]:
        if self.rc != 0:
            return [f"exit code {self.rc}"]
        obj = json.loads(self.out.read_text(encoding="utf-8"))
        found = obj["esd_gamma"]
        errors = []
        if obj["classification"] != ("ESD" if found is not None else "NoESD"):
            errors.append(f"classification {obj['classification']} with esd {found}")
        if obj["analytic_gamma"] != qqdyn.analytic_esd_gamma(self.kind, self.mode, self.params):
            errors.append("reported closed-form threshold differs from analytic_esd_gamma")
        return errors + check_threshold(self.kind, self.mode, self.params, found)


class PointOp:
    """One library evaluation at independent qubit and qutrit strengths."""

    def __init__(self, kind: ChannelKind, point, ga: float, gb: float) -> None:
        self.kind, self.point, self.ga, self.gb = kind, point, ga, gb

    def run(self) -> None:
        p = _params(*self.point)
        scenario = ChannelScenario(self.kind, Mode.MULTI_LOCAL, self.ga, self.gb)
        self.state = qqdyn.evolve(scenario, p)
        self.neg = qqdyn.negativity_numeric(self.state)
        try:
            self.analytic = qqdyn.negativity_analytic(scenario, p)
        except NoClosedFormError:
            self.analytic = None
        self.evolved = qqdyn.analytic_evolved(self.kind, p, self.ga, self.gb)
        self.coherence = qqdyn.coherence_l1(self.state)

    def collect(self) -> bytes:
        analytic = math.nan if self.analytic is None else self.analytic
        scalars = (self.neg.value, self.neg.via_trace_norm, analytic, self.coherence)
        return self.state.matrix.tobytes() + self.evolved.tobytes() + struct.pack("<4d", *scalars)

    def check(self) -> list[str]:
        errors = []
        diff = float(np.abs(self.state.matrix - self.evolved).max())
        if diff > EVOLVED_TOL:
            errors.append(f"evolved matrix off closed form by {diff:.3e}")
        routes = abs(self.neg.value - self.neg.via_trace_norm)
        if routes > NEGATIVITY_TOL:
            errors.append(f"negativity routes differ by {routes:.3e}")
        form = _has_closed_form(self.kind, Mode.MULTI_LOCAL, _params(*self.point))
        if (self.analytic is not None) != form:
            errors.append("closed-form negativity presence wrong")
        elif form and abs(self.neg.value - self.analytic) > NEGATIVITY_TOL:
            errors.append(f"negativity off closed form by {abs(self.neg.value - self.analytic):.3e}")
        return errors


def sweep_ops(rng: random.Random, workdir: Path):
    # Grid-heavy: one curve per op over all 15 cells, emitted as CSV and
    # JSON; evolution over gamma, emit and CLI I/O, plus the ESD scan that
    # run_sweep always performs.  Round r gives cell j the point regime
    # (j + r) % 4 and format (j + r) % 2, in a seeded order at seeded points.
    # Runs of every seed then do the same mix of cells, regimes and formats;
    # with the regime drawn in turn instead, the median op of 45 spread by
    # 12% between seeds.
    points = PointStream(rng)
    for r in itertools.count():
        order = list(range(len(CELLS)))
        rng.shuffle(order)
        for j in order:
            fmt = ("csv", "json")[(j + r) % 2]
            yield SweepOp(CELLS[j], points.take((j + r) % 4), fmt, workdir / f"sweep.{fmt}")


#: Points per esd block, 16 per regime; each block runs all 15 cells at
#: each of its points.
ESD_BLOCK = 64


def esd_ops(rng: random.Random, workdir: Path):
    # ESD-heavy: all 15 cells at each point, which is table1's traffic; scan
    # lengths depend on the data and bisection evaluates single points.
    # Within a block the ops visit the points in turn, each time at its next
    # cell.  A run then covers many points evenly; finishing one point's 15
    # cells before starting the next would leave its cost to a dozen points,
    # which spread it by more than 15% between seeds.
    points = PointStream(rng)
    while True:
        block = [points.next() for _ in range(ESD_BLOCK)]
        for step in range(len(CELLS)):
            for j, point in enumerate(block):
                yield EsdOp(CELLS[(step + j) % len(CELLS)], point, workdir / "esd.json")


def point_ops(rng: random.Random, workdir: Path):
    # The N=1 path: single evaluations at independent strengths, with no
    # shared grid, no ESD and no emit, so batching or caching on gamma gets
    # no reuse here.
    kinds = list(ChannelKind)
    points = PointStream(rng)
    i = 0
    while True:
        yield PointOp(kinds[i % len(kinds)], points.next(), rng.random(), rng.random())
        i += 1


WORKLOADS = {"sweep": sweep_ops, "esd": esd_ops, "points": point_ops}

#: Ops per second of SECONDS, about the untraced op rate of a 2-vCPU
#: machine.  A run does this fixed number of ops, not as many as fit in
#: SECONDS, so the same seed runs the same ops, and fails the same ones,
#: however loaded the machine is.
OPS_PER_SECOND = {"sweep": 1.6, "esd": 3.6, "points": 1100.0}
#: Sweep runs whole rounds of the 15 cells, so every cell is taken as often.
OPS_UNIT = {"sweep": len(CELLS), "esd": 1, "points": 1}

#: Ops per run, from the first, whose outputs form the digest that a replay
#: in a second interpreter must match: a full round of the 15 cells on sweep
#: and esd.  The replay repeats only these, to keep the run short.
DIGEST_OPS = {"sweep": 15, "esd": 15, "points": 300}

#: Fresh interpreters timed per untraced run, spread evenly over it, so that
#: set-up time sees the same machine speed as the ops.
SETUP_SAMPLES = 41
SETUP_CODE = "import qqdyn.cli, time; print(time.monotonic_ns())"
#: Seconds a set-up interpreter may take before it is stopped.
SETUP_TIMEOUT_S = 60

#: Tail percentile per workload: the highest with at least ten samples
#: beyond it at the default run length, except on points.  There a
#: neighbour's preemption of a few milliseconds outlasts several
#: sub-millisecond ops, so p99 and above follow the machine's load: p99
#: spread 0.25-0.32 between seeds under heavy load, p95 0.09.
TAIL_PERCENTILE = {"sweep": 75.0, "esd": 88.0, "points": 95.0}


def op_count(workload: str, seconds: float, trace: bool) -> int:
    """Ops in one run.  A traced run runs each op twice, so it does half."""
    unit = OPS_UNIT[workload]
    share = seconds / 2 if trace else seconds
    return unit * max(1, round(OPS_PER_SECOND[workload] * share / unit))


def run_op(op, tracer=None) -> tuple[float, bytes, list[str]]:
    """Time op.run(), traced if a tracer is given; collect and check the
    output outside the timed and traced region."""
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        op.run()
    except Exception as exc:  # a raising op is counted, not fatal
        return perf_counter() - t0, b"", [f"raised {type(exc).__name__}: {exc}"]
    finally:
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    try:
        output = op.collect()
        return elapsed, output, op.check()
    except Exception as exc:
        return elapsed, b"", [f"check raised {type(exc).__name__}: {exc}"]


def time_setup() -> float:
    """Seconds from spawning a fresh interpreter until ``qqdyn.cli`` is
    imported.  The interpreter inherits this process's environment."""
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return (int(proc.stdout) - start) / 1e9


def measure(workload: str, ops, count: int, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    probes = Probes()
    latencies: list[float] = []
    setup: list[float] = []
    digest = hashlib.sha256()
    digest_ops = 0
    attempted = failed = unexpected = 0
    errors: list[str] = []
    traced_s = untraced_s = 0.0
    for i in range(count):
        while not trace and len(setup) < SETUP_SAMPLES * (i + 1) / count:
            setup.append(time_setup())
        op = next(ops)
        if tracer is None:
            elapsed, output, op_errors = run_op(op)
            latencies.append(elapsed)
            probes.after(elapsed)
        else:
            # Untraced and traced repeats of the same op, in alternating
            # order, give the tracing overhead.
            order = (False, True) if attempted % 2 == 0 else (True, False)
            results = {traced: run_op(op, tracer if traced else None) for traced in order}
            elapsed, output, op_errors = results[False]
            untraced_s += elapsed
            traced_s += results[True][0]
            if results[True][1] != output:
                op_errors = op_errors + ["traced repeat gave different output"]
        attempted += 1
        if any(not e.startswith(KNOWN_MISS) for e in op_errors):
            unexpected += 1
        if op_errors:
            failed += 1
            if len(errors) < 20:
                errors.append(f"op {attempted - 1}: {'; '.join(op_errors)}")
        if digest_ops < DIGEST_OPS[workload]:
            digest.update(output)
            digest_ops += 1
    result = {
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "errors": errors,
        "digest": digest.hexdigest(),
        "digest_ops": digest_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": _blas_vendor(),
    }
    if tracer is None:
        result["latencies_s"] = latencies
        result["setup_s"] = setup
        result["tail_percentile"] = TAIL_PERCENTILE[workload]
        result["speed"] = probes.speed()
        result["probes"] = len(probes.times)
    else:
        result["layers"] = tracer.metrics(attempted, traced_s, untraced_s)
        result["absent"] = tracer.absent
    return result


def replay(ops, count: int) -> dict:
    digest = hashlib.sha256()
    for _ in range(count):
        digest.update(run_op(next(ops))[1])
    return {"digest": digest.hexdigest(), "digest_ops": count}


def _blas_vendor() -> str:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout is not a stable numpy API
        return "unknown"


if __name__ == "__main__":
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    ops = WORKLOADS[workload](random.Random(int(seed)), Path(workdir))
    if len(sys.argv) > 6:
        out = replay(ops, int(sys.argv[6]))
    else:
        out = measure(workload, ops, op_count(workload, float(seconds), trace == "1"),
                      trace == "1")
    print(json.dumps(out))
