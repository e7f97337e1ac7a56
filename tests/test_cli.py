import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

import qqdyn
from qqdyn import ChannelKind, Mode, Side, StateParams, channels, run_sweep
from qqdyn.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from qqdyn.sweep import CSV_HEADER, parse_sweep_csv, render_sweep


def test_run_sweep_rows():
    result = run_sweep(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.05, 0.6), steps=17)
    assert len(result.rows) == 17
    gammas = [r.gamma for r in result.rows]
    assert gammas == sorted(gammas)
    assert result.rows[0].gamma == 0.0 and result.rows[-1].gamma == 1.0
    assert result.rows[0].negativity == approx(0.45, abs=1e-10)
    assert result.esd.esd_gamma == approx(117 / 121, abs=1e-6)


def test_sweep_csv_round_trip():
    result = run_sweep(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, StateParams(0.05, 0.6), steps=33)
    text = render_sweep(result, "csv")
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n") and "\r" not in text
    rows = parse_sweep_csv(text)
    assert len(rows) == 33
    for parsed, orig in zip(rows, result.rows):
        assert parsed.gamma == orig.gamma  # bit-exact round trip
        assert parsed.negativity == orig.negativity
        assert parsed.coherence == orig.coherence
        assert parsed.negativity_analytic is None  # no closed form multi-local


def test_sweep_is_deterministic():
    a = render_sweep(run_sweep(ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY, StateParams(0.05, 0.6), steps=9), "json")
    b = render_sweep(run_sweep(ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY, StateParams(0.05, 0.6), steps=9), "json")
    assert a == b


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        run_sweep(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.05, 0.6), steps=1)
    with pytest.raises(ValueError):
        run_sweep(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.05, 0.6), start=0.5, stop=0.2)


def test_cli_sweep_stdout(capsys):
    rc = main(["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6", "--gamma-steps", "9"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert len(out.strip().split("\n")) == 10


def test_cli_sweep_json_file(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main([
        "sweep", "--kind", "phaseflip", "--mode", "qutritonly",
        "--b", "0.05", "--c", "0.6", "--gamma-steps", "9",
        "--out", str(out), "--format", "json",
    ])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["kind"] == "phaseflip" and obj["mode"] == "qutritonly"
    assert obj["b"] == 0.05 and obj["c"] == 0.6
    assert len(obj["rows"]) == 9
    assert obj["rows"][0]["negativity"] == approx(0.45, abs=1e-10)
    assert obj["esd"]["classification"] == "ESD"
    assert obj["esd"]["esd_gamma"] == approx(9 / 11, abs=1e-6)


def test_cli_sweep_a_zero_multi_point(tmp_path):
    out = tmp_path / "fig.csv"
    rc = main([
        "sweep", "--kind", "bitflip", "--mode", "multilocal",
        "--b", "0,0.1", "--a-zero", "--gamma-steps", "5", "--out", str(out),
    ])
    assert rc == EXIT_OK
    files = {f.name for f in tmp_path.iterdir()}
    assert files == {"fig_b0_c1.csv", "fig_b0.1_c0.7.csv"}


def test_cli_sweep_byte_identical(tmp_path):
    args = [
        "sweep", "--kind", "depolarizing", "--mode", "multilocal",
        "--b", "0.05", "--c", "0.6", "--gamma-steps", "9", "--format", "json",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cli_batch_config(tmp_path):
    cfg = tmp_path / "runs.json"
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.json"
    cfg.write_text(json.dumps([
        {"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6,
         "gamma": {"steps": 5}, "out": str(out1)},
        {"kind": "bitflip", "mode": "multilocal", "b": 0.1, "a_zero": True,
         "gamma": {"start": 0.0, "stop": 0.5, "steps": 5}, "out": str(out2), "format": "json"},
    ]))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
    assert len(parse_sweep_csv(out1.read_text())) == 5
    obj = json.loads(out2.read_text())
    assert obj["c"] == approx(0.7)
    assert obj["rows"][-1]["gamma"] == approx(0.5)


@pytest.fixture
def esd_calls(monkeypatch):
    """The (kind, mode) of every ``esd_gamma`` call made through the CLI."""
    calls = []
    search = qqdyn.negativity.esd_gamma

    def counted(kind, mode, *args, **kwargs):
        calls.append((kind, mode))
        return search(kind, mode, *args, **kwargs)

    monkeypatch.setattr(qqdyn.negativity, "esd_gamma", counted)
    return calls


@pytest.mark.parametrize("fmt, searches", [("csv", 0), ("json", 1)])
def test_cli_sweep_searches_for_esd_only_for_json(fmt, searches, tmp_path, esd_calls):
    out = tmp_path / f"s.{fmt}"
    rc = main(["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6",
               "--gamma-steps", "9", "--format", fmt, "--out", str(out)])
    assert rc == EXIT_OK
    assert len(esd_calls) == searches
    if fmt == "json":
        assert json.loads(out.read_text())["esd"]["esd_gamma"] == approx(117 / 121, abs=1e-6)


def test_cli_batch_searches_for_esd_per_entry_format(tmp_path, esd_calls):
    cfg = tmp_path / "runs.json"
    entries = [
        {"kind": kind, "mode": "qubitonly", "b": 0.05, "c": 0.6, "gamma": {"steps": 5},
         "out": str(tmp_path / f"{kind}.{fmt}"), **({"format": fmt} if fmt == "json" else {})}
        for kind, fmt in (("dephasing", "csv"), ("bitflip", "json"), ("phaseflip", "csv"))
    ]
    cfg.write_text(json.dumps(entries))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
    assert esd_calls == [(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY)]


def test_sweep_without_esd_writes_the_same_rows_and_a_null_report():
    args = (ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.05, 0.6))
    full, bare = run_sweep(*args, steps=5), run_sweep(*args, steps=5, esd=False)
    assert bare.esd is None and bare.rows == full.rows
    assert render_sweep(bare, "csv") == render_sweep(full, "csv")
    obj = json.loads(render_sweep(bare, "json"))
    assert obj["esd"] is None and obj["rows"] == json.loads(render_sweep(full, "json"))["rows"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_sweep_of_a_separable_point_is_a_config_error(fmt, tmp_path, capsys):
    out = tmp_path / f"s.{fmt}"
    rc = main(["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.2", "--c", "0.3",
               "--format", fmt, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "error: ESD detection requires an entangled initial state\n"
    assert not out.exists()


def test_cli_sweep_point_list_with_a_separable_point_writes_nothing(tmp_path, capsys):
    # The second point is separable, so the first one is not run either.
    rc = main(["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05,0.2",
               "--c", "0.6,0.4", "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "error: ESD detection requires an entangled initial state\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_batch_config_checks_every_entry_first(tmp_path, capsys):
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    good = {"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6,
            "gamma": {"steps": 5}, "out": str(out1)}
    cfg = tmp_path / "runs.json"
    bad_entries = (
        {"gamma": 5}, {"kind": "nonsense"}, {"mode": "nonsense"}, {"format": "xml"},
        {"a_zero": True},  # together with "c", which --a-zero/--c also reject
        {"a_zero": "no"}, {"a_zero": 1},
        {"gamma": {"steps": 5.7}}, {"gamma": {"steps": 5.0}}, {"gamma": {"steps": True}},
        # Numbers only, as for steps: no strings and no booleans.
        {"b": "0.05"}, {"c": "0.6"}, {"b": True}, {"c": False},
        {"tol": True}, {"tol": "1e-9"}, {"tol": None},
        {"gamma": {"steps": 5, "start": "0"}}, {"gamma": {"steps": 5, "stop": True}},
        {"b": "0.05", "tol": True, "gamma": {"steps": 5, "stop": True}},
        # A valid but separable point, checked before the first entry runs.
        {"b": 0.2, "c": 0.4},
    )
    for bad in bad_entries:
        cfg.write_text(json.dumps([good, {**good, "out": str(out2), **bad}]))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG, bad
        assert "batch entry 1" in capsys.readouterr().err
        assert not out1.exists() and not out2.exists()


def test_cli_batch_config_takes_no_other_run_flag(tmp_path, capsys):
    # Each entry sets its own run, so a flag beside --config would be
    # ignored: it is a configuration error, and nothing is written.
    out, other = tmp_path / "one.csv", tmp_path / "other.csv"
    cfg = tmp_path / "runs.json"
    cfg.write_text(json.dumps([{"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6,
                                "gamma": {"steps": 5}, "out": str(out)}]))
    flags = (
        ["--kind", "bitflip"], ["--mode", "multilocal"], ["--b", "0.3"], ["--c", "0.9"], ["--a-zero"],
        ["--out", str(other)], ["--format", "json"], ["--format", "csv"],
        ["--gamma-steps", "513"], ["--gamma-steps", "0"], ["--tol", "1e-9"], ["--tol", "0"],
    )
    for flag in flags:
        assert main(["sweep", "--config", str(cfg), *flag]) == EXIT_CONFIG, flag
        assert f"cannot take {flag[0]}" in capsys.readouterr().err, flag
        assert list(tmp_path.iterdir()) == [cfg], flag
    rc = main(["sweep", "--config", str(cfg), "--kind", "bitflip", "--mode", "multilocal", "--b", "0.3",
               "--c", "0.9", "--out", str(other), "--format", "json"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: --config sets every run itself; it cannot take"
        " --kind --mode --b --c --out --format\n")
    assert list(tmp_path.iterdir()) == [cfg]
    assert main(["sweep", "--config", str(cfg)]) == EXIT_OK and out.exists()


ESD_ARGS = ["esd", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6"]
SWEEP_ARGS = ["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6",
              "--gamma-steps", "9"]


@pytest.mark.parametrize(
    "args, code",
    [
        (ESD_ARGS + ["--tol", "0"], EXIT_CONFIG),
        (ESD_ARGS + ["--tol", "-1"], EXIT_CONFIG),
        (ESD_ARGS + ["--tol", "1e-20"], EXIT_OK),
        (SWEEP_ARGS + ["--tol", "0"], EXIT_CONFIG),
    ],
    ids=["esd-zero", "esd-negative", "esd-below-spacing", "sweep-zero"],
)
def test_cli_tolerance_never_hangs(args, code):
    # A separate process with a timeout, so that a bisection that never ends
    # fails the test instead of stalling the suite.
    src = str(Path(qqdyn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qqdyn.cli", *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == code, proc.stderr
    if code == EXIT_OK:
        assert json.loads(proc.stdout)["esd_gamma"] == approx(117 / 121, abs=1e-9)


@pytest.mark.parametrize("config", [False, True], ids=["flag", "batch"])
def test_cli_grid_too_large_to_allocate_is_a_config_error(config, tmp_path):
    # The child's address space is capped, so the grid fails to allocate
    # whatever the host's overcommit policy, and no memory is touched.
    steps = 10**13
    args = SWEEP_ARGS[:-2] + ["--gamma-steps", str(steps)]
    if config:
        entry = {"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6,
                 "gamma": {"steps": steps}}
        (tmp_path / "batch.json").write_text(json.dumps([entry]), encoding="utf-8")
        args = ["sweep", "--config", str(tmp_path / "batch.json")]
    code = (
        "import resource, runpy, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 4 * 2**30 if hard == resource.RLIM_INFINITY else min(4 * 2**30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        f"sys.argv = ['qqdyn', *{args!r}]\n"
        "runpy.run_module('qqdyn.cli', run_name='__main__')\n"
    )
    src = str(Path(qqdyn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr


def test_cli_esd(tmp_path):
    out = tmp_path / "esd.json"
    rc = main(["esd", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["classification"] == "ESD"
    assert obj["esd_gamma"] == approx(117 / 121, abs=1e-6)
    assert obj["analytic_gamma"] == approx(117 / 121)
    assert obj["agreement_delta"] <= 1e-6


def test_cli_negative_zero_b_writes_the_bytes_of_zero(tmp_path, capsys):
    # -0 is written, printed and names a multi-point sweep's files as 0.
    runs = {
        "esd": ["--b={}", "--c", "0.6"],
        "sweep": ["--b={},0.05", "--c", "0.6,0.6", "--gamma-steps", "5", "--format", "json"],
    }
    for command, (b, *flags) in runs.items():
        outputs = []
        for zero in ("0", "-0"):
            out = tmp_path / f"{command}{zero}"
            out.mkdir()
            argv = [command, "--kind", "dephasing", "--mode", "qubitonly", b.format(zero), *flags]
            assert main([*argv, "--out", str(out / "run.json")]) == EXIT_OK
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            outputs.append((files, capsys.readouterr().out.replace(str(out), "")))
        assert outputs[0] == outputs[1], command
        assert not any("-0" in name for name in outputs[0][0]), command


def test_cli_table1_single_point(tmp_path):
    out = tmp_path / "table.json"
    rc = main(["table1", "--b", "0.05", "--c", "0.6", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert len(obj["cells"]) == 15
    cells = {(c["kind"], c["mode"]): c for c in obj["cells"]}
    # At an interior entangled point every channel kills the state at finite strength.
    for kind in ("dephasing", "phaseflip", "bitflip", "bitphaseflip", "depolarizing"):
        for mode in ("multilocal", "qubitonly", "qutritonly"):
            assert cells[(kind, mode)]["esd_count"] == 1, (kind, mode)
    assert cells[("depolarizing", "qubitonly")]["reference"] == "always"
    assert cells[("depolarizing", "qubitonly")]["matches_reference"] is True


def test_cli_table1_flags_no_cell_where_a_rounds_below_zero(tmp_path, capsys):
    # (0.022, 0.934) lies on a = 0 in decimal and rounds to a = -5.6e-17.
    # Every cell dies there, as the reference says for b != 0.
    out = tmp_path / "table.json"
    assert main(["table1", "--b", "0.022", "--c", "0.934", "--out", str(out)]) == EXIT_OK
    cells = json.loads(out.read_text())["cells"]
    assert [c for c in cells if not c["matches_reference"]] == []
    assert all(c["esd_count"] == 1 for c in cells)
    assert "[!]" not in capsys.readouterr().out


def test_cli_table1_a_zero_without_b_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["table1", "--a-zero", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --b is required\n"
    assert not out.exists()


def test_cli_validate(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["validate", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["passed"] is True
    assert all(c["passed"] for c in obj["checks"])
    names = {c["name"] for c in obj["checks"]}
    assert {"esd_bracket_certified_exactly", "esd_bracket_certified_numerically"} <= names
    # One threshold check per cell with a closed form: all but the two
    # multi-local flips.
    thresholds = {c["name"] for c in obj["checks"] if c["name"].startswith("esd_threshold_")}
    assert len(thresholds) == 13
    assert not thresholds & {"esd_threshold_bitflip_multilocal", "esd_threshold_bitphaseflip_multilocal"}
    forms = {d["form"] for d in obj["closed_form_discrepancies"]}
    assert forms == {"bitphaseflip_evolved", "depolarizing_evolved", "trit_flip_only_negativity"}
    text = capsys.readouterr().out
    assert "pass" in text and "FAIL" not in text


def test_cli_validate_reports_a_completeness_defect_as_a_failed_check(tmp_path, capsys, monkeypatch):
    # The qubit phase flip's K_1 scaled by 1 + 1e-6 breaks completeness by
    # 1e-6 at gamma = 1.  The report shows it as a failed check, where
    # ``kraus_operators`` would raise and stop the run.
    cell = (ChannelKind.PHASE_FLIP, Side.QUBIT)
    table = channels._SHAPES[cell]
    shapes = table.shapes.copy()
    shapes[1:] *= 1.0 + 1e-6
    monkeypatch.setitem(channels._SHAPES, cell, dataclasses.replace(table, shapes=shapes))
    out = tmp_path / "report.json"
    assert main(["validate", "--out", str(out)]) == EXIT_VALIDATION
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["kraus_completeness"]
    assert checks[0]["max_error"] == approx(1e-6, rel=1e-6)
    assert "FAIL  kraus_completeness  (max error 1.000e-06)" in capsys.readouterr().out


def test_cli_config_errors(capsys):
    assert main(["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--c", "0.6"]) == EXIT_CONFIG
    assert main(["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.3", "--c", "0.9"]) == EXIT_CONFIG
    assert main(["esd", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05,0.1", "--c", "0.6,0.7"]) == EXIT_CONFIG
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "nonsense", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["sweep", "esd", "table1"])
def test_cli_empty_point_list_is_a_config_error(command, tmp_path, capsys):
    scenario = ["--kind", "dephasing", "--mode", "qubitonly"] if command != "table1" else []
    out = tmp_path / "out.json"
    assert main([command, *scenario, "--b", ",", "--c", ",", "--out", str(out)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_io_error(tmp_path):
    rc = main([
        "sweep", "--kind", "dephasing", "--mode", "qubitonly",
        "--b", "0.05", "--c", "0.6", "--gamma-steps", "5",
        "--out", str(tmp_path / "missing" / "x.csv"),
    ])
    assert rc == EXIT_IO


def test_cli_sweep_output_name_collision(tmp_path, capsys):
    # Both points print as b0.0333333 under the :g file-name format.
    rc = main([
        "sweep", "--kind", "dephasing", "--mode", "qubitonly",
        "--b", "0.03333333,0.03333334", "--c", "0.5", "--gamma-steps", "5",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "b=0.03333333," in err and "b=0.03333334," in err
    assert list(tmp_path.iterdir()) == []


def test_cli_batch_missing_output_dir_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "runs.json"
    entry = {"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6, "gamma": {"steps": 5}}
    cfg.write_text(json.dumps([
        {**entry, "out": str(tmp_path / "one.csv")},
        {**entry, "out": str(tmp_path / "missing" / "two.csv")},
    ]))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_IO
    assert "batch entry 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("out, code, message", [
    ("", EXIT_CONFIG, "batch entry 1: output path '' has an empty name"),
    ("d", EXIT_IO, "batch entry 1: output path {d} is a directory"),
])
def test_cli_batch_unwritable_output_path_writes_nothing(tmp_path, capsys, monkeypatch, out, code,
                                                          message):
    # An entry's path is checked with the others, before the entries ahead
    # of it write anything.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    entry = {"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6, "gamma": {"steps": 5}}
    cfg = tmp_path / "runs.json"
    cfg.write_text(json.dumps([{**entry, "out": "one.csv"}, {**entry, "out": out}]))
    assert main(["sweep", "--config", str(cfg)]) == code
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "runs.json"]
    assert list((tmp_path / "d").iterdir()) == []
    assert message.format(d=tmp_path / "d") in capsys.readouterr().err


def test_cli_batch_entry_cannot_overwrite_its_config(tmp_path, capsys, monkeypatch):
    # Named as given, or by another path to the same file.
    monkeypatch.chdir(tmp_path)
    entry = {"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6, "gamma": {"steps": 5}}
    for out in ("cfg.json", str(tmp_path / "cfg.json"), "./sub/../cfg.json"):
        (tmp_path / "sub").mkdir(exist_ok=True)
        cfg = tmp_path / "cfg.json"
        text = json.dumps([{**entry, "out": "first.csv"}, {**entry, "out": out}])
        cfg.write_text(text)
        assert main(["sweep", "--config", "cfg.json"]) == EXIT_CONFIG, out
        err = capsys.readouterr().err
        assert "batch entry 1 would overwrite its config file" in err, err
        assert cfg.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]


def test_cli_failed_write_leaves_previous_output(tmp_path, monkeypatch):
    out = tmp_path / "s.csv"
    out.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    rc = main([
        "sweep", "--kind", "dephasing", "--mode", "qubitonly",
        "--b", "0.05", "--c", "0.6", "--gamma-steps", "5", "--out", str(out),
    ])
    assert rc == EXIT_IO
    assert out.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [out]


_WRITES = {
    "sweep": ["sweep", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6",
              "--gamma-steps", "5", "--format", "json"],
    "esd": ["esd", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6"],
    "table1": ["table1", "--b", "0.05", "--c", "0.6"],
}


@pytest.mark.parametrize("command", list(_WRITES))
def test_cli_successful_write_removes_nothing(command, tmp_path, monkeypatch):
    # The temporary file is renamed into place, so nothing is left to unlink.
    unlinked = []
    unlink = Path.unlink

    def recording_unlink(self, *args, **kwargs):
        unlinked.append(self)
        return unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", recording_unlink)
    out = tmp_path / "out.json"
    assert main([*_WRITES[command], "--out", str(out)]) == EXIT_OK
    assert unlinked == []
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("command", list(_WRITES))
@pytest.mark.parametrize("failing", ["write", "replace"])
def test_cli_failed_write_leaves_no_temporary_file(command, failing, tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk full")

    def failing_write(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    write_text = Path.write_text
    if failing == "replace":
        monkeypatch.setattr(os, "replace", failing_replace)
    else:
        monkeypatch.setattr(Path, "write_text", failing_write)
    assert main([*_WRITES[command], "--out", str(tmp_path / "out.json")]) == EXIT_IO == 3
    assert list(tmp_path.iterdir()) == []


#: The call of each command that does its work, patched in the cli module.
_WORK = {"sweep": "run_sweep", "esd": "esd_report", "table1": "classify_table1",
         "validate": "run_validation"}


@pytest.mark.parametrize("out, code, message", [
    ("", EXIT_CONFIG, "output path '' has an empty name"),
    # Path("new/") would name the file "new", which the slash says is a directory.
    ("new/", EXIT_CONFIG, "output path 'new/' has an empty name"),
    ("d", EXIT_IO, "output path {tmp}/d is a directory"),
    ("d/.", EXIT_IO, "output path {tmp}/d is a directory"),
    ("missing/out.json", EXIT_IO, "cannot write {tmp}/missing/out.json: No such file or directory"),
    ("file/out.json", EXIT_IO, "cannot write {tmp}/file/out.json: Not a directory"),
], ids=["empty-name", "trailing-slash", "directory", "directory-dot", "missing-directory",
        "parent-not-a-directory"])
@pytest.mark.parametrize("command", list(_WORK))
def test_cli_unusable_out_fails_before_any_work(command, out, code, message, tmp_path, capsys,
                                                monkeypatch):
    # Every command checks --out first, and the message names the output
    # path, never the temporary file that the write goes through.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "file").write_text("x")

    def work(*args, **kwargs):
        raise AssertionError(f"{command} ran before --out was checked")

    monkeypatch.setattr(qqdyn.cli, _WORK[command], work)
    argv = {**_WRITES, "validate": ["validate"]}[command]
    assert main([*argv, "--out", out]) == code
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err and f".{os.getpid()}.tmp" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "file"]
    assert list((tmp_path / "d").iterdir()) == []


_ENTRY = {"kind": "dephasing", "mode": "qubitonly", "b": 0.05, "c": 0.6, "gamma": {"steps": 5}}


def test_cli_outputs_through_a_symlinked_directory_collide(tmp_path, capsys):
    # One directory under two names is one directory: its entry s.csv is
    # written once only.
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to("real", target_is_directory=True)
    cfg = tmp_path / "runs.json"
    cfg.write_text(json.dumps([{**_ENTRY, "out": str(tmp_path / "real" / "s.csv")},
                               {**_ENTRY, "out": str(tmp_path / "link" / "s.csv")}]))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "batch entry 1 would overwrite the output of batch entry 0" in capsys.readouterr().err
    assert list((tmp_path / "real").iterdir()) == []


def test_cli_batch_entry_cannot_overwrite_the_file_its_config_links_to(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = json.dumps([{**_ENTRY, "out": "first.csv"}, {**_ENTRY, "out": "real.json"}])
    (tmp_path / "real.json").write_text(text)
    (tmp_path / "cfg.json").symlink_to("real.json")
    assert main(["sweep", "--config", "cfg.json"]) == EXIT_CONFIG
    assert "batch entry 1 would overwrite its config file" in capsys.readouterr().err
    assert (tmp_path / "real.json").read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "real.json"]


def test_cli_output_name_that_links_to_another_output_is_its_own_entry(tmp_path):
    # os.replace replaces the link b.csv, not a.csv that it points to, so
    # the two outputs are two entries and both come out as written alone;
    # c.csv, a link to a directory, is replaced as a link too.
    entries = [{**_ENTRY, "out": str(tmp_path / "a.csv")},
               {**_ENTRY, "kind": "bitflip", "out": str(tmp_path / "b.csv")},
               {**_ENTRY, "kind": "phaseflip", "out": str(tmp_path / "c.csv")}]
    (tmp_path / "b.csv").symlink_to("a.csv")
    (tmp_path / "d").mkdir()
    (tmp_path / "c.csv").symlink_to("d", target_is_directory=True)
    cfg = tmp_path / "runs.json"
    cfg.write_text(json.dumps(entries))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
    assert not any(p.is_symlink() for p in tmp_path.iterdir())
    assert list((tmp_path / "d").iterdir()) == []
    for entry in entries:
        alone = run_sweep(entry["kind"], entry["mode"], StateParams(0.05, 0.6), steps=5, esd=False)
        assert Path(entry["out"]).read_text() == render_sweep(alone, "csv")


_SCENARIO = ["--kind", "dephasing", "--mode", "qubitonly"]


@pytest.mark.parametrize("argv, config, code, files", [
    (["esd", *_SCENARIO, "--b", "x", "--c", "0.6", "--out", "o.json"], None, EXIT_CONFIG, []),
    (["esd", *_SCENARIO, "--b", "0.05", "--c", "0.6", "--a-zero", "--out", "o.json"], None,
     EXIT_CONFIG, []),
    (["sweep", *_SCENARIO, "--b", "0.05", "--out", "o.csv"], None, EXIT_CONFIG, []),
    (["sweep", *_SCENARIO, "--b", "0.05,0.1", "--c", "0.6,0.7,0.8", "--out", "o.csv"], None,
     EXIT_CONFIG, []),
    (["sweep", "--b", "0.05", "--c", "0.6", "--out", "o.csv"], None, EXIT_CONFIG, []),
    (["sweep", "--config", "missing.json"], None, EXIT_CONFIG, []),
    (["sweep", "--config", "cfg.json"], "[{", EXIT_CONFIG, []),
    (["sweep", "--config", "cfg.json"], json.dumps(_ENTRY), EXIT_CONFIG, []),
    (["sweep", "--config", "cfg.json"], json.dumps([{**_ENTRY, "out": 5}]), EXIT_CONFIG, []),
    (["sweep", *_SCENARIO, "--b", "0.05", "--c", "0.6,0.7", "--gamma-steps", "5", "--out", "s.csv"],
     None, EXIT_OK, ["s_b0.05_c0.6.csv", "s_b0.05_c0.7.csv"]),
    (["table1", "--out", "t.json"], None, EXIT_OK, ["t.json"]),
], ids=["b-not-a-number", "a-zero-with-c", "b-without-c", "unequal-lists", "sweep-without-scenario",
        "config-unreadable", "config-not-json", "config-not-a-list", "config-out-not-a-string",
        "one-b-over-c-list", "table1-default-points"])
def test_cli_flag_and_config_branches(argv, config, code, files, tmp_path, capsys, monkeypatch):
    # Each error exits 2 with a message and writes nothing; each success
    # writes exactly its files.
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
    assert main(argv) == code
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "cfg.json")
    assert written == files
    if code != EXIT_OK:
        assert capsys.readouterr().err.startswith("error: ")
    elif argv[0] == "table1":
        points = json.loads((tmp_path / "t.json").read_text())["points"]
        assert [StateParams(p["b"], p["c"]) for p in points] == list(qqdyn.CANONICAL_POINTS)
    else:
        for name, c in zip(files, (0.6, 0.7)):
            alone = run_sweep("dephasing", "qubitonly", StateParams(0.05, c), steps=5, esd=False)
            assert (tmp_path / name).read_text() == render_sweep(alone, "csv")


def test_sweep_text_errors():
    with pytest.raises(ValueError, match="unexpected header"):
        parse_sweep_csv("gamma,negativity\n0,0\n")
    result = run_sweep(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.05, 0.6), steps=2)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_sweep(result, "xml")


def test_csv_floats_are_17_digits():
    result = run_sweep(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(1 / 30, 0.899), steps=5)
    text = render_sweep(result, "csv")
    line = text.strip().split("\n")[2]
    g = line.split(",")[0]
    assert float(g) == result.rows[1].gamma
    assert g == format(result.rows[1].gamma, ".17g")


def test_cli_one_process_gives_the_bytes_of_fresh_calls(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; a failed parse in between must
    # not change what later calls in the same process write.  The usage
    # message is wrapped to COLUMNS, so both sides get the same width.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("esd", ESD_ARGS + ["--out", "{d}/esd.json"]),
        ("bad", ["esd", "--kind", "nonsense", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6"]),
        ("sweep", SWEEP_ARGS + ["--format", "json", "--out", "{d}/sweep.json"]),
        ("table1", ["table1", "--b", "0.05", "--c", "0.6", "--out", "{d}/table1.json"]),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    src = str(Path(qqdyn.__file__).resolve().parents[1])
    for name, args in calls:
        try:
            rc = main([a.format(d=here) for a in args])
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "qqdyn.cli", *[a.format(d=fresh) for a in args]],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), name
    assert rc == EXIT_OK
    assert sorted(f.name for f in here.iterdir()) == ["esd.json", "sweep.json", "table1.json"]
    for f in here.iterdir():
        assert f.read_bytes() == (fresh / f.name).read_bytes(), f.name


def test_cli_parser_is_built_on_first_use_only():
    src = str(Path(qqdyn.__file__).resolve().parents[1])
    code = (
        "import qqdyn.cli as cli; n = cli.build_parser.cache_info().misses;"
        "p = cli.build_parser(); print(n, cli.build_parser() is p)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["0", "True"], proc.stderr
