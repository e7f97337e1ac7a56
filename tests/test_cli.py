import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

import qqdyn
from qqdyn import ChannelKind, Mode, StateParams, run_sweep
from qqdyn.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
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
    )
    for bad in bad_entries:
        cfg.write_text(json.dumps([good, {**good, "out": str(out2), **bad}]))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG, bad
        assert "batch entry 1" in capsys.readouterr().err
        assert not out1.exists() and not out2.exists()


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


def test_cli_esd(tmp_path):
    out = tmp_path / "esd.json"
    rc = main(["esd", "--kind", "dephasing", "--mode", "qubitonly", "--b", "0.05", "--c", "0.6", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["classification"] == "ESD"
    assert obj["esd_gamma"] == approx(117 / 121, abs=1e-6)
    assert obj["analytic_gamma"] == approx(117 / 121)
    assert obj["agreement_delta"] <= 1e-6


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


def test_cli_validate(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["validate", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["passed"] is True
    assert all(c["passed"] for c in obj["checks"])
    assert "esd_matches_grid_bisection" in {c["name"] for c in obj["checks"]}
    forms = {d["form"] for d in obj["closed_form_discrepancies"]}
    assert forms == {"bitphaseflip_evolved", "depolarizing_evolved", "trit_flip_only_negativity"}
    text = capsys.readouterr().out
    assert "pass" in text and "FAIL" not in text


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
