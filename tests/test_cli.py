"""Command-line surface: formats, determinism, exit codes, golden output."""

import csv
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import pytest

from sturmspec import __version__
from sturmspec import cocycle as cc
from sturmspec import config as cfgmod
from sturmspec.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(args):
    return run([str(a) for a in args])


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def test_config_roundtrip_is_identity():
    for name in ("simple3.cfg", "fib.cfg", "sparse3.cfg"):
        cfg = cfgmod.parse_config(str(CONFIGS / name))
        again = cfgmod.parse_config_text(cfgmod.emit_config(cfg))
        assert again == cfg


def test_config_requires_exactly_one_spec_kind():
    with pytest.raises(cfgmod.ValidationError):
        cfgmod.parse_config_text("[circle_map]\np=1\n[sparse]\nv=2\n")
    with pytest.raises(cfgmod.ValidationError):
        cfgmod.parse_config_text("[analysis]\nlevel=2\n")


@pytest.mark.parametrize("text,named", [
    ("[toeplitz]\ntail = a:3:0,b:3:0\nprefix_perod = 2\n", "prefix_perod"),
    ("[circle_map]\np = 1\nq = 2\nbeta = 1/2\nthet = 0\n", "thet"),
    ("[sparse]\nv = 2.0\nrule = power:3\n[analysis]\nlevel = 2\n", "analysis"),
    ("[sparse]\nv = 2.0\n[outptu]\nseed = 1\n", "outptu"),
    ("[sparse]\nv = 2.0\n[output]\nsede = 1\n", "sede"),
])
def test_config_rejects_unknown_sections_and_keys(text, named):
    with pytest.raises(cfgmod.ValidationError, match=named):
        cfgmod.parse_config_text(text)


TOEPLITZ = "[toeplitz]\ntail = a:3:0,b:3:0\n"
CIRCLE = "[circle_map]\np = 1\nq = 2\n"


@pytest.mark.parametrize("text,named", [
    ("[toeplitz]\ntail = a:x:0\n", "[toeplitz] tail = 'a:x:0'"),
    (TOEPLITZ + "values = a=zero,b=1.0\n", "[toeplitz] values = 'a=zero,b=1.0'"),
    (TOEPLITZ + "prefix_offset = q\n", "[toeplitz] prefix_offset = 'q'"),
    (TOEPLITZ + "cycle = maybe\n", "[toeplitz] cycle = 'maybe'"),
    ("[toeplitz]\nvalues = a=0,b=1\n", "[toeplitz] needs the key 'tail'"),
    ("[sparse]\nv = 2.0\nrule = power\n", "[sparse] rule = 'power'"),
    ("[sparse]\nv = 2.0\npositions = 1,x\n", "[sparse] positions = '1,x'"),
    ("[circle_map]\np = 1.5\nq = 2\nbeta = 1/2\n", "[circle_map] p = '1.5'"),
    (CIRCLE + "beta = x\n", "[circle_map] beta = 'x'"),
    (CIRCLE + "beta = 1/0\n", "[circle_map] beta = '1/0'"),
])
def test_malformed_config_values_name_the_key(text, named):
    with pytest.raises(cfgmod.ValidationError) as err:
        cfgmod.build_spec(cfgmod.parse_config_text(text))
    assert named in str(err.value)


TOEPLITZ_KEYS = ("values, tail, cycle, prefix_pattern, prefix_period, prefix_offset, "
                 "extension_letter")


@pytest.mark.parametrize("text,named", [
    (TOEPLITZ + "prefix_pattern = ab\n",
     "[toeplitz] prefix_pattern, prefix_period, prefix_offset: "
     "pattern length must equal period - 1"),
    (TOEPLITZ + "prefix_pattern = ac\nprefix_period = 3\n",
     "[toeplitz] %s: symbol 'c' not in alphabet ('a', 'b')" % TOEPLITZ_KEYS),
    ("[toeplitz]\ntail = a:3:0,a:3:0\n",
     "[toeplitz] %s: consecutive tail letters must differ" % TOEPLITZ_KEYS),
    ("[sparse]\nv = 0\n", "[sparse] v, rule, left_fill: barrier value v must be nonzero"),
    ("[sparse]\nv = 0\npositions = 1,3\n",
     "[sparse] v, positions, left_fill: barrier value v must be nonzero"),
    (CIRCLE + "beta = 3/2\n",
     "[circle_map] p, q, beta, theta, lambda: beta must lie strictly inside (0, 1)"),
])
def test_spec_rejections_name_section_and_keys(text, named):
    # the constructor's message is kept, after the section and the keys it read
    with pytest.raises(cfgmod.ValidationError) as err:
        cfgmod.build_spec(cfgmod.parse_config_text(text))
    assert str(err.value) == named


def test_spec_rejection_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sparse]\nv = 0\n")
    assert run_cli(["generate", "--spec", bad, "--len", "10"]) == 1
    assert "error: [sparse] v, rule, left_fill: barrier value" in capsys.readouterr().err


def test_malformed_seed_names_the_key():
    cfg = cfgmod.parse_config_text("[sparse]\nv = 2.0\n[output]\nseed = abc\n")
    with pytest.raises(cfgmod.ValidationError, match=r"\[output\] seed = 'abc'"):
        cfg.seed


@pytest.mark.parametrize("word,meaning", [
    ("1", True), ("yes", True), ("True", True), ("on", True),
    ("0", False), ("no", False), ("FALSE", False), ("off", False),
])
def test_cycle_takes_configparser_booleans(word, meaning):
    spec = cfgmod.build_spec(cfgmod.parse_config_text(TOEPLITZ + "cycle = %s\n" % word))
    assert spec.cycle is meaning


def test_malformed_config_value_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TOEPLITZ + "cycle = maybe\n")
    assert run_cli(["generate", "--spec", bad, "--len", "10"]) == 1
    assert "error: [toeplitz] cycle = 'maybe'" in capsys.readouterr().err


@pytest.mark.parametrize("beam", [0, -3])
def test_complexity_rejects_beam_below_one(beam, capsys):
    argv = ["complexity", "--spec", CONFIGS / "fib.cfg", "--n-max", "8",
            "--t-max", "100", "--window", "2000", "--beam", beam]
    assert run_cli(argv) == 1
    assert "error: beam_width must be >= 1" in capsys.readouterr().err


def test_build_spec_from_configs():
    fib = cfgmod.build_spec(cfgmod.parse_config(str(CONFIGS / "fib.cfg")))
    assert fib.q == 610
    toep = cfgmod.build_spec(cfgmod.parse_config(str(CONFIGS / "simple3.cfg")))
    assert toep.tail_periods == (3, 3)
    sparse = cfgmod.build_spec(cfgmod.parse_config(str(CONFIGS / "sparse3.cfg")))
    assert sparse.positions_upto(30) == (3, 9, 27)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_generate_writes_csv_rows(tmp_path):
    out = tmp_path / "w.csv"
    code = run_cli(
        ["generate", "--spec", CONFIGS / "fib.cfg", "--start", "0",
         "--len", "50", "--out", out]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "index,symbol,value"
    assert len(data) == 51
    assert any(l.startswith("# spec.beta = 377/610") for l in lines)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_out_file_has_the_mode_a_plain_write_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        (tmp_path / "plain.csv").write_text("")
        code = run_cli(["generate", "--spec", CONFIGS / "fib.cfg", "--start", "0",
                        "--len", "5", "--out", tmp_path / "w.csv"])
    finally:
        os.umask(old)
    assert code == 0
    mode = (tmp_path / "w.csv").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain.csv").stat().st_mode & 0o777 == 0o666 & ~umask


def test_generate_rows_match_library_window(tmp_path):
    out = tmp_path / "w.csv"
    start, length = 1234, 3000
    code = run_cli(
        ["generate", "--spec", CONFIGS / "fib.cfg", "--start", start,
         "--len", length, "--out", out]
    )
    assert code == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [(int(i), s, float(v)) for i, s, v in csv.reader(data[1:])]
    spec = cfgmod.build_spec(cfgmod.parse_config(str(CONFIGS / "fib.cfg")))
    window = spec.window(start, length, allow_periodic=True)
    assert rows == [
        (start + i, s, float(v))
        for i, (s, v) in enumerate(zip(window.symbols, window.values()))
    ]


def test_trace_table_columns_agree(tmp_path):
    out = tmp_path / "t.csv"
    code = run_cli(
        ["trace-table", "--spec", CONFIGS / "simple3.cfg", "--energy", "0.0",
         "--k", "6", "--out", out]
    )
    assert code == 0
    rows = [
        l.split(",") for l in out.read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("k,")
    ]
    assert len(rows) == 7
    for _, hd, hr, diff in rows:
        assert float(diff) <= 1e-8 * max(1.0, abs(float(hd)))


@pytest.mark.parametrize("energy", [0.3, -1.9, 5.5])
def test_trace_table_prints_17_digits(energy, tmp_path):
    # 5.5 escapes: h_9 is about 6e13810, past the float range
    out = tmp_path / "t.json"
    code = run_cli(
        ["trace-table", "--spec", CONFIGS / "simple3.cfg", "--energy=%r" % energy,
         "--k", "9", "--format", "json", "--out", out]
    )
    assert code == 0
    printed = json.loads(out.read_text())["result"]["h_recursion"]
    spec = cfgmod.build_spec(cfgmod.parse_config(str(CONFIGS / "simple3.cfg")))
    table = cc.trace_table(spec, energy, 9)
    assert len(printed) == 10
    with mp.workdps(50):
        for text, h in zip(printed, table.h_recursion):
            assert abs(mp.mpf(text) - h) <= 1e-16 * abs(h)


def _golden_runs():
    spec = importlib.util.spec_from_file_location(
        "regen_golden", ROOT / "scripts" / "regen_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


GOLDEN_RUNS = _golden_runs()


@pytest.mark.parametrize(
    "argv, expected", GOLDEN_RUNS,
    ids=[pathlib.Path(argv[argv.index("--out") + 1]).name for argv, _ in GOLDEN_RUNS],
)
def test_cli_output_matches_golden_file(argv, expected, tmp_path, monkeypatch):
    # every run of scripts/regen_golden.py, byte for byte and with its exit code;
    # no environment variable reaches the output
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("STURMSPEC_THREADS", "4")
    at = argv.index("--out") + 1
    out = tmp_path / "out"
    code = run_cli(argv[:at] + [out] + argv[at + 1 :])
    assert code == expected
    assert out.read_bytes() == (ROOT / argv[at]).read_bytes()
    # the config records what the run reads: a seed only where one is drawn
    keys = json.loads(out.read_bytes())["config"]
    assert "threads" not in keys
    assert ("seed" in keys) == (argv[0] == "gordon-scan")


def test_gordon_golden_scan_has_44_falsifications():
    # the certify shape: seed 1 falsifies 44 pairs, so the scan exits 2
    golden = (ROOT / "tests/golden/gordon_simple3_level2.json").read_bytes()
    assert len(json.loads(golden)["result"]["falsifications"]) == 44


def test_identical_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run_cli(
            ["complexity", "--spec", CONFIGS / "sparse3.cfg", "--n-max", "4",
             "--t-max", "40", "--window", "1500", "--start", "1",
             "--format", "json", "--out", out]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_parser_is_built_once_and_keeps_no_state_between_runs(tmp_path):
    from sturmspec import cli

    def complexity(out, *extra):
        argv = ["complexity", "--spec", CONFIGS / "fib.cfg", "--n-max", "6",
                "--t-max", "40", "--window", "1000", "--format", "json",
                "--out", out, *extra]
        assert run_cli(argv) == 0
        return out.read_bytes()

    complexity(tmp_path / "narrow.json", "--beam", "3")
    parser = cli._build_parser()
    after_narrow = complexity(tmp_path / "after.json")
    assert cli._build_parser() is parser
    cli._build_parser.cache_clear()
    fresh = complexity(tmp_path / "fresh.json")
    assert cli._build_parser() is not parser
    assert after_narrow == fresh
    assert json.loads(fresh)["config"]["beam"] == 64


def test_sparse_check_rejects_more_eigenvalues_than_sites(tmp_path, capsys):
    out = tmp_path / "sc.json"
    argv = ["sparse-check", "--spec", CONFIGS / "sparse3.cfg", "--n", "64",
            "--eigs", "100", "--out", out]
    assert run_cli(argv) == 1
    assert "error: count 100 exceeds the truncation size 64" in capsys.readouterr().err
    assert not out.exists()


def test_lyapunov_csv(tmp_path):
    out = tmp_path / "l.csv"
    code = run_cli(
        ["lyapunov", "--spec", CONFIGS / "simple3.cfg",
         "--energies", "0.0,5.0", "--n-steps", "2000", "--out", out]
    )
    assert code == 0
    rows = [
        l.split(",") for l in out.read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("E,")
    ]
    assert len(rows) == 2
    assert float(rows[1][1]) > 0.5  # E = 5 is far outside the hull


def test_lyapunov_negative_energy_list(tmp_path):
    outs = []
    for flag in (["--energies", "-1.9,0.5"], ["--energies=-1.9,0.5"]):
        out = tmp_path / ("l%d.csv" % len(outs))
        code = run_cli(
            ["lyapunov", "--spec", CONFIGS / "simple3.cfg"] + flag
            + ["--n-steps", "2000", "--out", out]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"\n-1.8999999999999999," in outs[0]


def test_lyapunov_samples_on_circle_map_window(tmp_path):
    # the circle-map window must cover every sample start, whatever --samples
    out = tmp_path / "l.json"
    code = run_cli(
        ["lyapunov", "--spec", CONFIGS / "fib.cfg", "--energies=0.5",
         "--n-steps", "1000", "--samples", "6", "--format", "json", "--out", out]
    )
    assert code == 0
    spec = cfgmod.build_spec(cfgmod.parse_config(str(CONFIGS / "fib.cfg")))
    window = spec.window(1, 1000 + 5 * cc.SAMPLE_STRIDE, allow_periodic=True)
    gamma, spread = cc.lyapunov_scan(window, [0.5], n_steps=1000, samples=6)
    result = json.loads(out.read_text())["result"]
    assert result["gamma"] == [float(gamma[0])]
    assert result["spread"] == [float(spread[0])]


@pytest.mark.parametrize("name", ["fib.cfg", "simple3.cfg", "sparse3.cfg"])
@pytest.mark.parametrize("steps,samples,message", [
    ("1000", "0", "need at least one sample start point"),
    ("-5", "1", "n_steps must be >= 1000"),
])
def test_lyapunov_names_a_bad_run_length(name, steps, samples, message, capsys):
    # every spec kind gets the scan's own message, not the window builder's
    argv = ["lyapunov", "--spec", CONFIGS / name, "--energies=0.5",
            "--n-steps", steps, "--samples", samples]
    assert run_cli(argv) == 1
    assert "error: %s" % message in capsys.readouterr().err


def test_sparse_check_json(tmp_path):
    out = tmp_path / "sc.json"
    code = run_cli(
        ["sparse-check", "--spec", CONFIGS / "sparse3.cfg", "--energy", "0.0",
         "--n", "128", "--eigs", "3", "--out", out]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["version"] == __version__
    res = payload["result"]
    assert res["essential_band"] == [-2, 2]
    assert abs(res["essential_point"] - 8**0.5) < 1e-12
    assert res["certificate"]["C_E_closed"] == 1
    assert len(res["top_eigenvalues"]) == 3


def test_gordon_scan_small(tmp_path):
    out = tmp_path / "g.json"
    code = run_cli(
        ["gordon-scan", "--spec", CONFIGS / "simple3.cfg", "--level", "2",
         "--energies", "2", "--origins", "6", "--energy-level", "5",
         "--grid", "20000", "--out", out]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["falsifications"] == []
    assert payload["result"]["min_margin"] > 0


# ---------------------------------------------------------------------------
# Exit codes and errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flag,value", [
    ("--origins", "0"), ("--energies", "0"), ("--origins", "-1"),
])
def test_gordon_scan_rejects_empty_sweep_sizes(flag, value, tmp_path, capsys):
    sizes = {"--energies": "2", "--origins": "6", flag: value}
    out = tmp_path / "g.json"
    argv = ["gordon-scan", "--spec", CONFIGS / "simple3.cfg", "--level", "2",
            "--energy-level", "5", "--grid", "2000", "--out", out]
    assert run_cli(argv + [x for kv in sizes.items() for x in kv]) == 1
    name = "n_origins" if flag == "--origins" else "n_energies"
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,name", [
    ("--level", "-1", "entry_k"),
    # the default max_scale, energy_level + 2, is below --level + 2
    ("--energy-level", "0", "max_scale (default energy_level + 2)"),
], ids=["level", "energy-level"])
def test_gordon_scan_rejects_unreachable_levels(flag, value, name, tmp_path, capsys):
    out = tmp_path / "g.json"
    argv = ["gordon-scan", "--spec", CONFIGS / "simple3.cfg", "--level", "2",
            "--energies", "2", "--origins", "3", "--grid", "2000", "--out", out]
    assert run_cli(argv + [flag, value]) == 1
    assert name + " must be >= " in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1
    capsys.readouterr()


def test_unknown_flag_exits_one(capsys):
    assert run_cli(["generate", "--spec", "x", "--len", "5", "--wat"]) == 1
    # only gordon-scan draws random numbers, so only it takes a seed
    assert run_cli(["spectrum", "--spec", CONFIGS / "simple3.cfg", "--level", "2",
                    "--seed", "1"]) == 1
    capsys.readouterr()


def test_missing_config_exits_one(capsys):
    assert run_cli(["generate", "--spec", "/nonexistent.cfg", "--len", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_out_of_range_parameter_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sparse]\nv = 0.0\nrule = power:3\n")
    assert run_cli(["generate", "--spec", bad, "--len", "10"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_spectrum_rejects_a_bad_tol(tol, tmp_path, capsys):
    out = tmp_path / "s.json"
    argv = ["spectrum", "--spec", CONFIGS / "simple3.cfg", "--level", "3",
            "--grid", "2000", "--format", "json", "--out", out]
    assert run_cli(argv + ["--tol=" + tol]) == 1
    assert "tol must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(argv + ["--tol", "0"]) == 0
    assert json.loads(out.read_text())["result"]["sigma_k"]["tol"] == 0.0


@pytest.mark.parametrize("argv", [
    ["sparse-check", "--spec", CONFIGS / "sparse3.cfg", "--energy", "nan"],
    ["trace-table", "--spec", CONFIGS / "simple3.cfg", "--energy", "nan", "--k", "4"],
    ["lyapunov", "--spec", CONFIGS / "simple3.cfg", "--energies", "nan,0.5",
     "--n-steps", "2000"],
], ids=["sparse-check", "trace-table", "lyapunov"])
def test_non_finite_energy_exits_one(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", out]) == 1
    assert "nan" in capsys.readouterr().err  # the error names the energy
    assert not out.exists()


def test_console_script_is_installed():
    # the child imports the package these tests import, installed or not
    src = pathlib.Path(cfgmod.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "sturmspec.cli", "--version"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


@pytest.mark.parametrize("energies,bad", [
    ("0.3,,0.5", "''"), ("", "''"), ("0.3,abc", "'abc'"),
])
def test_malformed_energy_list_exits_one(energies, bad, capsys):
    argv = ["lyapunov", "--spec", CONFIGS / "simple3.cfg", "--energies=" + energies]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err


def test_lyapunov_overflow_names_the_energy(capsys):
    argv = ["lyapunov", "--spec", CONFIGS / "simple3.cfg", "--energies=0.3,1e11",
            "--n-steps", "2000"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "overflowed" in err and "1e+11" in err and "site 1)" in err
