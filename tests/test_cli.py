import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli

from specialperiods import ParseError, cli, report, torus_eigenvalue
from specialperiods.matrixio import (
    format_complex,
    format_matrix,
    load_period_matrix,
    parse_charge,
    parse_complex,
    parse_matrix_text,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
PI = np.pi


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("2.5-3.75i") == 2.5 - 3.75j
    assert parse_complex("-1e-3+2.5e2i") == complex(-1e-3, 2.5e2)
    for bad in ("1+i2", "1", "i", "1 + 2i", "1+2j"):
        with pytest.raises(ParseError):
            parse_complex(bad)


def test_complex_round_trip():
    values = [1j, 2.5 - 3.75j, complex(-0.1, 1e-8), complex(12345.678, -9)]
    for value in values:
        assert parse_complex(format_complex(value)) == pytest.approx(value, rel=1e-14)


def test_parse_matrix_text():
    omega = parse_matrix_text("genus 1\n0+1i\n")
    assert omega.tau == 1j
    with pytest.raises(ParseError, match="line"):
        parse_matrix_text("genus 1\n1+i2\n", label="line")
    with pytest.raises(ParseError):
        parse_matrix_text("0+1i\n")
    with pytest.raises(ParseError):
        parse_matrix_text("genus 2\n0+1i\n")


def test_matrix_file_round_trip(tmp_path, worked_case):
    _, omega, _ = worked_case
    path = tmp_path / "m.mat"
    path.write_text(format_matrix(omega))
    loaded = load_period_matrix(path)
    assert np.array_equal(loaded.entries, omega.entries)


def test_fixture_file_matches_worked_matrix(fixture_matrix_path, worked_case):
    _, omega, _ = worked_case
    loaded = load_period_matrix(fixture_matrix_path)
    assert np.array_equal(loaded.entries, omega.entries)


def test_parse_charge():
    charge = parse_charge("1,1;1,2", genus=2)
    assert charge.n == (1, 1) and charge.m == (1, 2)
    for bad in ("1;2;3", "1,1;1", "a,b;1,2"):
        with pytest.raises(ParseError):
            parse_charge(bad, genus=2)


def test_cli_validate(fixture_matrix_path, tmp_path):
    code, out = run_cli(["validate", str(fixture_matrix_path)])
    assert code == 0
    assert "status OK" in out
    assert "det_imag 2.25" in out
    bad = tmp_path / "bad.mat"
    bad.write_text("genus 2\n0+1i 0+2i\n0+2i 0+1i\n")
    code, _ = run_cli(["validate", str(bad)])
    assert code == 1
    missing_entry = tmp_path / "mal.mat"
    missing_entry.write_text("genus 1\n1+i2\n")
    code, _ = run_cli(["validate", str(missing_entry)])
    assert code == 2


def test_cli_torus_table():
    code, out = run_cli(["torus", "--tau", "0+1i", "--max", "2"])
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    lams = [float(line.split()[4]) for line in lines]
    assert lams[:4] == pytest.approx([0.0, 2 * PI**2, 2 * PI**2, 2 * PI**2])
    assert lams == sorted(lams)
    assert any(abs(lam - 4 * PI**2) < 1e-9 for lam in lams)


def test_cli_torus_fd():
    code, out = run_cli(["torus-fd", "--tau", "0+1i", "--max", "1", "--resolution", "32"])
    assert code == 0
    rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
    for row in rows:
        if row[0] == "0" and row[1] == "0":
            continue
        assert float(row[5]) > 3.5  # second-order convergence ratio


def test_cli_tau_with_negative_real_part():
    # the "=" form; the space form exits 2 (test_cli_bad_flags_exit_2)
    code, out = run_cli(["torus-fd", "--tau=-0.3+0.7i", "--max", "1", "--resolution", "16"])
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 9
    for n, m, lam, *_ in rows:
        expected = torus_eigenvalue(-0.3 + 0.7j, int(n), int(m)).lam
        assert float(lam) == pytest.approx(expected, rel=1e-14)


def test_cli_search_output(fixture_matrix_path):
    code, out = run_cli(
        ["search", str(fixture_matrix_path), "--base", "1,1;1,2", "--bound", "2"]
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == 14
    worked = [line for line in lines if line.startswith("0,0 1,2 ")]
    assert len(worked) == 1
    fields = worked[0].split()
    assert float(fields[2]) == pytest.approx(4 / 13)
    assert float(fields[3]) == pytest.approx(-6 / 13)
    assert fields[5] == "3"
    assert fields[6] == "special-complex"
    # A leading "-" needs the "=" form (the space form is in test_cli_bad_flags_exit_2).  The
    # negated base has the same records with negated probes, in reverse order.
    code, out = run_cli(
        ["search", str(fixture_matrix_path), "--base=-1,-1;-1,-2", "--bound", "2"]
    )
    assert code == 0
    assert out.splitlines()[0] == (GOLDEN / "search.txt").read_text().splitlines()[0]
    negated = [_numeric_row(line) for line in out.splitlines()[1:]]
    assert negated == [_numeric_row(line, probe_sign=-1) for line in reversed(lines)]


def _numeric_row(line, probe_sign=1):
    """A search row with its probe as integers and its c and lambda_c as floats."""
    fields = line.split()
    probe = [probe_sign * int(x) for x in (fields[0] + "," + fields[1]).split(",")]
    return probe, [float(x) for x in fields[2:5]], fields[5:]


def test_cli_search_ignores_threads_environment(fixture_matrix_path, monkeypatch):
    monkeypatch.setenv("THREADS", "not-a-number")
    code, out = run_cli(["search", str(fixture_matrix_path), "--base", "1,1;1,2", "--bound", "2"])
    assert code == 0
    assert out == (GOLDEN / "search.txt").read_text()


def test_cli_construct_g2_round_trip(tmp_path, worked_case):
    _, omega, _ = worked_case
    out_path = tmp_path / "built.mat"
    code, out = run_cli(
        [
            "construct-g2",
            "--omega11",
            "0+1i",
            "--omega12",
            "0+0.5i",
            "--M",
            "1",
            "--N2",
            "1",
            "--N3",
            "0",
            "--N4",
            "1",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "N_plus 2" in out and "N_minus -1" in out
    assert np.array_equal(load_period_matrix(out_path).entries, omega.entries)
    info = (tmp_path / "built.mat.info").read_text()
    assert "gamma+ -2 -2 -> -2,-2;-2,-4" in info
    assert "gamma- -2 1 -> -2,1;1,-1" in info
    code, _ = run_cli(
        [
            "construct-g2",
            "--omega11",
            "0+1i",
            "--omega12",
            "0+0.5i",
            "--M",
            "0",
            "--N2",
            "1",
            "--N3",
            "0",
            "--N4",
            "1",
            "--out",
            str(tmp_path / "x.mat"),
        ]
    )
    assert code == 2  # degenerate parameters are a configuration error


def test_cli_cm_check(fixture_matrix_path):
    code, out = run_cli(
        [
            "cm-check",
            str(fixture_matrix_path),
            "--base",
            "1,1;1,2",
            "--probe",
            "0,0;1,2",
        ]
    )
    assert code == 0
    assert "degree 3" in out
    assert "classification special-complex" in out
    code, _ = run_cli(
        [
            "cm-check",
            str(fixture_matrix_path),
            "--base",
            "1,1;1,2",
            "--probe",
            "2,-1;1,-1",
        ]
    )
    assert code == 1  # not a solution


def test_cli_cm_check_degree_of_a_large_probe(tmp_path):
    # the area ratio is 300000006.99999994 in floating point; the pairing is exact
    mat = tmp_path / "torus.mat"
    mat.write_text("genus 1\n0.3+1.7i\n")
    code, out = run_cli(
        ["cm-check", str(mat), "--base", "1;0", "--probe", "300000000;300000007", "--tol", "1e-6"]
    )
    assert code == 0
    assert "degree 300000007" in out.splitlines()
    # the same matrix through the plane search: every nonzero point of the box, 61^2 - 1, is a record
    code, out = run_cli(["search", str(mat), "--base", "1;0", "--bound", "30"])
    assert code == 0
    assert len(out.splitlines()) - 1 == 3720


def test_cli_report(fixture_matrix_path):
    code, out = run_cli(["report", str(fixture_matrix_path), "--trials", "40"])
    assert code == 0
    assert "FAIL" not in out
    assert "positivity-box" in out


def test_cli_report_flag_ranges(fixture_matrix_path):
    # too few trials would silently drop identities; a negative bound has no box
    for flags in (["--trials", "0"], ["--trials", "-1"], ["--charge-bound", "-1"]):
        code, out = run_cli(["report", str(fixture_matrix_path)] + flags)
        assert code == 2, flags
        assert out == ""
    code, out = run_cli(
        ["report", str(fixture_matrix_path), "--trials", "1", "--charge-bound", "0"]
    )
    assert code == 0
    assert "FAIL" not in out


def test_cli_report_sweeps_the_bound_as_given(fixture_matrix_path, monkeypatch):
    bounds = []
    sweep = report.positivity_sweep

    def spy(omega, bound):
        bounds.append(bound)
        return sweep(omega, bound)

    monkeypatch.setattr(report, "positivity_sweep", spy)
    code, out = run_cli(["report", str(fixture_matrix_path), "--trials", "5", "--bound", "5"])
    assert code == 0 and "positivity-box" in out
    assert bounds == [5]


def test_cli_rejects_non_finite_matrix(tmp_path):
    mat = tmp_path / "inf.mat"
    mat.write_text("genus 1\n0+1e999i\n")
    for argv in (["validate", str(mat)], ["report", str(mat), "--trials", "5"]):
        code, out = run_cli(argv)
        assert code == 1, argv
        assert "status OK" not in out and "PASS" not in out


def test_cli_rejects_overflowing_matrix(tmp_path):
    mat = tmp_path / "big.mat"
    mat.write_text("genus 1\n1e308+1e308i\n")
    for argv in (
        ["validate", str(mat)],
        ["cm-check", str(mat), "--base", "1;0", "--probe", "2;0"],
    ):
        code, out = run_cli(argv)
        assert code == 1, argv
        assert "status OK" not in out


def test_cli_cm_check_has_no_bound_flag(fixture_matrix_path):
    argv = ["cm-check", str(fixture_matrix_path), "--base", "1,1;1,2", "--probe", "0,0;1,2"]
    assert run_cli(argv)[0] == 0
    assert run_cli(argv + ["--bound", "2"])[0] == 2


def test_cli_usage_errors():
    code, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _ = run_cli(["search", "/nonexistent/path.mat", "--base", "1;1"])
    assert code == 2


_WORKED = ["--base", "1,1;1,2"]
_G2 = ["--omega11", "0+1i", "--omega12", "0+0.5i", "--N2", "1", "--N3", "0", "--N4", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "MATRIX", *_WORKED, "--bound", "0"],
        ["search", "MATRIX", *_WORKED, "--tol", "0"],
        ["search", "MATRIX", *_WORKED, "--tol", "inf"],
        # floats hold every integer only up to 2^53, and the plane's interval ends are floats
        ["search", "MATRIX", *_WORKED, "--bound", "100000000000000000000"],
        ["cm-check", "MATRIX", *_WORKED, "--probe", "0,0;1,2", "--tol", "nan"],
        ["torus", "--tau", "0+1i", "--max", "-1"],
        # numpy refuses a charge box this wide before allocating it
        ["torus", "--tau", "0+1i", "--max", "100000000000000000000"],
        ["torus-fd", "--tau", "0+1i", "--max", "100000000000000000000"],
        ["torus-fd", "--tau", "0+1i", "--resolution", "8"],
        ["report", "MATRIX", "--trials", "0"],
        ["report", "MATRIX", "--charge-bound", "-1"],
        # the int64 pairings reach 2h bound^2: 1518500249 is the largest bound at genus 2
        ["report", "MATRIX", "--charge-bound", "1518500250", "--trials", "20", "--bound", "1"],
        ["report", "MATRIX", "--charge-bound", "10000000000000000000"],
        ["report", "MATRIX", "--seed", "-1"],
        ["search", "MATRIX", *_WORKED, "--threads", "-1"],
        ["search", "MATRIX", *_WORKED, "--threads", "2"],  # the search has no thread pool
        ["search", "MATRIX", "--base", "-1,-1;-1,-2"],  # a leading "-" needs --base=-1,...
        ["torus-fd", "--tau", "-0.3+0.7i", "--max", "1"],  # and --tau=-0.3+0.7i
        ["torus", "--tau", "1+i2"],
        ["construct-g2", *_G2, "--M", "1/0", "--out", "OUT"],
        ["construct-g2", *_G2, "--M", "1", "--out", "MISSING/g2.mat"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_bad_flags_exit_2(argv, fixture_matrix_path, tmp_path, capsys):
    paths = {
        "MATRIX": str(fixture_matrix_path),
        "OUT": str(tmp_path / "g2.mat"),
        "MISSING/g2.mat": str(tmp_path / "missing" / "g2.mat"),
    }
    code, out = run_cli([paths.get(arg, arg) for arg in argv])
    assert code == 2
    assert out == ""
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


def test_cli_degenerate_records(fixture_matrix_path):
    base = ["--base", "5,5;5,10", "--tol", "0.3"]
    code, out = run_cli(["cm-check", str(fixture_matrix_path), *base, "--probe", "0,0;1,0"])
    assert code == 0
    assert "classification degenerate" in out
    assert "lambda_dual inf" in out
    code, out = run_cli(["search", str(fixture_matrix_path), *base, "--bound", "1"])
    assert code == 0
    assert "degenerate" in out


@pytest.mark.parametrize("subcommand", ["torus", "torus-fd"])
def test_cli_torus_max_past_memory_exits_2(subcommand):
    # a (2 max + 1)^2 charge box that numpy accepts but cannot allocate under a 1 GiB address space
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))"
    run = "import sys; from specialperiods import cli; sys.exit(cli.main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", "%s; %s" % (limit, run), subcommand, "--tau", "0+1i", "--max", "100000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_cli_rejects_non_finite_tau(capsys):
    code, out = run_cli(["torus", "--tau", "0+1e999i", "--max", "1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--base", "1;0", "--bound", "1"],
        ["cm-check", "--base", "1;0", "--probe", "2;0"],
        ["search", "--base", "0;1", "--bound", "1"],
        ["cm-check", "--base", "0;1", "--probe", "1;0"],
        ["search", "--base", "0;1", "--bound", "2"],
        ["cm-check", "--base", "0;1", "--probe", "2;0"],
    ],
)
# lambda_c overflows at 0+8e307i; at 0+1e200i only the product A A' (about 1e402)
# does, and lambda_dual = 2 A' / |c|^2 stays finite, so that record is printed.
# Over the base 0;1, |c| is Im tau, and |c|^2 overflows at both, but at 0+1e200i
# lambda_c = (2 A |c|) |c| and lambda_dual = (2 A' / |c|) / |c| do not.  At
# 8e307+8e307i, over the base 0;1, |c| = |2 tau| overflows while both parts of c
# are finite: the record is not finite, as any whose |c| is inf
@pytest.mark.parametrize("tau", ["0+8e307i", "0+1e200i", "8e307+8e307i"])
def test_cli_rejects_non_finite_records(tmp_path, capsys, argv, tau):
    # the matrix validates, but the record's areas may overflow
    path = tmp_path / "huge.mat"
    path.write_text("genus 1\n%s\n" % tau)
    assert run_cli(["validate", str(path)])[0] == 0
    code, out = run_cli([argv[0], str(path), *argv[1:]])
    if tau == "0+1e200i":
        assert code == 0
        line = {
            ("search", "1;0", "1"): "1 0 1 0 9.86960440108936e+200 - collinear-rational",
            ("cm-check", "1;0", "2;0"): "lambda_dual 9.86960440108936e+200",
            ("search", "0;1", "1"): "1 0 -0 -1e+200 9.86960440108936e+200 1 special-complex",
            ("cm-check", "0;1", "1;0"): "lambda_c 9.86960440108936e+200",
            ("search", "0;1", "2"): "2 0 -0 -2e+200 3.94784176043574e+201 2 special-complex",
            ("cm-check", "0;1", "2;0"): "lambda_c 3.94784176043574e+201",
        }[argv[0], argv[2], argv[4]]
        assert line in out.splitlines()
        if argv[0] == "search":  # every nonzero probe of the box is a record at genus one
            assert len(out.splitlines()) - 1 == {"1": 8, "2": 24}[argv[4]]
        return
    assert code == 1
    # cm-check prints its wedge residual before the record, as for a rejected probe
    assert "lambda" not in out and "special" not in out and "collinear" not in out
    # the batched search reports the first probe in order; the whole error line is pinned
    probe, c, lambda_dual = {
        ("0+8e307i", "1;0", "1"): ("-1;-1", "(-1+1.25e-308j)", "inf"),
        ("0+8e307i", "1;0", "2;0"): ("2;0", "(2+0j)", "inf"),
        ("0+8e307i", "0;1", "1"): ("-1;-1", "(-1-8e+307j)", "inf"),
        ("0+8e307i", "0;1", "1;0"): ("1;0", "(-0-8e+307j)", "inf"),
        ("0+8e307i", "0;1", "2"): ("-2;-2", "(-2-1.6e+308j)", "inf"),
        ("0+8e307i", "0;1", "2;0"): ("2;0", "(-0-1.6e+308j)", "inf"),
        ("8e307+8e307i", "1;0", "1"): ("-1;-1", "(-1+0j)", "inf"),
        ("8e307+8e307i", "1;0", "2;0"): ("2;0", "(2+0j)", "inf"),
        ("8e307+8e307i", "0;1", "1"): ("-1;-1", "(8e+307-8e+307j)", "inf"),
        ("8e307+8e307i", "0;1", "1;0"): ("1;0", "(8e+307-8e+307j)", "inf"),
        ("8e307+8e307i", "0;1", "2"): ("-2;-2", "(1.6e+308-1.6e+308j)", "nan"),
        ("8e307+8e307i", "0;1", "2;0"): ("2;0", "(1.6e+308-1.6e+308j)", "nan"),
    }[tau, argv[2], argv[4]]
    expected = "error: the record of probe %s is not finite (c %s, lambda_c inf, lambda_dual %s)\n"
    assert capsys.readouterr().err == expected % (probe, c, lambda_dual)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_parser_reused_across_calls(fixture_matrix_path, monkeypatch):
    # the parser is built once per process; each call must print what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")
    matrix = str(fixture_matrix_path)
    calls = [
        ["validate", matrix],
        ["search", matrix, "--base", "1,1;1,2", "--bound", "1"],
        ["report", matrix, "--trials", "3", "--bound", "1"],
        ["search", matrix, "--bound", "2"],
        ["report", "--help"],
        ["validate", matrix, "--bogus"],
        ["--help"],
        ["torus", "--tau", "0+1i", "--max", "1"],
        ["validate", matrix],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "specialperiods.cli", *argv], capture_output=True, text=True, env=env
        )
        assert _in_process(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("bound", ["100000000000000000000", "9223372036854775807"])
def test_cli_report_at_a_huge_bound(fixture_matrix_path, bound):
    # the ellipsoid of candidates is the same as at bound 50; only the box's clip moves
    argv = ["report", str(fixture_matrix_path), "--trials", "5"]
    code, out = run_cli(argv + ["--bound", bound])
    reference = run_cli(argv + ["--bound", "50"])
    assert (code, out) == reference and code == 0
    assert "positivity-box 1.39626340159546 0 PASS" in out.splitlines()


def test_cli_cm_check_wedge_residual_at_huge_entries(tmp_path):
    # the images are near 1e200; their outer product is formed at a power-of-two scale
    path = tmp_path / "huge.mat"
    path.write_text("genus 1\n0+1e200i\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["cm-check", str(path), "--base", "1;0", "--probe", "2;0"])
    assert code == 0
    assert out.splitlines()[0] == "wedge_residual 0"
