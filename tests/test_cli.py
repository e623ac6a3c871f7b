import argparse
import os

import numpy as np
import pytest

from conftest import run_cli

from specialperiods import ParseError
from specialperiods.cli import RunConfig
from specialperiods.matrixio import (
    format_complex,
    format_matrix,
    load_period_matrix,
    parse_charge,
    parse_complex,
    parse_matrix_text,
)

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


def test_cli_search_deterministic_across_threads(fixture_matrix_path):
    outputs = []
    for threads in ("1", "2", "8"):
        code, out = run_cli(
            [
                "search",
                str(fixture_matrix_path),
                "--base",
                "1,1;1,2",
                "--bound",
                "2",
                "--threads",
                threads,
            ]
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_threads_env_override(fixture_matrix_path, monkeypatch):
    monkeypatch.setenv("THREADS", "3")
    code, out = run_cli(
        ["search", str(fixture_matrix_path), "--base", "1,1;1,2", "--bound", "2"]
    )
    assert code == 0
    monkeypatch.setenv("THREADS", "not-a-number")
    code, _ = run_cli(
        ["search", str(fixture_matrix_path), "--base", "1,1;1,2", "--bound", "2"]
    )
    assert code == 2


def test_threads_flag_beats_environment(monkeypatch):
    monkeypatch.setenv("THREADS", "3")
    assert RunConfig("search", None, argparse.Namespace(threads=5)).resolved_threads() == 5
    assert RunConfig("search", None, argparse.Namespace(threads=0)).resolved_threads() == 3
    assert RunConfig("search", None).resolved_threads() == 3
    monkeypatch.setenv("THREADS", "not-a-number")
    assert RunConfig("search", None, argparse.Namespace(threads=2)).resolved_threads() == 2
    monkeypatch.delenv("THREADS")
    assert RunConfig("search", None).resolved_threads() == (os.cpu_count() or 1)


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


def test_cli_psf_check(tmp_path):
    mat = tmp_path / "torus.mat"
    mat.write_text("genus 1\n0+1i\n")
    code, out = run_cli(
        ["psf-check", str(mat), "--base", "1;1", "--probe", "0;1", "--index", "1"]
    )
    assert code == 0
    assert float(out.splitlines()[-1].split()[1]) < 1e-10
    code, _ = run_cli(
        ["psf-check", str(mat), "--base", "0;1", "--probe", "1;0", "--index", "1"]
    )
    assert code == 1  # outside the convergence half plane


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
        ["cm-check", "MATRIX", *_WORKED, "--probe", "0,0;1,2", "--tol", "nan"],
        ["torus", "--tau", "0+1i", "--max", "-1"],
        ["torus-fd", "--tau", "0+1i", "--resolution", "8"],
        ["psf-check", "MATRIX", *_WORKED, "--probe", "0,0;1,2", "--trunc", "-1"],
        ["psf-check", "MATRIX", *_WORKED, "--probe", "0,0;1,2", "--index", "0"],
        ["report", "MATRIX", "--trials", "0"],
        ["report", "MATRIX", "--charge-bound", "-1"],
        ["report", "MATRIX", "--seed", "-1"],
        ["search", "MATRIX", *_WORKED, "--threads", "-1"],
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


def test_cli_rejects_non_finite_tau(capsys):
    code, out = run_cli(["torus", "--tau", "0+1e999i", "--max", "1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error:")
