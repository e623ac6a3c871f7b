"""The README's command lines against golden stdout and exit codes.

Regenerate the golden files with ``PYTHONPATH=src python tests/test_readme_examples.py``
only when an output change is intended.
"""

import json
from pathlib import Path

import pytest

from conftest import FIXTURES, run_cli

GOLDEN = Path(__file__).parent / "golden"
MATRIX = str(FIXTURES / "genus2_special.mat")
BASE = "1,1;1,2"

CASES = {
    "validate": ["validate", MATRIX],
    "torus": ["torus", "--tau", "0+1i", "--max", "2"],
    "torus-fd": ["torus-fd", "--tau", "0.5+1i", "--max", "1", "--resolution", "64"],
    "search": ["search", MATRIX, "--base", BASE, "--bound", "2"],
    "construct-g2": [
        "construct-g2", "--omega11", "0+1i", "--omega12", "0+0.5i",
        "--M", "1", "--N2", "1", "--N3", "0", "--N4", "1", "--out", "g2.mat",
    ],
    "cm-check-special": ["cm-check", MATRIX, "--base", BASE, "--probe", "0,0;1,2"],
    "cm-check-collinear": ["cm-check", MATRIX, "--base", BASE, "--probe", "2,2;2,4"],
    "cm-check-rejected": ["cm-check", MATRIX, "--base", BASE, "--probe", "2,-1;1,-1"],
    "report": ["report", MATRIX],
}


def _run(name, workdir: Path):
    """Exit code and stdout, with construct-g2's output path written as given."""
    argv = list(CASES[name])
    if name == "construct-g2":
        argv[-1] = str(workdir / argv[-1])
    code, out = run_cli(argv)
    if name == "construct-g2":
        out = out.replace("wrote %s\n" % argv[-1], "wrote %s\n" % CASES[name][-1], 1)
    return code, out


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def _report_rows(text):
    """Each identity row as (name, tol, status) with its (max_residual, tol)
    as floats; the header and the positivity row stay whole lines."""
    lines = text.splitlines()
    keys = [lines[0], lines[-1]]
    values = []
    for line in lines[1:-1]:
        name, residual, tol, status = line.split()
        keys.append((name, tol, status))
        values.append((float(residual), float(tol)))
    return keys, values


@pytest.mark.parametrize("name", list(CASES))
def test_readme_example_matches_golden(name, tmp_path):
    code, out = _run(name, tmp_path)
    assert code == _exit_codes()[name]
    golden = (GOLDEN / ("%s.txt" % name)).read_text()
    if name == "report":
        keys, values = _report_rows(out)
        assert keys == _report_rows(golden)[0]
        assert all(residual <= tol for residual, tol in values)
    else:
        assert out == golden


def _capture(workdir: Path):
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in CASES:
        codes[name], out = _run(name, workdir)
        (GOLDEN / ("%s.txt" % name)).write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _capture(Path(tmp))
