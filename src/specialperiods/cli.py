"""Command-line front end: deterministic tables over matrix files.

All tables are whitespace-delimited text with a '#' header line.  Every
stdout line is written by one writer, ``_rows``, which prints ints in full and
floats to 15 significant digits, so outputs are diffable across runs; it
writes a table from its columns in one format per row, and ``_row`` is its
one-row case.  ``run``
loads the matrix file, when the subcommand takes one, before its handler.  Exit
codes: 0 success, 1 validation or math failure, 2 parse or configuration
error.  Each flag is declared, converted, defaulted and range-checked once, in
``_build_parser``; a bad flag exits 2 with argparse's usage message.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import genus2, report, special, torus
from .errors import BadRationality, ParseError, SpecialPeriodsError
from .matrixio import (
    format_complex,
    format_int_vector,
    load_period_matrix,
    parse_charge,
    parse_complex,
    parse_fraction,
    write_period_matrix,
)

_CONFIG_ERRORS = (ParseError, BadRationality, OSError)


@dataclass
class RunConfig:
    """Parsed invocation: subcommand, matrix path, and the parser's namespace."""

    subcommand: str
    matrix_path: Path | None
    flags: argparse.Namespace = field(default_factory=argparse.Namespace)

    def resolved_threads(self) -> int:
        """Always 1: the search runs in one thread.  Kept only because
        ``environment()`` in ``perfbench/run.py`` records it."""
        return 1


def _rows(out, *columns) -> None:
    """Write one stdout line per row of the equal-length columns, all rows in one format:
    strings as given, ints in full, floats as %.15g, and each row of a 2-D integer
    array as its ints joined by commas, as ``format_int_vector`` writes a charge."""
    formats, fields = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.ndim == 2:
            formats.append(",".join(["%d"] * column.shape[1]))
            fields += column.T.tolist()
        elif all(isinstance(value, float) for value in column):
            formats.append("%.15g")
            fields.append(column)
        else:
            formats.append("%s")
            fields.append(["%.15g" % value if isinstance(value, float) else str(value) for value in column])
    line = " ".join(formats) + "\n"
    out.write("".join([line % row for row in zip(*fields)]))


def _row(out, *cols) -> None:
    """Write one stdout line, the one-row case of ``_rows``."""
    _rows(out, *([col] for col in cols))


def _cmd_validate(args, omega, out) -> int:
    eigs = np.linalg.eigvalsh(omega.imag_part)
    det = np.linalg.det(omega.imag_part)
    _row(out, "genus", omega.genus)
    _row(out, "min_imag_eigenvalue", eigs[0])
    _row(out, "det_imag", det)
    _row(out, "status", "OK")
    return 0


def _cmd_torus(args, omega, out) -> int:
    try:
        table = torus.spectrum_table(args.tau, args.max)
    except (ValueError, MemoryError) as exc:  # a --max box too large for numpy, or for memory
        raise ParseError(str(exc)) from exc
    _row(out, "# n m re_c im_c lambda mu")
    for entry in table:
        _row(out, *entry.charge, entry.c.real, entry.c.imag, entry.lam, entry.mu)
    return 0


def _cmd_torus_fd(args, omega, out) -> int:
    try:
        table = torus.spectrum_table(args.tau, args.max)
    except (ValueError, MemoryError) as exc:  # a --max box too large for numpy, or for memory
        raise ParseError(str(exc)) from exc
    _row(out, "# n m lambda resid_N resid_2N ratio")
    for entry in table:
        n, m = entry.charge
        lam, coarse = torus.fd_eigen_residual(args.tau, n, m, args.resolution)
        _, fine = torus.fd_eigen_residual(args.tau, n, m, 2 * args.resolution)
        _row(out, n, m, lam, coarse, fine, coarse / fine if fine > 0 else 0.0)
    return 0


def _cmd_search(args, omega, out) -> int:
    base = parse_charge(args.base, omega.genus)
    try:
        records = special.search_solutions(omega, base, bound=args.bound, tol=args.tol)
    except ValueError as exc:  # a --bound past the floats' exact integers
        raise ParseError(str(exc)) from exc
    h = omega.genus
    _row(out, "# n m re_c im_c lambda_c degree classification")
    _rows(
        out,
        records.rows[:, :h],
        records.rows[:, h:],
        records.c.real.tolist(),
        records.c.imag.tolist(),
        records.lambda_c.tolist(),
        ["-" if degree is None else degree for degree in records.degree.tolist()],
        records.classification.tolist(),
    )
    return 0


def _cmd_construct_g2(args, omega, out) -> int:
    params = genus2.Genus2Params(
        omega11=args.omega11, omega12=args.omega12, M=args.M, N2=args.N2, N3=args.N3, N4hat=args.N4
    )
    write_period_matrix(args.out, genus2.build_special_genus2(params))
    info_lines = [
        "omega22 %s" % format_complex(params.omega22),
        "N1 %s" % params.N1,
        "N_plus %s" % params.N_plus,
        "N_minus %s" % params.N_minus,
    ]
    for branch in (genus2.BRANCH_PLUS, genus2.BRANCH_MINUS):
        for n1, m1, charge in genus2.gamma_members(params, branch, bound=2)[:8]:
            info_lines.append(
                "gamma%s %d %d -> %s;%s"
                % (branch, n1, m1, format_int_vector(charge.n), format_int_vector(charge.m))
            )
    Path(str(args.out) + ".info").write_text("\n".join(info_lines) + "\n")
    _row(out, "wrote", args.out)
    for line in info_lines:
        _row(out, line)
    return 0


def _cmd_cm_check(args, omega, out) -> int:
    base = parse_charge(args.base, omega.genus)
    probe = parse_charge(args.probe, omega.genus)
    _row(out, "wedge_residual", special.cm_wedge_residual(omega, base, probe))
    record = special.solution_record(omega, base, probe, tol=args.tol)
    _row(out, "classification", record.classification)
    _row(out, "c", format_complex(record.c))
    _row(out, "lambda_c", record.lambda_c)
    _row(out, "lambda_dual", record.lambda_c_dual)
    if record.degree is not None:
        _row(out, "degree", record.degree)
        m_vec, n_vec, m_prime, n_prime = special.cm_witness_from_record(base, record)
        witness = special.cm_relation_check(omega, record.c_conj, m_vec, n_vec, m_prime, n_prime)
        _row(out, "cm_witness_residual", witness)
    return 0


def _cmd_report(args, omega, out) -> int:
    try:
        worst = report.run_identity_suite(
            omega, trials=args.trials, seed=args.seed, charge_bound=args.charge_bound
        )
    except ValueError as exc:  # a --charge-bound past the int64 pairings
        raise ParseError(str(exc)) from exc
    values = list(worst.values())
    _row(out, "# identity max_residual tol status")
    _rows(out, list(worst), values, [args.tol] * len(values), ["PASS" if v <= args.tol else "FAIL" for v in values])
    minimum, at_zero = report.positivity_sweep(omega, bound=args.bound)
    positive = minimum > 0 and at_zero == 0.0
    _row(out, "positivity-box", minimum, 0.0, "PASS" if positive else "FAIL")
    passed = positive and all(value <= args.tol for value in worst.values())
    return 0 if passed else 1


_DISPATCH = {
    "validate": _cmd_validate,
    "torus": _cmd_torus,
    "torus-fd": _cmd_torus_fd,
    "search": _cmd_search,
    "construct-g2": _cmd_construct_g2,
    "cm-check": _cmd_cm_check,
    "report": _cmd_report,
}


def run(config: RunConfig, out=None) -> int:
    """Dispatch one parsed invocation; returns the process exit code.

    Configuration errors, unreadable input and unwritable output exit 2;
    validation and math errors exit 1.
    """
    out = out if out is not None else sys.stdout
    try:
        omega = None if config.matrix_path is None else load_period_matrix(config.matrix_path)
        return _DISPATCH[config.subcommand](config.flags, omega, out)
    except _CONFIG_ERRORS as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except SpecialPeriodsError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def _checked(parse, expected: str, accept=lambda value: True):
    """An argparse type: ``parse`` the text, then require ``accept(value)``."""

    def convert(text):
        try:
            value = parse(text)
        except (ValueError, ParseError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
        return value

    return convert


def _int_at_least(low: int):
    return _checked(int, "an integer >= %d" % low, lambda value: value >= low)


_COMPLEX = _checked(parse_complex, "a complex literal a+bi")
_FRACTION = _checked(parse_fraction, "a rational p or p/q")
_TOL = _checked(float, "a positive finite number", lambda value: 0 < value < math.inf)


@functools.cache  # built once per process: argparse keeps no state between parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specialperiods",
        description="Primitive-differential algebra and special period matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_matrix(p):
        p.add_argument("matrix", type=Path, help="matrix file ('genus h' header)")

    def add_common(p):
        p.add_argument("--tol", type=_TOL, default=1e-9)

    p = sub.add_parser("validate", help="validate a matrix file")
    add_matrix(p)

    p = sub.add_parser("torus", help="genus-one spectrum table")
    p.add_argument("--tau", required=True, type=_COMPLEX, help="modulus as a+bi")
    p.add_argument("--max", type=_int_at_least(0), default=2, help="charge box half-width")

    p = sub.add_parser("torus-fd", help="finite-difference eigen residuals")
    p.add_argument("--tau", required=True, type=_COMPLEX, help="modulus as a+bi")
    p.add_argument("--max", type=_int_at_least(0), default=1)
    p.add_argument(
        "--resolution", type=_int_at_least(torus.FD_MIN_RESOLUTION), default=64
    )

    p = sub.add_parser("search", help="box search for proportional charges")
    add_matrix(p)
    p.add_argument("--base", required=True, help="base charge 'n1,..;m1,..'")
    p.add_argument("--bound", type=_int_at_least(1), default=2)
    add_common(p)

    p = sub.add_parser("construct-g2", help="build a tied genus-2 matrix file")
    p.add_argument("--omega11", required=True, type=_COMPLEX)
    p.add_argument("--omega12", required=True, type=_COMPLEX)
    p.add_argument("--M", required=True, type=_FRACTION)
    p.add_argument("--N2", required=True, type=_FRACTION)
    p.add_argument("--N3", required=True, type=_FRACTION)
    p.add_argument("--N4", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("cm-check", help="scale factor and CM witness for one probe")
    add_matrix(p)
    p.add_argument("--base", required=True)
    p.add_argument("--probe", required=True)
    add_common(p)

    p = sub.add_parser("report", help="run the identity suite on a matrix")
    add_matrix(p)
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--charge-bound", type=_int_at_least(0), default=5, dest="charge_bound")
    p.add_argument("--bound", type=_int_at_least(1), default=3)
    add_common(p)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    return run(RunConfig(args.subcommand, getattr(args, "matrix", None), args))


if __name__ == "__main__":
    raise SystemExit(main())
