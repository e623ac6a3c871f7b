"""Command-line front end: deterministic tables over matrix files.

All tables are whitespace-delimited text with a '#' header line and numbers
printed to 15 significant digits, so outputs are diffable across runs and
worker counts.  Exit codes: 0 success, 1 validation or math failure,
2 parse or configuration error.  Each flag is declared, converted, defaulted
and range-checked once, in ``_build_parser``; a bad flag exits 2 with
argparse's usage message.
"""

from __future__ import annotations

import argparse
import math
import os
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
        """A nonzero ``--threads``, else ``THREADS``, else the CPU count."""
        flag = getattr(self.flags, "threads", None)
        if flag:
            return flag
        env = os.environ.get("THREADS")
        if env is not None:
            try:
                return max(1, int(env))
            except ValueError:
                raise ParseError("THREADS must be an integer, got %r" % env)
        return os.cpu_count() or 1


def _fmt(x: float) -> str:
    return "%.15g" % x


def _print_kv(out, key, value):
    out.write("%s %s\n" % (key, value))


def _cmd_validate(config: RunConfig, out) -> int:
    omega = load_period_matrix(config.matrix_path)
    eigs = np.linalg.eigvalsh(omega.imag_part)
    _print_kv(out, "genus", omega.genus)
    _print_kv(out, "min_imag_eigenvalue", _fmt(float(eigs[0])))
    _print_kv(out, "det_imag", _fmt(float(np.linalg.det(omega.imag_part))))
    _print_kv(out, "status", "OK")
    return 0


def _cmd_torus(config: RunConfig, out) -> int:
    table = torus.spectrum_table(config.flags.tau, config.flags.max)
    out.write("# n m re_c im_c lambda mu\n")
    for entry in table:
        out.write(
            "%d %d %s %s %s %s\n"
            % (
                entry.charge[0],
                entry.charge[1],
                _fmt(entry.c.real),
                _fmt(entry.c.imag),
                _fmt(entry.lam),
                _fmt(entry.mu),
            )
        )
    return 0


def _cmd_torus_fd(config: RunConfig, out) -> int:
    tau, resolution = config.flags.tau, config.flags.resolution
    table = torus.spectrum_table(tau, config.flags.max)
    out.write("# n m lambda resid_N resid_2N ratio\n")
    for entry in table:
        n, m = entry.charge
        lam, coarse = torus.fd_eigen_residual(tau, n, m, resolution)
        _, fine = torus.fd_eigen_residual(tau, n, m, 2 * resolution)
        ratio = coarse / fine if fine > 0 else 0.0
        out.write(
            "%d %d %s %s %s %s\n"
            % (n, m, _fmt(lam), _fmt(coarse), _fmt(fine), _fmt(ratio))
        )
    return 0


def _cmd_search(config: RunConfig, out) -> int:
    omega = load_period_matrix(config.matrix_path)
    records = special.search_solutions(
        omega,
        parse_charge(config.flags.base, omega.genus),
        bound=config.flags.bound,
        tol=config.flags.tol,
        threads=config.resolved_threads(),
    )
    out.write("# n m re_c im_c lambda_c degree classification\n")
    for rec in records:
        degree = str(rec.degree) if rec.degree is not None else "-"
        out.write(
            "%s %s %s %s %s %s %s\n"
            % (
                format_int_vector(rec.probe.n),
                format_int_vector(rec.probe.m),
                _fmt(rec.c.real),
                _fmt(rec.c.imag),
                _fmt(rec.lambda_c),
                degree,
                rec.classification,
            )
        )
    return 0


def _cmd_construct_g2(config: RunConfig, out) -> int:
    args = config.flags
    params = genus2.Genus2Params(
        omega11=args.omega11, omega12=args.omega12, M=args.M, N2=args.N2, N3=args.N3, N4hat=args.N4
    )
    omega = genus2.build_special_genus2(params)
    write_period_matrix(args.out, omega)
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
                % (
                    branch,
                    n1,
                    m1,
                    format_int_vector(charge.n),
                    format_int_vector(charge.m),
                )
            )
    info_text = "\n".join(info_lines) + "\n"
    Path(str(args.out) + ".info").write_text(info_text)
    out.write("wrote %s\n" % args.out)
    out.write(info_text)
    return 0


def _cmd_cm_check(config: RunConfig, out) -> int:
    omega = load_period_matrix(config.matrix_path)
    base = parse_charge(config.flags.base, omega.genus)
    probe = parse_charge(config.flags.probe, omega.genus)
    wedge = special.cm_wedge_residual(omega, base, probe)
    _print_kv(out, "wedge_residual", _fmt(wedge))
    record = special.solution_record(omega, base, probe, tol=config.flags.tol)
    _print_kv(out, "classification", record.classification)
    _print_kv(out, "c", format_complex(record.c))
    _print_kv(out, "lambda_c", _fmt(record.lambda_c))
    _print_kv(out, "lambda_dual", _fmt(record.lambda_c_dual))
    if record.degree is not None:
        _print_kv(out, "degree", record.degree)
        m_vec, n_vec, m_prime, n_prime = special.cm_witness_from_record(base, record)
        witness = special.cm_relation_check(
            omega, record.c_conj, m_vec, n_vec, m_prime, n_prime
        )
        _print_kv(out, "cm_witness_residual", _fmt(witness))
    return 0


def _cmd_psf_check(config: RunConfig, out) -> int:
    omega = load_period_matrix(config.matrix_path)
    base = parse_charge(config.flags.base, omega.genus)
    probe = parse_charge(config.flags.probe, omega.genus)
    index = config.flags.index - 1  # CLI is 1-based
    if index >= omega.genus:
        raise ParseError("--index must be between 1 and %d" % omega.genus)
    lhs, rhs, residual = special.psf_check(
        omega, base, probe, j=index, trunc=config.flags.trunc
    )
    d_base = special.psf_coefficient(omega, base)[index]
    d_probe = special.psf_coefficient(omega, probe)[index]
    _print_kv(out, "d_base", format_complex(d_base))
    _print_kv(out, "d_probe", format_complex(d_probe))
    _print_kv(out, "ratio", format_complex(d_probe / d_base))
    _print_kv(out, "lhs", format_complex(lhs))
    _print_kv(out, "rhs", format_complex(rhs))
    _print_kv(out, "residual", _fmt(residual))
    return 0


def _cmd_report(config: RunConfig, out) -> int:
    args = config.flags
    omega = load_period_matrix(config.matrix_path)
    results = report.run_identity_suite(
        omega, trials=args.trials, seed=args.seed, charge_bound=args.charge_bound, tol=args.tol
    )
    out.write("# identity max_residual tol status\n")
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        all_passed = all_passed and result.passed
        out.write(
            "%s %s %s %s\n" % (result.name, _fmt(result.max_residual), _fmt(result.tol), status)
        )
    minimum, at_zero = report.positivity_sweep(omega, bound=min(args.bound, 3))
    positive = minimum > 0 and at_zero == 0.0
    all_passed = all_passed and positive
    out.write(
        "positivity-box %s %s %s\n"
        % (_fmt(minimum), _fmt(0.0), "PASS" if positive else "FAIL")
    )
    return 0 if all_passed else 1


_DISPATCH = {
    "validate": _cmd_validate,
    "torus": _cmd_torus,
    "torus-fd": _cmd_torus_fd,
    "search": _cmd_search,
    "construct-g2": _cmd_construct_g2,
    "cm-check": _cmd_cm_check,
    "psf-check": _cmd_psf_check,
    "report": _cmd_report,
}


def run(config: RunConfig, out=None) -> int:
    """Dispatch one parsed invocation; returns the process exit code.

    Configuration errors, unreadable input and unwritable output exit 2;
    validation and math errors exit 1.
    """
    out = out if out is not None else sys.stdout
    try:
        return _DISPATCH[config.subcommand](config, out)
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
    p.add_argument("--threads", type=_int_at_least(0), default=0, help="0: all CPUs")
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

    p = sub.add_parser("psf-check", help="lattice-sum reciprocity for one probe")
    add_matrix(p)
    p.add_argument("--base", required=True)
    p.add_argument("--probe", required=True)
    p.add_argument("--index", type=_int_at_least(1), default=1, help="component (1-based)")
    p.add_argument("--trunc", type=_int_at_least(0), default=30)

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
