"""Text formats: complex literals a+bi, matrix files, and charge strings."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ParseError
from .siegel import LatticeCharge, PeriodMatrix, validate_period_matrix

_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(r"^([+-]?%s)([+-]%s)i$" % (_FLOAT, _FLOAT))


def parse_complex(token: str) -> complex:
    """Parse one literal of the form a+bi or a-bi, with no interior spaces."""
    match = _COMPLEX_RE.match(token)
    if not match:
        raise ParseError("malformed complex literal %r (expected a+bi)" % token)
    return complex(float(match.group(1)), float(match.group(2)))


def format_complex(value: complex) -> str:
    value = complex(value)
    return "%.15g%+.15gi" % (value.real, value.imag)


def parse_matrix_text(text: str, label: str = "<string>") -> PeriodMatrix:
    """Parse the matrix file format: 'genus h' then h rows of h entries.

    Comment lines and trailing comments start with '#'.  Validation errors
    from the parsed matrix propagate unchanged.
    """
    rows = []
    genus = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if genus is None:
            if len(tokens) != 2 or tokens[0] != "genus":
                raise ParseError("%s:%d: expected header 'genus <h>'" % (label, lineno))
            try:
                genus = int(tokens[1])
            except ValueError:
                raise ParseError("%s:%d: bad genus %r" % (label, lineno, tokens[1]))
            if genus < 1:
                raise ParseError("%s:%d: genus must be positive" % (label, lineno))
            continue
        if len(tokens) != genus:
            raise ParseError(
                "%s:%d: expected %d entries, found %d" % (label, lineno, genus, len(tokens))
            )
        try:
            rows.append([parse_complex(tok) for tok in tokens])
        except ParseError as exc:
            raise ParseError("%s:%d: %s" % (label, lineno, exc)) from None
    if genus is None:
        raise ParseError("%s: missing 'genus' header" % label)
    if len(rows) != genus:
        raise ParseError("%s: expected %d rows, found %d" % (label, genus, len(rows)))
    return validate_period_matrix(np.array(rows, dtype=complex))


def load_period_matrix(path) -> PeriodMatrix:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    return parse_matrix_text(text, label=str(path))


def format_matrix(omega: PeriodMatrix) -> str:
    """The matrix file text; each entry in the shortest form that reads back exactly."""
    lines = ["genus %d" % omega.genus]
    for row in omega.entries:
        lines.append(" ".join("{}{:+}i".format(z.real, z.imag) for z in row))
    return "\n".join(lines) + "\n"


def write_period_matrix(path, omega: PeriodMatrix) -> None:
    Path(path).write_text(format_matrix(omega))


def parse_charge(text: str, genus: int) -> LatticeCharge:
    """Parse 'n1,..,nh;m1,..,mh' into a charge of the given genus."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ParseError("charge must look like 'n1,..;m1,..', got %r" % text)
    try:
        n = tuple(int(tok) for tok in parts[0].split(","))
        m = tuple(int(tok) for tok in parts[1].split(","))
    except ValueError:
        raise ParseError("charge components must be integers, got %r" % text)
    if len(n) != genus or len(m) != genus:
        raise ParseError(
            "charge %r has the wrong length for genus %d" % (text, genus)
        )
    return LatticeCharge(n, m)


def format_int_vector(values) -> str:
    return ",".join(str(int(v)) for v in values)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed rational %r (expected p or p/q)" % text)
