"""Seeded inputs, argument lists and output checks for the benchmark workloads.

Every input is drawn here from the workload seed and written to a matrix file
before timing starts; the program sees only the file and the flags.  Inputs
are never redrawn: an input on which the program fails is a failed operation.

The checks do not trust the program.  Each search table must list exactly the
probes that the mathematics predicts (see ``expected_search_rows``) and be
byte-identical to the golden table captured in ``golden/`` for its input.
Inputs are drawn from ``seed % GOLDEN_SEEDS``, so every seed has a golden
table; seeds that differ by a multiple of GOLDEN_SEEDS get the same input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEEDS = 100

SEARCH_HEADER = "# n m re_c im_c lambda_c degree classification"
REPORT_HEADER = "# identity max_residual tol status"
COLLINEAR = "collinear-rational"
SPECIAL = "special-complex"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a subcommand at a stated input size."""

    name: str
    subcommand: str
    genus: int
    bound: int
    trials: int = 0

    @property
    def box_points(self) -> int:
        """Nonzero integer points of [-bound, bound]^{2 genus}."""
        return (2 * self.bound + 1) ** (2 * self.genus) - 1

    def input_size(self) -> dict:
        size = {"genus": self.genus, "bound": self.bound, "box_points": self.box_points}
        if self.subcommand == "report":
            size["trials"] = self.trials
        return size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-box-g3", "search", genus=3, bound=5),
        Workload("search-records-g1", "search", genus=1, bound=30),
        Workload("report-identities", "report", genus=3, bound=3, trials=1000),
    )
}

# Sizes small enough for the benchmark's own tests.
SMOKE = {
    "search-box-g3": Workload("search-box-g3", "search", genus=3, bound=2),
    "search-records-g1": Workload("search-records-g1", "search", genus=1, bound=5),
    "report-identities": Workload("report-identities", "report", genus=3, bound=1, trials=20),
}


def siegel_point(h: int, seed: int) -> np.ndarray:
    """Same draw as ``specialperiods.siegel.random_siegel_point(h, seed)``.

    The imaginary part is A^T A + h I, so it is positive definite by
    construction and the program's validation cannot reject it.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((h, h))
    imag = a.T @ a + h * np.eye(h)
    s = rng.standard_normal((h, h))
    return (s + s.T) / 2 + 1j * imag


def genus1_point(seed: int) -> np.ndarray:
    """tau with Re in [-0.5, 0.5] and Im in [0.8, 2]."""
    rng = np.random.default_rng((seed, 1))
    return np.array([[complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))]])


def unit_base(h: int, seed: int) -> tuple:
    """Base charge with n in {-1, 1}^h and m in {-1, 0, 1}^h.

    Every n entry is nonzero, so Im(m - Omega n) = -Im(Omega) n has no zero
    component and the base image never vanishes.  An entry of modulus one
    makes the charge primitive, so its only integer multiples are k * base.
    """
    rng = np.random.default_rng((seed, 2))
    n = tuple(int(x) for x in rng.choice([-1, 1], size=h))
    m = tuple(int(x) for x in rng.integers(-1, 2, size=h))
    return n, m


def format_matrix(entries: np.ndarray) -> str:
    """Matrix file text with 17 significant digits, so parsing is exact."""
    lines = ["genus %d" % len(entries)]
    for row in entries:
        lines.append(" ".join("%.17g%+.17gi" % (z.real, z.imag) for z in row))
    return "\n".join(lines) + "\n"


def format_charge(n, m) -> str:
    return "%s;%s" % (",".join(map(str, n)), ",".join(map(str, m)))


def expected_search_rows(workload: Workload, base: tuple) -> list:
    """(probe, classification) of every record the search must print, in order.

    A probe is accepted exactly when its image is a complex multiple of the
    base image.  At genus 1 the images are scalars, so every nonzero probe is
    accepted, and the real multiples are the integer multiples k * base.  At
    higher genus a generic matrix has no complex multiplication, so the
    records are the multiples k * base with 1 <= |k| <= bound.
    """
    n, m = base
    flat_base = n + m
    multiples = {
        tuple(k * x for x in flat_base) for k in range(-workload.bound, workload.bound + 1) if k
    }
    if workload.genus == 1:
        side = range(-workload.bound, workload.bound + 1)
        probes = [p for p in product(side, repeat=2) if any(p)]
    else:
        probes = sorted(multiples)
    return [(p, COLLINEAR if p in multiples else SPECIAL) for p in probes]


def _load_golden() -> tuple:
    sha = json.loads((GOLDEN_DIR / "search_sha256.json").read_text())
    identities = json.loads((GOLDEN_DIR / "report_identities.json").read_text())
    return sha, identities


@dataclass
class Case:
    """A prepared invocation of one workload at one seed."""

    workload: Workload
    seed: int
    argv: list
    base: tuple | None = None
    expected_rows: list | None = None
    golden_sha256: str | None = None
    identities: list | None = None

    def check(self, code: int, stdout: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if code != 0:
            return "exit code %d" % code
        if self.workload.subcommand == "search":
            return self._check_search(stdout)
        return self._check_report(stdout)

    def _check_search(self, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[0] != SEARCH_HEADER:
            return "missing search header"
        h = self.workload.genus
        rows = []
        for line in lines[1:]:
            cols = line.split()
            if len(cols) != 7:
                return "malformed row %r" % line
            probe = tuple(int(x) for x in (cols[0] + "," + cols[1]).split(","))
            rows.append((probe, cols[6]))
            if cols[6] == SPECIAL and h == 1:
                # A genus-1 cover of degree d has |n m' - m n'| = d.
                (bn,), (bm,) = self.base
                if int(cols[5]) != abs(bn * probe[1] - bm * probe[0]):
                    return "wrong degree in row %r" % line
        if rows != self.expected_rows:
            return "record set differs from the predicted one (%d rows, %d expected)" % (
                len(rows),
                len(self.expected_rows),
            )
        if self.golden_sha256 is not None:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digest != self.golden_sha256:
                return "table is not byte-identical to the golden table"
        return None

    def _check_report(self, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[0] != REPORT_HEADER:
            return "missing report header"
        names = []
        for line in lines[1:]:
            cols = line.split()
            if len(cols) != 4 or cols[3] != "PASS":
                return "row does not pass: %r" % line
            names.append(cols[0])
        if sorted(names) != sorted(self.identities):
            return "identity names differ from the golden set"
        return None


def prepare(workload: Workload, seed: int, workdir: Path) -> Case:
    """Draw the inputs for ``seed``, write the matrix file, build the argv."""
    seed %= GOLDEN_SEEDS
    h = workload.genus
    path = workdir / ("%s-seed%d.mat" % (workload.name, seed))
    entries = genus1_point(seed) if h == 1 else siegel_point(h, seed)
    path.write_text(format_matrix(entries))
    sha, identities = _load_golden()
    if workload.subcommand == "report":
        argv = [
            "report",
            str(path),
            "--trials",
            str(workload.trials),
            "--bound",
            str(workload.bound),
            "--seed",
            str(seed),
        ]
        return Case(workload, seed, argv, identities=identities)
    base = unit_base(h, seed)
    # The "=" form keeps argparse from reading a leading "-" as an option.
    argv = ["search", str(path), "--base=" + format_charge(*base), "--bound", str(workload.bound)]
    golden = None
    if workload == WORKLOADS[workload.name]:
        golden = sha.get(workload.name, {}).get(str(seed))
    return Case(
        workload,
        seed,
        argv,
        base=base,
        expected_rows=expected_search_rows(workload, base),
        golden_sha256=golden,
    )
