"""The box search and the one-probe entry points build every record the same way."""

import numpy as np
import pytest

from specialperiods import (
    LatticeCharge,
    lattice_image,
    random_siegel_point,
    search_solutions,
    solution_record,
)

from oracles import solve_c

TOL = 1e-9


def _unit_base(h, seed):
    """Base with n in {-1, 1}^h and m in {-1, 0, 1}^h, so no image component vanishes."""
    rng = np.random.default_rng(seed)
    return LatticeCharge(tuple(rng.choice([-1, 1], size=h)), tuple(rng.integers(-1, 2, size=h)))


SEEDED = [(h, seed, bound) for h, bound in ((1, 5), (2, 2), (3, 2)) for seed in range(3)]


def _check_records(omega, base, records):
    v = lattice_image(omega, base)
    for record in records:
        assert solution_record(omega, base, record.probe, TOL) == record
        assert solve_c(omega, base, record.probe, TOL) == record.c
        image = lattice_image(omega, record.effective_probe)
        assert image == pytest.approx(record.c_conj * v, abs=1e-9)


def test_worked_case_one_record_path(worked_case):
    _, omega, base = worked_case
    records = search_solutions(omega, base, bound=2, tol=TOL)
    assert len(records) == 14
    assert any(r.sign == -1 for r in records)
    _check_records(omega, base, records)


@pytest.mark.parametrize("h,seed,bound", SEEDED)
def test_seeded_one_record_path(h, seed, bound):
    omega = random_siegel_point(h, seed)
    base = _unit_base(h, seed)
    records = search_solutions(omega, base, bound, TOL)
    assert base in [r.probe for r in records]
    if h == 1:
        # every nonzero probe is proportional at genus one; the lower half-plane ones flip
        assert len(records) == (2 * bound + 1) ** 2 - 1
        assert {r.sign for r in records} == {1, -1}
    _check_records(omega, base, records)


def test_block_and_single_row_kernels_agree_to_rounding():
    # solution_record scans the probe with its negation, so numpy's block
    # product rounds it as in the search: on the benchmark's genus-3 input at
    # seed 0, (-5,5,5;0,5,0) gave c = -5+1.0014e-16j alone and -5+0j in the search
    omega = random_siegel_point(3, 0)
    base = LatticeCharge((1, -1, -1), (0, -1, 0))
    records = search_solutions(omega, base, 5, TOL)
    assert [r.probe for r in records] == [
        LatticeCharge(tuple(k * x for x in base.n), tuple(k * x for x in base.m)) for k in range(-5, 6) if k
    ]
    for record in records:
        assert solution_record(omega, base, record.probe, TOL) == record
