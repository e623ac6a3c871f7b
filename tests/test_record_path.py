"""The box search and the one-probe entry points build every record the same way."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from specialperiods import (
    LatticeCharge,
    lattice_image,
    random_siegel_point,
    search_solutions,
    solution_record,
    special,
)
from specialperiods.errors import SpecialPeriodsError

from oracles import solve_c

TOL = 1e-9


def _unit_base(h, seed):
    """Base with n in {-1, 1}^h and m in {-1, 0, 1}^h, so no image component vanishes."""
    rng = np.random.default_rng(seed)
    return LatticeCharge(tuple(rng.choice([-1, 1], size=h)), tuple(rng.integers(-1, 2, size=h)))


# the last is the benchmark's genus-1 shape: 3,720 records, whose areas the search batches
SEEDED = [(h, seed, bound) for h, bound in ((1, 5), (2, 2), (3, 2)) for seed in range(3)] + [(1, 0, 30)]


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



# moduli in [1, 2) whose square rounds differently as Python's x ** 2 (C pow) and as x * x;
# a libm whose pow rounds correctly has none, and then 1.5 stands in
_POW_ROUNDED = [x for x in np.random.default_rng(0).uniform(1, 2, 20000).tolist() if x**2 != x * x] or [1.5]
_INT64 = 2**63


@st.composite
def _conjugate_scale_factor(draw, tol):
    kind = draw(st.sampled_from(["any", "sign edge", "degenerate", "pow overflow", "underflow", "pow rounding"]))
    signs = st.sampled_from([1.0, -1.0])
    if kind == "any":
        return complex(draw(st.floats(width=64)), draw(st.floats(width=64)))
    if kind == "sign edge":  # the flip rule's comparison at Im cbar = -tol, and the sign of a zero
        return complex(draw(st.floats(-1e3, 1e3)), draw(st.sampled_from([tol, -tol, 0.0, -0.0])))
    if kind == "degenerate":
        return complex(draw(st.floats(-tol / 2, tol / 2)), draw(st.floats(-tol / 2, tol / 2)))
    if kind == "pow overflow":  # |c| across 1e154-1.35e154, where |c|^2 leaves the float range
        modulus, t = draw(st.floats(1e154, 1.35e154)), draw(st.floats(0, 1))
        return complex(draw(signs) * modulus * t, draw(signs) * modulus * (1 - t * t) ** 0.5)
    if kind == "underflow":  # |c|^2 is 0 or subnormal
        return complex(draw(st.floats(-1e-160, 1e-160)), draw(st.floats(-1e-160, 1e-160)))
    # "pow rounding": scaling by a power of two keeps the two squares apart
    modulus = draw(st.sampled_from(_POW_ROUNDED)) * 2.0 ** draw(st.integers(-400, 400))
    return complex(draw(signs) * modulus, 0.0) if draw(st.booleans()) else complex(0.0, draw(signs) * modulus)


@st.composite
def _builder_inputs(draw):
    h = draw(st.integers(1, 3))
    tol = draw(st.sampled_from([1e-9, 5e-2, 1.0]))
    component = st.one_of(st.integers(-5, 5), st.integers(_INT64, 2**70), st.integers(-(2**70), -_INT64))
    base = LatticeCharge(*(tuple(draw(st.lists(component, min_size=h, max_size=h))) for _ in "nm"))
    count = draw(st.integers(1, 6))
    entries = st.integers(-5, 5) if draw(st.booleans()) else component
    rows = draw(st.lists(st.lists(entries, min_size=2 * h, max_size=2 * h), min_size=count, max_size=count))
    # the search passes int64 rows, solution_record object rows of Python ints
    exact = draw(st.booleans()) or any(abs(x) >= _INT64 for row in rows for x in row)
    areas = st.one_of(st.floats(1e-300, 1e300), st.sampled_from([0.0, np.inf, np.nan]))
    cbars = [draw(_conjugate_scale_factor(tol)) for _ in rows]
    probe_areas = [draw(areas) for _ in rows]
    return base, np.array(rows, dtype=object if exact else np.int64), cbars, tol, draw(areas), probe_areas


def _bits(value):
    return np.array([value]).view(np.uint64).tolist()


@settings(max_examples=400, deadline=None)
@given(case=_builder_inputs())
def test_array_builder_equals_the_scalar_reference(case):
    base, rows, cbars, tol, base_area, probe_areas = case
    h = base.genus
    try:
        expected = [
            oracles._record(base, LatticeCharge(tuple(x[:h]), tuple(x[h:])), cbar, tol, base_area, a)
            for x, cbar, a in zip(rows.tolist(), cbars, probe_areas)
        ]
    except SpecialPeriodsError as exc:
        expected = (type(exc), str(exc))
    try:
        records = list(special._records(base, rows, np.array(cbars), tol, base_area, np.array(probe_areas)))
    except SpecialPeriodsError as exc:
        records = (type(exc), str(exc))
    if isinstance(expected, tuple) or isinstance(records, tuple):
        assert records == expected
        return
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        for field in ("probe", "sign", "degree", "classification"):
            assert getattr(got, field) == getattr(want, field), field
        assert [type(x) for x in (got.c, got.sign, got.lambda_c, got.lambda_c_dual, got.degree)] == [
            type(x) for x in (want.c, want.sign, want.lambda_c, want.lambda_c_dual, want.degree)
        ]
        for field in ("c", "lambda_c", "lambda_c_dual"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
