"""The charge box is streamed in fixed-size blocks; outputs do not depend on them."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import run_cli
from specialperiods import (
    Genus2Params,
    LatticeCharge,
    build_special_genus2,
    gamma_members,
    random_siegel_point,
    search_solutions,
    siegel,
    special,
)
from specialperiods.errors import LatticeDefect, SpecialPeriodsError
from specialperiods.matrixio import write_period_matrix
from specialperiods.pairings import real_products
from specialperiods.report import positivity_sweep
from specialperiods.siegel import box_blocks, charge_box, validate_period_matrix
from test_record_path import _unit_base

BLOCK_SIZES = (1, 7, 121, siegel.BLOCK_ROWS)


def _streamed(dim, bound):
    return list(box_blocks(dim, bound))


def _full_box_sweep(omega, bound):
    """The positivity sweep over the whole box at once, as the reference.

    It evaluates ``real_products``, whose rounding is the sweep's: an einsum of
    the same form sums in another order and can differ in the last bit.
    """
    h = omega.genus
    flat = charge_box(2 * h, bound)
    n_part = flat[:, :h].astype(float)
    m_part = flat[:, h:].astype(float)
    values = real_products(omega, n_part, m_part, n_part, m_part)
    zero = len(flat) // 2
    return float(np.delete(values, zero).min()), float(values[zero])


def test_charge_box_shapes():
    assert charge_box(0, 3).shape == (1, 0)
    box = charge_box(3, 2)
    assert box.shape == (125, 3)
    assert [tuple(r) for r in box] == sorted(tuple(r) for r in box)
    assert not box[len(box) // 2].any()
    assert np.count_nonzero(~box.any(axis=1)) == 1


@pytest.mark.parametrize("block_rows", BLOCK_SIZES + (2, 25, 26))
@pytest.mark.parametrize("dim,bound", [(1, 1), (2, 3), (4, 2), (6, 1), (3, 5)])
def test_blocks_concatenate_to_the_box(monkeypatch, block_rows, dim, bound):
    monkeypatch.setattr(siegel, "BLOCK_ROWS", block_rows)
    blocks = _streamed(dim, bound)
    width = 2 * bound + 1
    tail_rows = len(blocks[0])
    assert tail_rows <= max(block_rows, width)
    assert tail_rows * width > block_rows or tail_rows == width**dim
    np.testing.assert_array_equal(np.concatenate(blocks), charge_box(dim, bound))
    zeros = [(i, int(j)) for i, rows in enumerate(blocks) for j in np.flatnonzero(~rows.any(axis=1))]
    assert zeros == [(len(blocks) // 2, tail_rows // 2)]


def test_single_block_and_zero_prefix_block_drop_one_row(monkeypatch, worked_case):
    # genus 1 at bound 3: 49 rows fit in one block, whose prefix is empty
    omega, base = random_siegel_point(1, 0), LatticeCharge((1,), (0,))
    [rows] = _streamed(2, 3)
    np.testing.assert_array_equal(rows, charge_box(2, 3))
    assert np.flatnonzero(~rows.any(axis=1)).tolist() == [49 // 2]
    # genus one has no dependent coordinate, so every box row is a candidate
    plane = special._plane_rows(omega, special.base_image(omega, base), 3, 1e-9)
    np.testing.assert_array_equal(plane, charge_box(2, 3))
    assert len(search_solutions(omega, base, 3, 1e-9)) == 49 - 1
    # genus 2 at bound 2 in blocks of 5 rows: only the middle block holds zero
    monkeypatch.setattr(siegel, "BLOCK_ROWS", 5)
    _, omega, base = worked_case
    assert len(search_solutions(omega, base, 2, 1e-9)) == 14
    blocks = _streamed(4, 2)
    with_zero = [rows for rows in blocks if not rows.any(axis=1).all()]
    assert len(blocks) == 125 and len(with_zero) == 1
    rows = with_zero[0]
    assert len(rows[rows.any(axis=1)]) == len(rows) - 1
    assert not rows[len(rows) // 2].any()


CASES = [("worked", 2, 1e-9)] + [
    ("g%d" % h, bound, 1e-9) for h in (1, 2, 3) for bound in (2, 3, 4)
] + [("loose", 3, 5e-2)]


def _case(name, worked_case):
    if name == "worked":
        _, omega, base = worked_case
    elif name == "loose":
        omega, base = random_siegel_point(2, 0), LatticeCharge((1, 0), (0, 1))
    else:
        h = int(name[1:])
        omega, base = random_siegel_point(h, 10 + h), _unit_base(h, h)
    return omega, base


@pytest.mark.parametrize("name,bound,tol", CASES)
def test_records_and_tables_independent_of_blocks(
    monkeypatch, tmp_path, worked_case, name, bound, tol
):
    omega, base = _case(name, worked_case)
    if omega.genus == 3 and bound > 2:
        block_sizes = (121, siegel.BLOCK_ROWS)  # tens of thousands of 7- or 9-row blocks are slow
    else:
        block_sizes = BLOCK_SIZES
    path = tmp_path / "omega.mat"
    write_period_matrix(path, omega)
    argv = ["search", str(path), "--base=%s;%s" % (",".join(map(str, base.n)), ",".join(map(str, base.m)))]
    argv += ["--bound", str(bound), "--tol", repr(tol)]
    reference = repr(search_solutions(omega, base, bound, tol))
    code, table = run_cli(argv)
    assert code == 0 and len(table.splitlines()) > 1
    for block_rows in block_sizes:
        monkeypatch.setattr(siegel, "BLOCK_ROWS", block_rows)
        assert repr(search_solutions(omega, base, bound, tol)) == reference
        assert run_cli(argv) == (0, table)


def test_loose_tolerance_case_has_special_records(worked_case):
    omega, base = _case("loose", worked_case)
    records = search_solutions(omega, base, 3, 5e-2)
    assert {r.classification for r in records} >= {"collinear-rational", "special-complex"}


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
@pytest.mark.parametrize("h,bound", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_positivity_sweep_matches_the_full_box(monkeypatch, block_rows, h, bound):
    # the sweep enumerates an ellipsoid, so the streamed box's block size is not read
    omega = random_siegel_point(h, 20 + bound)
    reference = _full_box_sweep(omega, bound)
    monkeypatch.setattr(siegel, "BLOCK_ROWS", block_rows)
    assert positivity_sweep(omega, bound) == reference


def _conditioned_matrix(h, seed, log_cond, log_scale):
    """A matrix whose Im Omega has condition number 10^log_cond, or None if it fails validation."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((h, h)))
    imag = (rotation * np.logspace(0, log_cond, h)) @ rotation.T * 10.0**log_scale
    s = rng.standard_normal((h, h))
    try:
        return validate_period_matrix((s + s.T) / 2 + 1j * (imag + imag.T) / 2)
    except SpecialPeriodsError:
        return None


@st.composite
def _sweep_cases(draw):
    h, bound = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        omega = random_siegel_point(h, seed)
    else:
        omega = _conditioned_matrix(h, seed, draw(st.floats(0, 5)), draw(st.floats(-2, 2)))
    assume(omega is not None)
    return omega, bound


@settings(max_examples=100, deadline=None)
@given(case=_sweep_cases())
def test_positivity_sweep_equals_the_box_oracle(case):
    omega, bound = case
    assert positivity_sweep(omega, bound) == _full_box_sweep(omega, bound)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(
    "entries,expected",
    [
        ([[1e200 + 2e200j]], 1.5707963267948966e-200),
        ([[1e200 + 1e200j, 5e199 + 5e199j], [5e199 + 5e199j, 1e200 + 1e200j]], 4.18879020478639e-200),
        ([[1e150 + 2j]], 1.5707963267948966),
        # X Y^-1 X overflows here, but the sweep never forms that Gram block
        ([[1e200 + 2j]], 1.5707963267948966),
    ],
)
@pytest.mark.parametrize("bound", [1, 3])
def test_positivity_sweep_on_extreme_matrices(entries, expected, bound):
    omega = validate_period_matrix(entries)
    assert positivity_sweep(omega, bound) == _full_box_sweep(omega, bound) == (expected, 0.0)


def test_positivity_sweep_finds_a_non_unit_minimum():
    # off-diagonal Im Omega near the diagonal: the charge (1, -1; 0, 0) has product
    # pi (2 - 1.8) and beats every unit charge, whose products are pi and pi / 0.19
    omega = validate_period_matrix([[1j, 0.9j], [0.9j, 1j]])
    units = np.eye(4)
    unit_products = real_products(omega, units[:, :2], units[:, 2:], units[:, :2], units[:, 2:])
    for bound in (1, 3):
        minimum, at_zero = positivity_sweep(omega, bound)
        assert (minimum, at_zero) == _full_box_sweep(omega, bound)
        assert minimum == pytest.approx(0.2 * np.pi) and minimum < unit_products.min() / 4


def _sweep_peak_bytes(omega, bound):
    tracemalloc.start()
    try:
        return positivity_sweep(omega, bound), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("conditioned", [False, True])
def test_positivity_sweep_memory_does_not_grow_with_the_bound(conditioned):
    # genus 6 at bound 10^4 is a box of 1.7e51 rows
    omega = _conditioned_matrix(6, 1, 5, 0) if conditioned else random_siegel_point(6, 1)
    results = {}
    for bound in (3, 50, 10**4):
        results[bound], peak = _sweep_peak_bytes(omega, bound)
        assert peak < 16 * 2**20
    assert results[50] == results[10**4]
    assert results[50][0] <= results[3][0]


def test_positivity_sweep_rejects_bound_zero():
    with pytest.raises(ValueError, match="bound must be at least 1"):
        positivity_sweep(random_siegel_point(2, 0), 0)


def _search_peak_bytes(omega, base, bound):
    tracemalloc.start()
    try:
        search_solutions(omega, base, bound, 1e-9)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_does_not_grow_with_the_bound():
    # bound 200 is a box of 2.6e10 rows; its 401^2 free pairs are streamed in blocks
    omega = random_siegel_point(2, 3)
    base = _unit_base(2, 3)
    for bound in (5, 12, 200):
        assert _search_peak_bytes(omega, base, bound) < 8 * 2**20


def _nonzero_blocks(dim, bound):
    """The rows of every block of the box, without the zero row."""
    for rows in box_blocks(dim, bound):
        yield rows[rows.any(axis=1)]


def _box_scan(omega, base, bound, tol):
    """The search over the whole box, as the oracle: every block goes through the kernel."""
    v, h = special.base_image(omega, base), omega.genus
    records = []
    for rows in _nonzero_blocks(2 * h, bound):
        for flat, cbar in special._accepted(omega, v, rows, tol):
            records.append(special._record(omega, base, LatticeCharge(flat[:h], flat[h:]), cbar, tol))
    return records


def _outcome(search, omega, base, bound, tol):
    try:
        return repr(search(omega, base, bound, tol))
    except SpecialPeriodsError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


TIED = [
    (1j, 0.5j, 1, 1, 0, 1, "+"),
    (1j, 0.25j, Fraction(3, 2), Fraction(1, 2), Fraction(1, 4), 4, "-"),
    (0.3 + 1.2j, 0.1 + 0.4j, 2, 1, 0, 1, "+"),
    (0.2 + 1.1j, -0.3 + 0.3j, Fraction(1, 2), 1, 0, 4, "+"),
]


def _screen_case(name, worked_case):
    """(omega, base) of a named oracle case."""
    kind, _, index = name.partition("-")
    if kind == "worked":
        _, omega, base = worked_case
    elif kind == "seeded":
        h = int(index)
        omega, base = random_siegel_point(h, 30 + h), _unit_base(h, 30 + h)
    elif kind == "tied":
        *entries, branch = TIED[int(index)]
        params = Genus2Params(*entries)
        # the last family member with |n1|, |m1| <= 2 has special records throughout the box
        omega, base = build_special_genus2(params), gamma_members(params, branch, 2)[-1][2]
    else:  # the benchmark's genus-3 input at seed 0
        omega, base = random_siegel_point(3, 0), LatticeCharge((1, -1, -1), (0, -1, 0))
    return omega, base


SCREEN_CASES = (
    [("worked", 2, 1e-9, None), ("worked", 6, 1e-9, None), ("worked", 4, 5e-2, 121)]
    + [("seeded-%d" % h, bound, tol, None) for h, bound in ((2, 6), (3, 3), (4, 2)) for tol in (1e-9, 5e-2)]
    + [("tied-%d" % i, 4, 1e-9, 25) for i in range(len(TIED))]
    + [("bench-g3", 5, 1e-9, None)]
)


@pytest.mark.parametrize("name,bound,tol,block_rows", SCREEN_CASES)
def test_screened_search_equals_the_unscreened_one(monkeypatch, worked_case, name, bound, tol, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(siegel, "BLOCK_ROWS", block_rows)
    omega, base = _screen_case(name, worked_case)
    records = search_solutions(omega, base, bound, tol)
    assert repr(records) == repr(_box_scan(omega, base, bound, tol))
    assert records


def _block_residuals(omega, base, bound):
    """(row, kernel residual) of every nonzero box row, each computed within its own block."""
    v = special.base_image(omega, base)
    return [
        (tuple(row), r)
        for rows in _nonzero_blocks(2 * omega.genus, bound)
        for row, r in zip(rows.tolist(), special._scan_rows(omega, v, rows)[1])
    ]


@pytest.mark.parametrize("name,bound", [("worked", 4), ("seeded-3", 2), ("tied-2", 4), ("bench-g3", 3)])
def test_screen_at_the_tolerance_boundary(monkeypatch, worked_case, name, bound):
    # tol equal to a row's own kernel residual: the kernel accepts that row, so
    # the plane must yield it although the plane's bound rounds differently
    monkeypatch.setattr(siegel, "BLOCK_ROWS", 125)
    omega, base = _screen_case(name, worked_case)
    v = special.base_image(omega, base)
    pairs = _block_residuals(omega, base, bound)
    residuals = np.array([r for _, r in pairs])
    accepted = np.unique(residuals[residuals <= 1e-9])
    rejected = np.unique(residuals[residuals > 1e-9])
    for tol in map(float, [*accepted[-4:], *accepted[accepted > 0][:2], *rejected[:3]]):
        candidates = set(map(tuple, special._plane_rows(omega, v, bound, tol).tolist()))
        assert {row for row, r in pairs if r <= tol} <= candidates
        records = search_solutions(omega, base, bound, tol)
        assert repr(records) == repr(_box_scan(omega, base, bound, tol))
        assert len(records) == np.count_nonzero(residuals <= tol)


def test_false_positives_keep_the_table(worked_case):
    # tol just above the smallest rejected residual 0.07219: the special records are
    # false positives whose area ratio (2.3377 for one) is not an integer; their degree
    # is read from the pairing, and cover_data's monodromy check rejects them
    omega, base = _screen_case("seeded-3", worked_case)
    records = search_solutions(omega, base, 2, 0.0722)
    specials = [r for r in records if r.classification == "special-complex"]
    assert len(records) == 12 and specials
    for record in specials:
        assert record.degree == 2
        with pytest.raises(LatticeDefect):
            special.cover_data(omega, base, record)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e300, 1e307])
def test_screen_on_huge_entries(monkeypatch, scale):
    # the plane is enumerated while 4 bound mag is finite, and the box scanned beyond
    monkeypatch.setattr(siegel, "BLOCK_ROWS", 125)
    omega = validate_period_matrix(random_siegel_point(3, 0).entries * scale)
    base = LatticeCharge((1, -1, -1), (0, -1, 0))
    v = special.base_image(omega, base)
    assert (special._plane_rows(omega, v, 2, 1e-9) is None) == (scale > 1e306)
    outcome = _outcome(search_solutions, omega, base, 2, 1e-9)
    assert outcome == _outcome(_box_scan, omega, base, 2, 1e-9)
    # only a lambda_c past the float range is an error: lambda_dual = 2 A' / |c|^2 stays finite
    assert outcome.startswith("DomainError") == (scale > 1e305)


@st.composite
def _oracle_cases(draw):
    h = draw(st.integers(1, 4))
    if h == 2 and draw(st.booleans()):
        omega, base = _screen_case("tied-%d" % draw(st.integers(0, len(TIED) - 1)), None)
    else:
        seed = draw(st.integers(0, 10**6))
        omega, base = random_siegel_point(h, seed), _unit_base(h, seed)
    return omega, base, draw(st.integers(1, 3)), draw(st.sampled_from([1e-9, 5e-2]))


@settings(max_examples=30, deadline=None)
@given(case=_oracle_cases())
def test_search_equals_the_box_scan(case):
    omega, base, bound, tol = case
    outcome = _outcome(search_solutions, omega, base, bound, tol)
    assert outcome == _outcome(_box_scan, omega, base, bound, tol)
    if not outcome.startswith("["):
        return
    # the area ratio certifies the degree of every special record whose cover passes
    for record in search_solutions(omega, base, bound, tol):
        if record.classification != "special-complex":
            continue
        try:
            raw = special.cover_data(omega, base, record).degree_raw
        except LatticeDefect:
            continue
        assert abs(raw - record.degree) <= 1e-8 * record.degree


@pytest.mark.parametrize("h,seed", [(2, 2), (3, 7)])
def test_plane_with_columns_of_unlike_scale(h, seed):
    # the n columns of K grow with |Omega| and the m columns do not; on the raw
    # columns the largest smallest singular value picked a singular K_d here
    omega = validate_period_matrix(random_siegel_point(h, seed).entries * 1e100)
    base = _unit_base(h, seed)
    assert special._plane_rows(omega, special.base_image(omega, base), 2, 1e-9) is not None
    assert _outcome(search_solutions, omega, base, 2, 1e-9) == _outcome(_box_scan, omega, base, 2, 1e-9)
