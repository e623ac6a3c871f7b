"""The charge box is streamed in fixed-size blocks; outputs do not depend on them."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

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
from specialperiods.errors import DomainError
from specialperiods.matrixio import write_period_matrix
from specialperiods.report import positivity_sweep
from specialperiods.siegel import box_block, box_blocks, charge_box, validate_period_matrix
from test_record_path import _unit_base

BLOCK_SIZES = (1, 7, 121, siegel.BLOCK_ROWS)


def _streamed(dim, bound):
    prefixes, tail = box_blocks(dim, bound)
    return [box_block(prefix, tail) for prefix in prefixes]


def _full_box_sweep(omega, bound):
    """The positivity sweep over the whole box at once, as the reference."""
    h = omega.genus
    flat = charge_box(2 * h, bound)
    n_part = flat[:, :h].astype(float)
    m_part = flat[:, h:].astype(float)
    left = m_part - n_part @ omega.real_part
    values = np.pi * (
        np.einsum("ij,jk,ik->i", left, omega.imag_inverse, left)
        + np.einsum("ij,jk,ik->i", n_part, omega.imag_part, n_part)
    )
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
    tail_rows = len(blocks[0][0])
    assert tail_rows <= max(block_rows, width)
    assert tail_rows * width > block_rows or tail_rows == width**dim
    np.testing.assert_array_equal(np.concatenate([rows for rows, _ in blocks]), charge_box(dim, bound))
    zeros = [(i, zero) for i, (_, zero) in enumerate(blocks) if zero is not None]
    assert zeros == [(len(blocks) // 2, tail_rows // 2)]
    rows, zero = blocks[len(blocks) // 2]
    assert not rows[zero].any()


def test_single_block_and_zero_prefix_block_drop_one_row(monkeypatch, worked_case):
    # genus 1 at bound 3: 49 rows fit in one block, whose prefix is empty
    omega = random_siegel_point(1, 0)
    prefixes, tail = box_blocks(2, 3)
    assert list(prefixes) == [()]
    assert len(search_solutions(omega, LatticeCharge((1,), (0,)), 3, 1e-9)) == 49 - 1
    # genus 2 at bound 2 in blocks of 5 rows: only the middle block holds zero
    monkeypatch.setattr(siegel, "BLOCK_ROWS", 5)
    _, omega, base = worked_case
    assert len(search_solutions(omega, base, 2, 1e-9)) == 14
    blocks = _streamed(4, 2)
    with_zero = [(rows, zero) for rows, zero in blocks if zero is not None]
    assert len(blocks) == 125 and len(with_zero) == 1
    rows, zero = with_zero[0]
    assert len(np.delete(rows, zero, axis=0)) == len(rows) - 1
    assert np.all(np.delete(rows, zero, axis=0).any(axis=1))


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
def test_records_and_tables_independent_of_blocks_and_threads(
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
    omega = random_siegel_point(h, 20 + bound)
    reference = _full_box_sweep(omega, bound)
    monkeypatch.setattr(siegel, "BLOCK_ROWS", block_rows)
    assert positivity_sweep(omega, bound) == reference


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
    omega = random_siegel_point(2, 3)
    base = _unit_base(2, 3)
    # bound 5 is one block of 14,641 rows; bound 12 is 25 blocks of 15,625
    small = _search_peak_bytes(omega, base, 5)
    large = _search_peak_bytes(omega, base, 12)
    assert large < 2 * small
    assert large < 8 * 2**20


def _nonzero_blocks(dim, bound):
    """(prefix, rows) of every block of the box, without the zero row."""
    prefixes, tail = box_blocks(dim, bound)
    for prefix in prefixes:
        rows, zero = box_block(prefix, tail)
        yield prefix, rows if zero is None else np.delete(rows, zero, axis=0)


def _unscreened(omega, base, bound, tol):
    """The search with no block screen, as the oracle: every block goes through the kernel."""
    v, h = special.base_image(omega, base), omega.genus
    records = []
    for _, rows in _nonzero_blocks(2 * h, bound):
        for flat, cbar in special._accepted(omega, v, rows, tol):
            records.append(special._record(omega, base, LatticeCharge(flat[:h], flat[h:]), cbar, tol))
    return records


def _outcome(search, omega, base, bound, tol):
    try:
        return repr(search(omega, base, bound, tol))
    except DomainError as exc:
        return "DomainError: %s" % exc


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
    assert repr(records) == repr(_unscreened(omega, base, bound, tol))
    assert records


def _passing_prefixes(omega, base, bound, tol):
    v = special.base_image(omega, base)
    prefixes, tail = box_blocks(2 * omega.genus, bound)
    may_hold = special._block_screen(omega, v, bound, tol, tail)
    return None if may_hold is None else [p for p in prefixes if may_hold(p)], tail.shape[1]


@pytest.mark.parametrize("name", ["seeded-2", "seeded-3", "seeded-4", "bench-g3", "tied-0"])
def test_screen_passes_only_blocks_with_records(monkeypatch, worked_case, name):
    monkeypatch.setattr(siegel, "BLOCK_ROWS", 125)
    omega, base = _screen_case(name, worked_case)
    passing, k = _passing_prefixes(omega, base, 2, 1e-9)
    flats = [r.probe.n + r.probe.m for r in search_solutions(omega, base, 2, 1e-9)]
    assert passing == sorted({flat[: len(flat) - k] for flat in flats})


def test_genus_one_is_not_screened():
    omega = random_siegel_point(1, 0)
    assert _passing_prefixes(omega, LatticeCharge((1,), (0,)), 3, 1e-9)[0] is None


def _block_residuals(omega, base, bound):
    """(prefix, kernel residual) of every nonzero box row, each computed within its own block."""
    v = special.base_image(omega, base)
    return [
        (prefix, r)
        for prefix, rows in _nonzero_blocks(2 * omega.genus, bound)
        for r in special._scan_rows(omega, v, rows)[1]
    ]


@pytest.mark.parametrize("name,bound", [("worked", 4), ("seeded-3", 2), ("tied-2", 4), ("bench-g3", 3)])
def test_screen_at_the_tolerance_boundary(monkeypatch, worked_case, name, bound):
    # tol equal to a row's own kernel residual: the kernel accepts that row, so
    # the screen must pass its block although the screen's defect rounds differently
    monkeypatch.setattr(siegel, "BLOCK_ROWS", 125)
    omega, base = _screen_case(name, worked_case)
    pairs = _block_residuals(omega, base, bound)
    residuals = np.array([r for _, r in pairs])
    accepted = np.unique(residuals[residuals <= 1e-9])
    rejected = np.unique(residuals[residuals > 1e-9])
    for tol in map(float, [*accepted[-4:], *accepted[accepted > 0][:2], *rejected[:3]]):
        passing, _ = _passing_prefixes(omega, base, bound, tol)
        assert {prefix for prefix, r in pairs if r <= tol} <= set(passing)
        if tol <= 1e-9:
            # beyond it false positives may fail cover_degree (ROADMAP item 3)
            records = search_solutions(omega, base, bound, tol)
            assert repr(records) == repr(_unscreened(omega, base, bound, tol))
            assert len(records) == np.count_nonzero(residuals <= tol)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e300, 1e307])
def test_screen_on_huge_entries(monkeypatch, scale):
    # the screen stays on while 4 bound mag is finite, and switches off beyond
    monkeypatch.setattr(siegel, "BLOCK_ROWS", 125)
    omega = validate_period_matrix(random_siegel_point(3, 0).entries * scale)
    base = LatticeCharge((1, -1, -1), (0, -1, 0))
    assert (_passing_prefixes(omega, base, 2, 1e-9)[0] is None) == (scale > 1e306)
    outcome = _outcome(search_solutions, omega, base, 2, 1e-9)
    assert outcome == _outcome(_unscreened, omega, base, 2, 1e-9)
    assert outcome.startswith("DomainError") == (scale > 1e154)
