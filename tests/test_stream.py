"""The charge box is streamed in fixed-size blocks; outputs do not depend on them."""

import tracemalloc

import numpy as np
import pytest

from conftest import run_cli
from specialperiods import LatticeCharge, random_siegel_point, search_solutions, siegel
from specialperiods.matrixio import write_period_matrix
from specialperiods.report import positivity_sweep
from specialperiods.siegel import box_block, box_blocks, charge_box
from test_record_path import _unit_base

BLOCK_SIZES = (1, 7, 121, siegel.BLOCK_ROWS)
THREADS = (1, 2, 8)


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
    code, table = run_cli(argv + ["--threads", "1"])
    assert code == 0 and len(table.splitlines()) > 1
    for block_rows in block_sizes:
        monkeypatch.setattr(siegel, "BLOCK_ROWS", block_rows)
        for threads in THREADS:
            assert repr(search_solutions(omega, base, bound, tol, threads=threads)) == reference
            assert run_cli(argv + ["--threads", str(threads)]) == (0, table)


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
        search_solutions(omega, base, bound, 1e-9, threads=1)
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
