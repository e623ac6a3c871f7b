"""The search streams its free pairs in fixed-size chunks; outputs do not depend on them."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_cli
from specialperiods import (
    Genus2Params,
    LatticeCharge,
    build_special_genus2,
    gamma_members,
    random_siegel_point,
    search_solutions,
    special,
)
from specialperiods.errors import DomainError, LatticeDefect, SpecialPeriodsError
from specialperiods.matrixio import write_period_matrix
from specialperiods.pairings import area, real_products
from specialperiods.report import positivity_sweep
from specialperiods.siegel import charge_box, validate_period_matrix
from test_record_path import _unit_base

CHUNK_SIZES = (1, 7, 121, special._CHUNK_ROWS)
# rows per chunk of the oracles' own box stream
BOX_CHUNK = 1 << 14


def _box_chunks(dim, bound, rows=BOX_CHUNK):
    """The box [-bound, bound]^dim in lexicographic order, in chunks of ``rows`` rows.

    The oracles below scan the whole box through this stream; the search never does.
    """
    width = 2 * bound + 1
    for start in range(0, width**dim, rows):
        flat = np.arange(start, min(start + rows, width**dim))
        yield np.stack(np.unravel_index(flat, (width,) * dim), axis=1) - bound


def _full_box_sweep(omega, bound, rows=BOX_CHUNK):
    """The positivity sweep over the whole box, as the reference.

    It evaluates ``real_products``, whose rounding is the sweep's: an einsum of
    the same form sums in another order and can differ in the last bit.
    """
    h = omega.genus
    values = []
    for chunk in _box_chunks(2 * h, bound, rows):
        n_part, m_part = chunk[:, :h].astype(float), chunk[:, h:].astype(float)
        values.append(real_products(omega, n_part, m_part, n_part, m_part))
    values = np.concatenate(values)
    zero = len(values) // 2
    return float(np.delete(values, zero).min()), float(values[zero])


def test_charge_box_shapes():
    assert charge_box(0, 3).shape == (1, 0)
    box = charge_box(3, 2)
    assert box.shape == (125, 3)
    assert [tuple(r) for r in box] == sorted(tuple(r) for r in box)
    assert not box[len(box) // 2].any()
    assert np.count_nonzero(~box.any(axis=1)) == 1


@pytest.mark.parametrize("chunk", CHUNK_SIZES + (2, 25, 26))
@pytest.mark.parametrize("dim,bound", [(1, 1), (2, 3), (4, 2), (6, 1), (3, 5)])
def test_blocks_concatenate_to_the_box(monkeypatch, chunk, dim, bound):
    # the search's free pairs, and the oracles' box of any dimension, in full chunks but the last
    monkeypatch.setattr(special, "_CHUNK_ROWS", chunk)
    streams = [(special._free_pairs(bound), charge_box(2, bound)), (_box_chunks(dim, bound, chunk), charge_box(dim, bound))]
    for chunks, box in streams:
        chunks = list(chunks)
        assert [len(rows) for rows in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= chunk
        np.testing.assert_array_equal(np.concatenate(chunks), box)


def test_free_pairs_at_the_largest_bound():
    # a chunk holds _CHUNK_ROWS free pairs at any bound, not a row of 2 bound + 1 pairs
    bound = 2**52
    first = next(special._free_pairs(bound))
    expected = np.column_stack([np.full(special._CHUNK_ROWS, -bound), np.arange(special._CHUNK_ROWS) - bound])
    np.testing.assert_array_equal(first, expected)


def test_single_chunk_and_the_zero_chunk_drop_one_row(monkeypatch, worked_case):
    # genus 1 at bound 3: the 49 free pairs fit in one chunk
    omega, base = random_siegel_point(1, 0), LatticeCharge((1,), (0,))
    [rows] = special._free_pairs(3)
    np.testing.assert_array_equal(rows, charge_box(2, 3))
    # genus one has no dependent coordinate, so every box row is a candidate
    plane = special._plane_rows(omega, special.base_image(omega, base), 3, 1e-9)
    np.testing.assert_array_equal(plane, charge_box(2, 3))
    assert len(search_solutions(omega, base, 3, 1e-9)) == 49 - 1
    # genus 2 at bound 2 in chunks of 5 free pairs: only the middle chunk holds zero
    monkeypatch.setattr(special, "_CHUNK_ROWS", 5)
    _, omega, base = worked_case
    assert len(search_solutions(omega, base, 2, 1e-9)) == 14
    chunks = list(special._free_pairs(2))
    assert len(chunks) == 5
    assert [i for i, rows in enumerate(chunks) if not rows.any(axis=1).all()] == [2]


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
    path = tmp_path / "omega.mat"
    write_period_matrix(path, omega)
    argv = ["search", str(path), "--base=%s;%s" % (",".join(map(str, base.n)), ",".join(map(str, base.m)))]
    argv += ["--bound", str(bound), "--tol", repr(tol)]
    reference = repr(list(search_solutions(omega, base, bound, tol)))
    code, table = run_cli(argv)
    assert code == 0 and len(table.splitlines()) > 1
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(special, "_CHUNK_ROWS", chunk)
        assert repr(list(search_solutions(omega, base, bound, tol))) == reference
        assert run_cli(argv) == (0, table)


def test_loose_tolerance_case_has_special_records(worked_case):
    omega, base = _case("loose", worked_case)
    records = search_solutions(omega, base, 3, 5e-2)
    assert {r.classification for r in records} >= {"collinear-rational", "special-complex"}


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("h,bound", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_positivity_sweep_matches_the_full_box(chunk, h, bound):
    # the sweep enumerates an ellipsoid and reads no chunk size; the reference is
    # evaluated in chunks of every size, so it does not depend on them either
    omega = random_siegel_point(h, 20 + bound)
    assert positivity_sweep(omega, bound) == _full_box_sweep(omega, bound, chunk)


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
    # bound 200 is a box of 2.6e10 rows; its 401^2 free pairs are streamed in chunks
    omega = random_siegel_point(2, 3)
    base = _unit_base(2, 3)
    for bound in (5, 12, 200):
        assert _search_peak_bytes(omega, base, bound) < 8 * 2**20


def _nonzero_chunks(dim, bound, rows=BOX_CHUNK):
    """The rows of every chunk of the box, without the zero row."""
    for chunk in _box_chunks(dim, bound, rows):
        yield chunk[chunk.any(axis=1)]


def _box_scan(omega, base, bound, tol, chunk=BOX_CHUNK):
    """The search over the whole box, as the oracle: every chunk goes through the kernel."""
    v, h = special.base_image(omega, base), omega.genus
    records = []
    for rows in _nonzero_chunks(2 * h, bound, chunk):
        cbars, residuals = special._scan_rows(omega, v, rows)
        for flat, cbar in zip(rows[residuals <= tol].tolist(), cbars[residuals <= tol].tolist()):
            probe = LatticeCharge(flat[:h], flat[h:])
            records.append(oracles._record(base, probe, cbar, tol, area(omega, base), area(omega, probe)))
    return records


def _outcome(search, omega, base, bound, tol):
    try:
        return repr(list(search(omega, base, bound, tol)))
    except SpecialPeriodsError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


TIED = [
    (1j, 0.5j, 1, 1, 0, 1, "+"),
    (1j, 0.25j, Fraction(3, 2), Fraction(1, 2), Fraction(1, 4), 4, "-"),
    (0.3 + 1.2j, 0.1 + 0.4j, 2, 1, 0, 1, "+"),
    (0.2 + 1.1j, -0.3 + 0.3j, Fraction(1, 2), 1, 0, 4, "+"),
]


def _plane_case(name, worked_case):
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


PLANE_CASES = (
    [("worked", 2, 1e-9, None), ("worked", 6, 1e-9, None), ("worked", 4, 5e-2, 121)]
    + [("seeded-%d" % h, bound, tol, None) for h, bound in ((2, 6), (3, 3), (4, 2)) for tol in (1e-9, 5e-2)]
    + [("tied-%d" % i, 4, 1e-9, 25) for i in range(len(TIED))]
    + [("bench-g3", 5, 1e-9, None)]
)


@pytest.mark.parametrize("name,bound,tol,chunk", PLANE_CASES)
def test_screened_search_equals_the_unscreened_one(monkeypatch, worked_case, name, bound, tol, chunk):
    # a chunk size, where given, applies to the search's free pairs and to the oracle's box
    if chunk is not None:
        monkeypatch.setattr(special, "_CHUNK_ROWS", chunk)
    omega, base = _plane_case(name, worked_case)
    records = search_solutions(omega, base, bound, tol)
    assert repr(list(records)) == repr(_box_scan(omega, base, bound, tol, chunk or BOX_CHUNK))
    assert records


def _chunk_residuals(omega, base, bound, chunk=BOX_CHUNK):
    """(row, kernel residual) of every nonzero box row, each computed within its own chunk."""
    v = special.base_image(omega, base)
    return [
        (tuple(row), r)
        for rows in _nonzero_chunks(2 * omega.genus, bound, chunk)
        for row, r in zip(rows.tolist(), special._scan_rows(omega, v, rows)[1])
    ]


@pytest.mark.parametrize("name,bound", [("worked", 4), ("seeded-3", 2), ("tied-2", 4), ("bench-g3", 3)])
def test_screen_at_the_tolerance_boundary(monkeypatch, worked_case, name, bound):
    # tol equal to a row's own kernel residual: the kernel accepts that row, so
    # the plane must yield it although the plane's bound rounds differently
    monkeypatch.setattr(special, "_CHUNK_ROWS", 125)
    omega, base = _plane_case(name, worked_case)
    v = special.base_image(omega, base)
    pairs = _chunk_residuals(omega, base, bound, 125)
    residuals = np.array([r for _, r in pairs])
    accepted = np.unique(residuals[residuals <= 1e-9])
    rejected = np.unique(residuals[residuals > 1e-9])
    for tol in map(float, [*accepted[-4:], *accepted[accepted > 0][:2], *rejected[:3]]):
        candidates = set(map(tuple, special._plane_rows(omega, v, bound, tol).tolist()))
        assert {row for row, r in pairs if r <= tol} <= candidates
        records = search_solutions(omega, base, bound, tol)
        assert repr(list(records)) == repr(_box_scan(omega, base, bound, tol, 125))
        assert len(records) == np.count_nonzero(residuals <= tol)


def test_false_positives_keep_the_table(worked_case):
    # tol just above the smallest rejected residual 0.07219: the special records are
    # false positives whose area ratio (2.3377 for one) is not an integer; their degree
    # is read from the pairing, and cover_data's monodromy check rejects them
    omega, base = _plane_case("seeded-3", worked_case)
    records = search_solutions(omega, base, 2, 0.0722)
    specials = [r for r in records if r.classification == "special-complex"]
    assert len(records) == 12 and specials
    for record in specials:
        assert record.degree == 2
        with pytest.raises(LatticeDefect):
            special.cover_data(omega, base, record)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e300, 1e307])
def test_plane_on_huge_entries(scale):
    # the plane is enumerated while 4 bound mag is finite; beyond, the search refuses
    omega = validate_period_matrix(random_siegel_point(3, 0).entries * scale)
    base = LatticeCharge((1, -1, -1), (0, -1, 0))
    outcome = _outcome(search_solutions, omega, base, 2, 1e-9)
    oracle = _outcome(_box_scan, omega, base, 2, 1e-9)
    if scale > 1e306:
        assert outcome.startswith("DomainError: Omega's entries are too large to bound")
        # the box scan's records there overflow as well
        assert oracle.startswith("DomainError: the record of probe")
    else:
        assert outcome == oracle
    # only a lambda_c past the float range is an error: lambda_dual = 2 A' / |c|^2 stays finite
    assert outcome.startswith("DomainError") == (scale > 1e305)


@st.composite
def _oracle_cases(draw):
    h = draw(st.integers(1, 4))
    if h == 2 and draw(st.booleans()):
        omega, base = _plane_case("tied-%d" % draw(st.integers(0, len(TIED) - 1)), None)
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


def test_plane_interval_ends_past_int64():
    # the dependent coordinates' interval ends reach about 1e19, past int64;
    # they are clipped to the box before the cast, which then cannot warn
    omega = validate_period_matrix([[1e19 + 1j, 0], [0, 1j]])
    base = LatticeCharge((0, 0), (1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = search_solutions(omega, base, 2, 1e-9)
    assert len(records) == 4
    assert repr(list(records)) == repr(_box_scan(omega, base, 2, 1e-9))


@pytest.mark.parametrize("h,seed", [(2, 2), (3, 7)])
def test_plane_with_columns_of_unlike_scale(h, seed):
    # the n columns of K grow with |Omega| and the m columns do not; on the raw
    # columns the largest smallest singular value picked a singular K_d here
    omega = validate_period_matrix(random_siegel_point(h, seed).entries * 1e100)
    base = _unit_base(h, seed)
    special._plane_rows(omega, special.base_image(omega, base), 2, 1e-9)  # no DomainError
    assert _outcome(search_solutions, omega, base, 2, 1e-9) == _outcome(_box_scan, omega, base, 2, 1e-9)


@pytest.mark.parametrize(
    "entries,base",
    [
        ([[1e200j, 0], [0, 1j]], LatticeCharge((1, 1), (1, 1))),
        ([[1e300 + 1j, 1e300], [1e300, 1e300 + 1j]], LatticeCharge((1, -1), (0, 0))),
    ],
)
def test_search_refuses_without_a_warning(entries, base):
    # the plane cannot bound its rounding here: a DomainError, and no overflow warning before it
    omega = validate_period_matrix(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="too large to bound"):
            search_solutions(omega, base, 2, 1e-9)
