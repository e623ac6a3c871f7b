"""The batched identity suite against a per-charge loop over the reference residuals."""

import numpy as np
import pytest

from specialperiods import differentials
from specialperiods.pairings import integer_pairings
from specialperiods.report import draw_trials, run_identity_suite
from specialperiods.siegel import (
    CyclePair, LatticeCharge, PeriodMatrix, random_siegel_point, validate_period_matrix
)

import oracles

NAMES = [
    "herm-vs-period",
    "herm-imag-integrality",
    "herm-conjugation-shift",
    "herm-basis-factorization",
    "real-product-symmetry",
    "herm-vs-real-product",
    "self-pairing-real",
    "real-product-coefficient-form",
    "wedge-vs-herm",
    "wedge-order-defect",
    "wedge-imag-antisymmetry",
    "coeffs-eta-decomposition",
    "duality-fixes-coefficients",
    "winding-area-exponent",
    "area-vs-real-product",
    "eta-period-normalization",
    "eta-row-identity",
]


def _sequential_draws(rng, trials, h, bound):
    """n, m, q, p of length h drawn per trial in turn."""
    return [
        [rng.integers(-bound, bound + 1, size=h) for _ in range(4)] for _ in range(trials)
    ]


def _reference_suite(omega, trials, seed, charge_bound):
    """Worst residual per identity from the per-charge oracles, one trial at a time."""
    worst = {}

    def record(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    rng = np.random.default_rng(seed)
    for n, m, q, p in _sequential_draws(rng, trials, omega.genus, charge_bound):
        nm, qp_charge, cycle = LatticeCharge(n, m), LatticeCharge(q, p), CyclePair(q, p)
        record("herm-vs-period", oracles.herm_period_residual(omega, nm, cycle))
        record("herm-imag-integrality", oracles.imag_integrality_residual(omega, nm, cycle))
        record("herm-conjugation-shift", oracles.conjugation_residual(omega, nm, cycle))
        record("herm-basis-factorization", oracles.factorization_residual(omega, nm, cycle))
        record("real-product-symmetry", oracles.real_symmetry_residual(omega, nm, cycle))
        record("herm-vs-real-product", oracles.herm_real_link_residual(omega, nm, cycle))
        record("self-pairing-real", oracles.self_pairing_residual(omega, nm))
        record("real-product-coefficient-form", oracles.coeff_form_residual(omega, nm, cycle))
        record("wedge-vs-herm", oracles.wedge_herm_residual(omega, nm, qp_charge))
        record("wedge-order-defect", oracles.wedge_swap_residual(omega, nm, qp_charge))
        record("wedge-imag-antisymmetry", oracles.wedge_imag_swap_residual(omega, nm, qp_charge))
        record("coeffs-eta-decomposition", oracles.eta_decomposition_residual(omega, nm))
        record("duality-fixes-coefficients", oracles.duality_canonical_residual(omega, nm))
        if not nm.is_zero:
            record("winding-area-exponent", oracles.winding_area_residual(omega, nm))
            record("area-vs-real-product", oracles.area_real_product_residual(omega, nm))
    record("eta-period-normalization", differentials.eta_period_residual(omega))
    record("eta-row-identity", differentials.eta_row_identity_residual(omega))
    return worst


def _unvalidated(omega, scale_inverse=1.0, upper_shift=0.0):
    """Copy of a valid matrix corrupted without passing validation."""
    entries = omega.entries + upper_shift * np.triu(np.ones((omega.genus, omega.genus)), 1)
    return PeriodMatrix(entries=entries, imag_inverse=scale_inverse * omega.imag_inverse)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("bound", [0, 1, 5, 20])
@pytest.mark.parametrize("seed", [0, 1, 100])
def test_batched_draw_matches_sequential_draws(h, bound, seed):
    n, m, q, p = draw_trials(np.random.default_rng(seed), 30, h, bound)
    expected = np.array(_sequential_draws(np.random.default_rng(seed), 30, h, bound))
    for k, batch in enumerate((n, m, q, p)):
        assert batch.shape == (30, h)
        assert np.array_equal(batch, expected[:, k])


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_every_identity_passes_on_valid_matrices(h, worked_case):
    omegas = [random_siegel_point(h, seed=h), random_siegel_point(h, seed=10 + h)]
    if h == 2:
        omegas.append(worked_case[1])
    for omega in omegas:
        worst = run_identity_suite(omega, trials=300, seed=h, charge_bound=5)
        assert list(worst) == NAMES
        for name, value in worst.items():
            assert value <= 1e-9, (name, value)


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize(
    "scale_inverse, upper_shift, failing",
    [(1.01, 0.0, 12), (1.0, 0.01, 8), (1.01, 0.01, 14)],
    ids=["imag-inverse", "upper-triangle", "both"],
)
def test_batched_suite_fails_exactly_like_reference(h, scale_inverse, upper_shift, failing):
    omega = _unvalidated(random_siegel_point(h, seed=h), scale_inverse, upper_shift)
    batched = run_identity_suite(omega, trials=40, seed=5, charge_bound=5)
    reference = _reference_suite(omega, trials=40, seed=5, charge_bound=5)
    assert list(batched) == list(reference) == NAMES
    failed = {name for name, value in batched.items() if not value <= 1e-9}
    assert failed == {name for name, value in reference.items() if not value <= 1e-9}
    assert len(failed) == failing
    for name in failed:
        assert batched[name] == pytest.approx(reference[name], rel=1e-9)
    for name in set(NAMES) - failed:
        assert reference[name] <= 1e-9


def test_nan_entry_fails_every_identity():
    valid = random_siegel_point(3, seed=3)
    entries = np.array(valid.entries)
    entries[0, 1] = np.nan
    omega = PeriodMatrix(entries=entries, imag_inverse=np.array(valid.imag_inverse))
    worst = run_identity_suite(omega, trials=20, seed=0)
    assert list(worst) == NAMES
    for name, value in worst.items():
        assert np.isnan(value), name
        assert not value <= 1e-9
    assert np.isnan(differentials.eta_period_residual(omega))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the other identities overflow at 5e307
@pytest.mark.parametrize(
    "entries",
    [random_siegel_point(3, seed=3).entries * 1e-150, np.array([[5e307j]])],
    ids=["tiny", "huge"],
)
def test_duality_row_at_extreme_scales(entries):
    # pi (Im Omega)^-1 reaches 1e150 in the tiny matrix, and n Im(Omega) overflows in
    # the huge one; d2 still equals the coefficients to rounding, relative to their size
    omega = validate_period_matrix(entries)
    worst = run_identity_suite(omega, trials=50, seed=3)
    assert list(worst) == NAMES
    assert worst["duality-fixes-coefficients"] <= 1e-14 * np.abs(omega.imag_inverse).max() + 1e-300


def test_zero_bound_reports_no_area_rows():
    # every drawn charge is zero, which has no metric
    worst = run_identity_suite(random_siegel_point(2, seed=2), trials=5, charge_bound=0)
    assert list(worst) == [n for n in NAMES if n not in ("winding-area-exponent", "area-vs-real-product")]
    assert all(value <= 1e-9 for value in worst.values())


def test_suite_rejects_empty_batches():
    omega = random_siegel_point(1, seed=1)
    with pytest.raises(ValueError, match="trials"):
        run_identity_suite(omega, trials=0)
    with pytest.raises(ValueError, match="charge bound"):
        run_identity_suite(omega, charge_bound=-1)


@pytest.mark.parametrize("h,limit", [(1, 2147483647), (2, 1518500249), (3, 1239850262)])
def test_charge_bound_keeps_the_pairings_in_int64(h, limit):
    extreme = np.full((1, h), limit, dtype=np.int64)
    assert int(integer_pairings(extreme, extreme, extreme, extreme)[0]) == 2 * h * limit**2
    assert 2 * h * (limit + 1) ** 2 > np.iinfo(np.int64).max
    omega = random_siegel_point(h, seed=1)
    with pytest.raises(ValueError, match="between 0 and %d at genus %d" % (limit, h)):
        run_identity_suite(omega, trials=1, charge_bound=limit + 1)
    assert "herm-imag-integrality" in run_identity_suite(omega, trials=1, charge_bound=limit)
