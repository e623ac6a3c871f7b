import numpy as np
import pytest

from specialperiods import (
    CyclePair,
    LatticeCharge,
    PeriodMatrix,
    d_matrix,
    eta_bases,
    period_of,
    primitive_coeffs,
    random_siegel_point,
)
from specialperiods.differentials import (
    d_matrix_contraction_residual,
    eta_decomposition_residual,
    eta_period_residual,
    eta_row_identity_residual,
)

PI = np.pi


def _random_charge(rng, h, bound=5):
    return LatticeCharge(
        tuple(int(x) for x in rng.integers(-bound, bound + 1, size=h)),
        tuple(int(x) for x in rng.integers(-bound, bound + 1, size=h)),
    )


def test_coeffs_at_square_torus():
    omega = PeriodMatrix.from_tau(1j)
    assert primitive_coeffs(omega, LatticeCharge((0,), (1,)))[0] == pytest.approx(PI)
    assert primitive_coeffs(omega, LatticeCharge((1,), (0,)))[0] == pytest.approx(1j * PI)


def test_zero_charge_is_degenerate():
    omega = random_siegel_point(2, seed=4)
    coeffs = primitive_coeffs(omega, LatticeCharge((0, 0), (0, 0)))
    assert np.all(coeffs == 0)


def test_imag_part_is_pi_n_exactly():
    rng = np.random.default_rng(0)
    for h in (1, 2, 3):
        omega = random_siegel_point(h, seed=h)
        for _ in range(20):
            charge = _random_charge(rng, h)
            coeffs = primitive_coeffs(omega, charge)
            assert np.array_equal(coeffs.imag, PI * charge.n_vec)
            assert np.array_equal(coeffs, coeffs.real + 1j * coeffs.imag)


def test_d_matrix_examples():
    omega = PeriodMatrix.from_tau(1j)
    assert d_matrix(omega, LatticeCharge((0,), (1,)))[0, 0] == 1
    assert d_matrix(omega, LatticeCharge((1,), (0,)))[0, 0] == 1j
    zero = d_matrix(omega, LatticeCharge((0,), (0,)))
    assert np.all(zero == 0)


def test_d_matrix_contraction():
    rng = np.random.default_rng(1)
    for h in (1, 2, 4):
        omega = random_siegel_point(h, seed=10 + h)
        for _ in range(10):
            charge = _random_charge(rng, h)
            assert d_matrix_contraction_residual(omega, charge) < 1e-12


def test_eta_bases_examples():
    omega = PeriodMatrix.from_tau(1j)
    eta1, eta2 = eta_bases(omega)
    assert eta1[0, 0] == pytest.approx(PI)
    assert eta2[0, 0] == pytest.approx(1j * PI)
    omega = PeriodMatrix.from_tau(1 + 1j)
    eta1, eta2 = eta_bases(omega)
    assert eta1[0, 0] == pytest.approx(PI)
    assert eta2[0, 0] == pytest.approx(PI * (1j - 1))


def test_unit_charge_reconstructs_eta1_row():
    omega = random_siegel_point(3, seed=2)
    eta1, _ = eta_bases(omega)
    unit = LatticeCharge((0, 0, 0), (1, 0, 0))
    coeffs = primitive_coeffs(omega, unit)
    assert np.max(np.abs(coeffs - eta1[0])) < 1e-12


def test_eta_identities():
    for h in (1, 2, 3):
        omega = random_siegel_point(h, seed=20 + h)
        assert eta_row_identity_residual(omega) < 1e-12
        assert eta_period_residual(omega) < 1e-10


def test_eta_decomposition_over_random_data():
    rng = np.random.default_rng(3)
    for trial in range(100):
        h = int(rng.integers(1, 4))
        omega = random_siegel_point(h, seed=trial)
        charge = _random_charge(rng, h)
        assert eta_decomposition_residual(omega, charge) < 1e-12


def test_period_normalization():
    omega = random_siegel_point(3, seed=9)
    h = omega.genus
    eye = np.eye(h, dtype=int)
    coeffs = np.array([0.3 - 0.2j, 1.5j, -2.0 + 0j])
    for k in range(h):
        alpha = CyclePair(q=(0,) * h, p=tuple(eye[k]))
        beta = CyclePair(q=tuple(eye[k]), p=(0,) * h)
        # alpha periods pick out the coefficient exactly
        assert period_of(omega, coeffs, alpha) == coeffs[k]
        expected = sum(coeffs[j] * omega.entries[k, j] for j in range(h))
        assert period_of(omega, coeffs, beta) == pytest.approx(expected)


def test_period_example_square_torus():
    omega = PeriodMatrix.from_tau(1j)
    value = period_of(omega, [PI], CyclePair(q=(1,), p=(0,)))
    assert value == pytest.approx(1j * PI)


def test_alpha_period_returns_coefficient_exactly():
    rng = np.random.default_rng(8)
    omega = random_siegel_point(2, seed=12)
    charge = _random_charge(rng, 2)
    coeffs = primitive_coeffs(omega, charge)
    for k in range(2):
        unit = tuple(int(x) for x in np.eye(2, dtype=int)[k])
        cycle = CyclePair(q=(0, 0), p=unit)
        assert period_of(omega, coeffs, cycle) == coeffs[k]


def test_period_imaginary_parts_on_pi_lattice():
    rng = np.random.default_rng(6)
    for _ in range(200):
        h = int(rng.integers(1, 4))
        omega = random_siegel_point(h, seed=int(rng.integers(0, 50)))
        charge = _random_charge(rng, h)
        cycle_charge = _random_charge(rng, h)
        cycle = CyclePair(cycle_charge.n, cycle_charge.m)
        value = period_of(omega, primitive_coeffs(omega, charge), cycle)
        nearest = round(value.imag / PI)
        assert abs(value.imag - nearest * PI) < 1e-10
