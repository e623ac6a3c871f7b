import math

import numpy as np
import pytest

from specialperiods import (
    CyclePair,
    DomainError,
    LatticeCharge,
    PeriodMatrix,
    fd_eigen_residual,
    sample_eigenfunction,
    spectrum_table,
    torus_eigenvalue,
)

from oracles import (
    ModularMatrix,
    dedekind_eta,
    grid_inner_product,
    modular_transform_tau,
    mu_covariance_residual,
    random_modular_matrix,
    real_product,
    wraparound_residual,
)

PI = np.pi


def test_eigenvalue_examples():
    assert torus_eigenvalue(1j, 1, 0).lam == pytest.approx(2 * PI**2)
    assert torus_eigenvalue(1j, 1, 1).lam == pytest.approx(4 * PI**2)
    assert torus_eigenvalue(1j, 0, 0).lam == 0
    with pytest.raises(DomainError):
        torus_eigenvalue(1 - 0.5j, 1, 0)


def test_entry_relations():
    entry = torus_eigenvalue(0.3 + 1.2j, 2, -1)
    assert entry.lam == pytest.approx(2 * abs(entry.c) ** 2)
    assert entry.mu == pytest.approx(1.2 * entry.lam)


def test_eigenvalue_via_real_product():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.5))
        n, m = (int(x) for x in rng.integers(-5, 6, size=2))
        lam = torus_eigenvalue(tau, n, m).lam
        omega = PeriodMatrix.from_tau(tau)
        pairing = real_product(omega, LatticeCharge((n,), (m,)), CyclePair((n,), (m,)))
        assert abs(lam - 2 * PI * pairing / tau.imag) < 1e-10


def test_mu_covariance_examples():
    ident = ModularMatrix.identity()
    assert mu_covariance_residual(0.7 + 1.1j, ident, 2, 3) == 0
    shift = ModularMatrix.translation()
    assert mu_covariance_residual(1j, shift, 1, 1) < 1e-10
    inversion = ModularMatrix.inversion()
    assert mu_covariance_residual(2j, inversion, 0, 1) < 1e-10


def test_shift_relation_both_sides():
    # the two sides evaluated independently: lambda(tau + 1) at (n, m)
    # equals lambda(tau) at (n, m - n)
    tau = 0.37 + 0.81j
    for n, m in [(1, 1), (2, -3), (0, 4)]:
        lhs = torus_eigenvalue(tau + 1, n, m).lam
        rhs = torus_eigenvalue(tau, n, m - n).lam
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_inversion_relation_both_sides():
    tau = 0.4 + 1.3j
    for n, m in [(1, 0), (1, 2), (-2, 3)]:
        lhs = torus_eigenvalue(-1 / tau, n, m).lam
        rhs = abs(tau) ** 2 * torus_eigenvalue(tau, -m, n).lam
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mu_covariance_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        gamma = random_modular_matrix(rng)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
        n, m = (int(x) for x in rng.integers(-5, 6, size=2))
        assert mu_covariance_residual(tau, gamma, n, m) < 1e-10


def test_sample_eigenfunction_values():
    samples = sample_eigenfunction(1j, 0, 0, 8)
    assert samples.shape == (8, 8) and np.all(samples == 1)
    samples = sample_eigenfunction(1j, 0, 1, 8)
    # h = exp(2 pi i y) on the square torus
    assert samples[2, 0] == pytest.approx(1.0)  # (x, y) = (0.25, 0)
    assert samples[0, 2] == pytest.approx(1j)  # (x, y) = (0, 0.25)
    with pytest.raises(ValueError):
        sample_eigenfunction(1j, 0, 1, 4)


def test_grid_orthonormality():
    f = sample_eigenfunction(1j, 0, 1, 64)
    g = sample_eigenfunction(1j, 1, 0, 64)
    assert abs(grid_inner_product(f, g)) < 1e-10
    assert grid_inner_product(f, f) == pytest.approx(1.0, abs=1e-12)


def test_grid_inner_product_needs_one_resolution():
    f = sample_eigenfunction(1j, 0, 1, 64)
    g = sample_eigenfunction(1j, 0, 1, 32)
    with pytest.raises(ValueError, match="share a resolution"):
        grid_inner_product(f, g)


def test_wraparound_is_tiny():
    for tau in (1j, 0.5 + 1j, -0.3 + 0.8j):
        for n, m in [(0, 1), (2, -1), (3, 3)]:
            assert wraparound_residual(tau, n, m, 32) < 1e-12


def test_fd_residual_examples():
    lam, residual = fd_eigen_residual(1j, 0, 1, 64)
    assert lam == pytest.approx(2 * PI**2)
    assert residual < 5e-3
    lam, residual = fd_eigen_residual(1j, 1, 1, 128)
    assert lam == pytest.approx(4 * PI**2)
    assert residual < 5e-3
    assert fd_eigen_residual(1j, 0, 0, 64) == (0.0, 0.0)


def test_fd_second_order_convergence():
    for tau in (1j, 0.5 + 1j):
        _, coarse = fd_eigen_residual(tau, 1, 1, 32)
        _, fine = fd_eigen_residual(tau, 1, 1, 64)
        assert coarse / fine > 3.5


def test_dedekind_eta_against_closed_form():
    # |eta(i)| has the closed form Gamma(1/4) / (2 pi^{3/4})
    expected = math.gamma(0.25) / (2 * PI ** 0.75)
    assert abs(dedekind_eta(1j)) == pytest.approx(expected, abs=1e-14)
    assert abs(abs(dedekind_eta(1j)) - abs(dedekind_eta(1 + 1j))) < 1e-12
    tau = 8j
    assert abs(dedekind_eta(tau)) == pytest.approx(math.exp(-PI * 8 / 12), rel=1e-9)
    with pytest.raises(DomainError):
        dedekind_eta(1 - 1j)
    with pytest.raises(ValueError):
        dedekind_eta(1j, terms=0)


def test_scaled_eta_fourth_power_is_modular_invariant():
    rng = np.random.default_rng(23)
    accepted = 0
    while accepted < 100:
        gamma = random_modular_matrix(rng)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.8))
        moved = modular_transform_tau(gamma, tau)
        if moved.imag < 0.3:
            # both points must sit where the truncated product is accurate
            continue
        accepted += 1
        lhs = tau.imag * abs(dedekind_eta(tau)) ** 4
        rhs = moved.imag * abs(dedekind_eta(moved)) ** 4
        assert abs(lhs - rhs) / lhs < 1e-8


def test_spectrum_table_ordering():
    entries = spectrum_table(1j, 2)
    norms = [e.charge[0] ** 2 + e.charge[1] ** 2 for e in entries]
    assert norms == sorted(norms)
    assert entries[0].charge == (0, 0) and entries[0].lam == 0
    keys = [(e.charge[0] ** 2 + e.charge[1] ** 2, e.charge[0], e.charge[1]) for e in entries]
    assert keys == sorted(keys)


@pytest.mark.parametrize("tau", [complex(0, math.inf), complex(math.nan, 1), complex(math.inf, 1), -1j, 0j])
def test_modulus_must_be_finite_in_upper_half_plane(tau):
    for call in (
        lambda: torus_eigenvalue(tau, 1, 0),
        lambda: sample_eigenfunction(tau, 1, 0, 16),
        lambda: fd_eigen_residual(tau, 0, 0, 16),
        lambda: dedekind_eta(tau),
        lambda: modular_transform_tau(ModularMatrix.identity(), tau),
    ):
        with pytest.raises(DomainError, match="finite with positive imaginary part"):
            call()
