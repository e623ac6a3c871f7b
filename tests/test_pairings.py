import math
import warnings

import numpy as np
import pytest

from specialperiods import (
    CyclePair,
    DegenerateCharge,
    LatticeCharge,
    PeriodMatrix,
    area,
    herm_product,
    primitive_coeffs,
    random_siegel_point,
    validate_period_matrix,
)
from specialperiods import pairings
from specialperiods.errors import DomainError

import oracles
from oracles import duality_coeffs, monodromy_factor, real_product, wedge_integral

PI = np.pi


def _random_charge(rng, h, bound=5):
    return LatticeCharge(
        tuple(int(x) for x in rng.integers(-bound, bound + 1, size=h)),
        tuple(int(x) for x in rng.integers(-bound, bound + 1, size=h)),
    )


def test_herm_product_examples():
    omega = PeriodMatrix.from_tau(1j)
    assert herm_product(omega, LatticeCharge((0,), (1,)), CyclePair((0,), (1,))) == pytest.approx(PI)
    value = herm_product(omega, LatticeCharge((0,), (1,)), CyclePair((1,), (0,)))
    assert value == pytest.approx(1j * PI)
    assert herm_product(omega, LatticeCharge((0,), (0,)), CyclePair((3,), (-2,))) == 0


def test_real_product_examples():
    omega = PeriodMatrix.from_tau(1j)
    assert real_product(omega, LatticeCharge((0,), (1,)), CyclePair((0,), (1,))) == pytest.approx(PI)
    assert real_product(omega, LatticeCharge((1,), (0,)), CyclePair((1,), (0,))) == pytest.approx(PI)
    assert real_product(omega, LatticeCharge((0,), (0,)), CyclePair((0,), (0,))) == 0


def test_herm_product_imag_is_pi_times_defect():
    rng = np.random.default_rng(2)
    omega = random_siegel_point(3, seed=1)
    for _ in range(50):
        nm = _random_charge(rng, 3)
        qp_charge = _random_charge(rng, 3)
        qp = CyclePair(qp_charge.n, qp_charge.m)
        value = herm_product(omega, nm, qp)
        assert value.imag == pytest.approx(PI * pairings.integer_defect(nm, qp), abs=1e-10)


def test_monodromy_factor_examples():
    omega = PeriodMatrix.from_tau(1j)
    assert monodromy_factor(omega, LatticeCharge((0,), (1,)), CyclePair((1,), (0,))) == pytest.approx(-1.0)
    value = monodromy_factor(omega, LatticeCharge((0,), (1,)), CyclePair((0,), (1,)))
    assert value == pytest.approx(math.exp(PI))  # about 23.1407
    assert monodromy_factor(omega, LatticeCharge((0,), (0,)), CyclePair((2,), (5,))) == 1.0


def test_monodromy_factor_sign_is_the_parity_of_the_pairing():
    # the pairing 2k^2 + 2k + 1 is odd; pi times it is too large for its parity to survive in floats
    k = 10**8
    nm, qp = LatticeCharge((k,), (k + 1,)), CyclePair((k + 1,), (k,))
    assert pairings.integer_defect(nm, qp) == 2 * k * k + 2 * k + 1
    assert monodromy_factor(PeriodMatrix.from_tau(1j), nm, qp) == -1.0


def test_monodromy_factor_is_real_on_random_data():
    rng = np.random.default_rng(3)
    omega = random_siegel_point(2, seed=5)
    for _ in range(25):
        nm = _random_charge(rng, 2, bound=2)
        qp = _random_charge(rng, 2, bound=2)
        value = monodromy_factor(omega, nm, CyclePair(qp.n, qp.m))
        assert isinstance(value, float)


def test_monodromy_factor_overflow_raises_without_warnings():
    # the exponent is about 2827, past the float range of exp
    nm, qp = LatticeCharge((0,), (30,)), CyclePair((0,), (30,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            monodromy_factor(PeriodMatrix.from_tau(1j), nm, qp)


def test_integer_defect_is_exact_beyond_int64():
    big = 10**20
    nm, qp = LatticeCharge((big, 1), (3, -big)), CyclePair((big, 2), (big + 1, 5))
    # p.n + q.m = (big + 1) big + 5 + 3 big - 2 big
    assert pairings.integer_defect(nm, qp) == 10**40 + 2 * 10**20 + 5


def test_wedge_integral_examples():
    omega = PeriodMatrix.from_tau(1j)
    unit = LatticeCharge((0,), (1,))
    assert wedge_integral(omega, unit, unit) == pytest.approx(-2j * PI**2)
    zero = LatticeCharge((0,), (0,))
    assert wedge_integral(omega, zero, unit) == 0
    other = LatticeCharge((1,), (0,))
    defect = wedge_integral(omega, unit, other) - wedge_integral(omega, other, unit)
    assert defect == pytest.approx(-4 * PI**2)


def test_area_examples():
    assert area(PeriodMatrix.from_tau(1j), LatticeCharge((0,), (1,))) == pytest.approx(PI**2 / 2)
    assert area(PeriodMatrix.from_tau(2j), LatticeCharge((0,), (1,))) == pytest.approx(PI**2 / 4)
    omega2 = validate_period_matrix([[1j, 0.5j], [0.5j, 2.5j]])
    assert area(omega2, LatticeCharge((1, 1), (1, 2))) == pytest.approx(3.25 * PI**2)
    with pytest.raises(DegenerateCharge):
        area(PeriodMatrix.from_tau(1j), LatticeCharge((0,), (0,)))


def test_duality_canonical_matches_coefficients():
    omega = PeriodMatrix.from_tau(1j)
    _, d2 = duality_coeffs(omega, LatticeCharge((1,), (0,)))
    assert d2[0] == pytest.approx(1j * PI)
    _, d2 = duality_coeffs(omega, LatticeCharge((0,), (1,)))
    assert d2[0] == pytest.approx(PI)
    d1, d2 = duality_coeffs(omega, LatticeCharge((0,), (0,)))
    assert np.all(d1 == 0) and np.all(d2 == 0)


def test_duality_conjugation_relation():
    # d2 at charge (n, m) equals the conjugate of d1 at (-n, m)
    rng = np.random.default_rng(4)
    omega = random_siegel_point(3, seed=8)
    for _ in range(20):
        nm = _random_charge(rng, 3)
        flipped = LatticeCharge(tuple(-x for x in nm.n), nm.m)
        d1_flipped, _ = duality_coeffs(omega, flipped)
        _, d2 = duality_coeffs(omega, nm)
        assert np.max(np.abs(d2 - np.conj(d1_flipped))) < 1e-12


@pytest.mark.parametrize("h", [1, 2, 3])
def test_identity_residuals_random(h):
    rng = np.random.default_rng(100 + h)
    omega = random_siegel_point(h, seed=h)
    checks = [
        oracles.herm_period_residual,
        oracles.imag_integrality_residual,
        oracles.conjugation_residual,
        oracles.factorization_residual,
        oracles.real_symmetry_residual,
        oracles.herm_real_link_residual,
        oracles.coeff_form_residual,
    ]
    for _ in range(30):
        nm = _random_charge(rng, h)
        qp_charge = _random_charge(rng, h)
        cycle = CyclePair(qp_charge.n, qp_charge.m)
        for check in checks:
            assert check(omega, nm, cycle) < 1e-10
        assert oracles.wedge_herm_residual(omega, nm, qp_charge) < 1e-10
        assert oracles.wedge_swap_residual(omega, nm, qp_charge) < 1e-10
        assert oracles.wedge_imag_swap_residual(omega, nm, qp_charge) < 1e-10
        assert oracles.self_pairing_residual(omega, nm) < 1e-10
        if not nm.is_zero:
            assert oracles.winding_area_residual(omega, nm) < 1e-10
            assert oracles.area_real_product_residual(omega, nm) < 1e-10
            assert oracles.duality_canonical_residual(omega, nm) < 1e-12


def test_positivity_on_small_box():
    omega = random_siegel_point(2, seed=42)
    for n1 in range(-2, 3):
        for m1 in range(-2, 3):
            charge = LatticeCharge((n1, 1), (m1, 0))
            assert real_product(omega, charge, CyclePair(charge.n, charge.m)) > 0


def test_positivity_full_wide_box():
    from specialperiods.report import positivity_sweep

    for h, bound in ((1, 5), (2, 5), (3, 3)):
        omega = random_siegel_point(h, seed=60 + h)
        minimum, at_zero = positivity_sweep(omega, bound=bound)
        assert minimum > 0
        assert at_zero == 0.0


def test_conjugation_identity_bulk():
    # conjugating shifts by -2 i pi times the integer pairing; wide sweep
    rng = np.random.default_rng(9)
    for trial in range(1000):
        h = 1 + trial % 3
        omega = random_siegel_point(h, seed=trial % 40)
        nm = _random_charge(rng, h)
        qp = _random_charge(rng, h)
        assert oracles.conjugation_residual(omega, nm, CyclePair(qp.n, qp.m)) < 1e-10


def test_self_product_zero_only_at_zero():
    omega = random_siegel_point(1, seed=7)
    zero = LatticeCharge((0,), (0,))
    assert real_product(omega, zero, CyclePair((0,), (0,))) == 0


def test_winding_exponent_is_minus_two_area_over_pi():
    omega = random_siegel_point(2, seed=13)
    nm = LatticeCharge((1, -2), (0, 3))
    cycle = CyclePair(nm.n, tuple(-m for m in nm.m))
    exponent = herm_product(omega, nm, cycle)
    assert exponent.imag == pytest.approx(0, abs=1e-10)
    assert exponent.real == pytest.approx(-2 / PI * area(omega, nm), abs=1e-10)


def test_wedge_against_coefficient_oracle_at_genus_one():
    # independent evaluation: on a torus the surface integral collapses to
    # c1 * conj(c2) * (-2i Im tau)
    rng = np.random.default_rng(5)
    for _ in range(25):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.5))
        omega = PeriodMatrix.from_tau(tau)
        nm = _random_charge(rng, 1, bound=4)
        qp = _random_charge(rng, 1, bound=4)
        expected = (
            primitive_coeffs(omega, nm)[0]
            * np.conj(primitive_coeffs(omega, qp)[0])
            * (-2j * tau.imag)
        )
        assert wedge_integral(omega, nm, qp) == pytest.approx(expected, abs=1e-9)
