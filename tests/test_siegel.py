import numpy as np
import pytest

from specialperiods import (
    AsymmetryError,
    DomainError,
    LatticeCharge,
    NotPositiveDefinite,
    random_siegel_point,
    validate_period_matrix,
)
from specialperiods.siegel import charge_box, ellipsoid_points

from oracles import (
    ModularMatrix,
    modular_transform_charge,
    modular_transform_tau,
    random_modular_matrix,
)


def test_genus_one_identity_imag():
    omega = validate_period_matrix([[1j]])
    assert omega.genus == 1
    assert omega.tau == 1j
    assert omega.imag_part[0, 0] == 1.0


def test_worked_genus_two_determinant():
    omega = validate_period_matrix([[1j, 0.5j], [0.5j, 2.5j]])
    # det of [[1, 0.5], [0.5, 2.5]] by hand
    assert np.linalg.det(omega.imag_part) == pytest.approx(2.25, abs=1e-14)


def test_indefinite_imag_rejected():
    # eigenvalues of [[1, 2], [2, 1]] are 3 and -1
    with pytest.raises(NotPositiveDefinite):
        validate_period_matrix([[1j, 2j], [2j, 1j]])


def test_asymmetry_detected_and_symmetrized():
    raw = np.array([[1j, 0.1 + 0.5j], [0.2 + 0.5j, 2j]])
    with pytest.raises(AsymmetryError):
        validate_period_matrix(raw, tol=1e-10)
    omega = validate_period_matrix(raw, tol=0.2)
    assert np.array_equal(omega.entries, omega.entries.T)


def test_imag_inverse_quality():
    omega = random_siegel_point(5, seed=3)
    defect = omega.imag_part @ omega.imag_inverse - np.eye(5)
    assert np.max(np.abs(defect)) < 1e-12


def test_entries_are_read_only():
    omega = validate_period_matrix([[1j]])
    with pytest.raises(ValueError):
        omega.entries[0, 0] = 0


def test_non_square_rejected():
    with pytest.raises(ValueError):
        validate_period_matrix(np.zeros((2, 3), dtype=complex))


@pytest.mark.parametrize("entry", [np.nan, complex(0, np.inf), complex(np.nan, np.inf)])
def test_non_finite_entries_rejected(entry):
    # every other guard is a comparison, which is False on NaN
    with pytest.raises(DomainError, match="non-finite"):
        validate_period_matrix([[entry]])
    with pytest.raises(DomainError, match="non-finite"):
        validate_period_matrix([[1j, 0], [0, entry]])


def test_symmetrization_overflow_rejected():
    # finite entries whose symmetrization (raw + raw.T) / 2 overflows to inf
    with pytest.raises(DomainError, match="overflows"):
        validate_period_matrix([[1e308 + 1e308j]])


def test_random_siegel_point_properties():
    tau = random_siegel_point(1, seed=0).tau
    assert tau.imag >= 1.0
    first = random_siegel_point(3, seed=7)
    second = random_siegel_point(3, seed=7)
    assert np.array_equal(first.entries, second.entries)
    assert random_siegel_point(2, seed=1).genus == 2


def test_modular_transform_tau_examples():
    ident = ModularMatrix.identity()
    assert modular_transform_tau(ident, 1j) == 1j
    inversion = ModularMatrix.inversion()
    assert modular_transform_tau(inversion, 1j) == pytest.approx(1j)
    shift = ModularMatrix.translation()
    assert modular_transform_tau(shift, 1j) == pytest.approx(1 + 1j)
    with pytest.raises(DomainError):
        modular_transform_tau(shift, 1 - 1j)


def test_modular_transform_charge_examples():
    ident = ModularMatrix.identity()
    charge = LatticeCharge((2,), (3,))
    assert modular_transform_charge(ident, charge) == charge
    shift = ModularMatrix.translation()
    assert modular_transform_charge(shift, LatticeCharge((1,), (0,))) == LatticeCharge((1,), (1,))
    inversion = ModularMatrix.inversion()
    assert modular_transform_charge(inversion, LatticeCharge((0,), (1,))) == LatticeCharge((1,), (0,))
    with pytest.raises(ValueError):
        modular_transform_charge(ident, LatticeCharge((1, 0), (0, 1)))


def test_moebius_preserves_upper_half_plane():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        gamma = random_modular_matrix(rng)
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        moved = modular_transform_tau(gamma, tau)
        denom = gamma.c * tau + gamma.d
        assert moved.imag > 0
        assert moved.imag == pytest.approx(tau.imag / abs(denom) ** 2, rel=1e-12)


def test_modular_group_law():
    rng = np.random.default_rng(5)
    for _ in range(300):
        g1 = random_modular_matrix(rng)
        g2 = random_modular_matrix(rng)
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
        chained = modular_transform_tau(g1, modular_transform_tau(g2, tau))
        composed = modular_transform_tau(g1 @ g2, tau)
        assert abs(chained - composed) < 1e-12


def test_modular_matrix_validation():
    with pytest.raises(ValueError):
        ModularMatrix(1, 1, 1, 1)
    gamma = ModularMatrix(2, 1, 1, 1)
    assert gamma @ gamma.inverse() == ModularMatrix.identity()


def test_lattice_charge_basics():
    charge = LatticeCharge((1, -2), (0, 3))
    assert charge.genus == 2
    assert not charge.is_zero
    assert (-charge).n == (-1, 2)
    assert LatticeCharge((0,), (0,)).is_zero
    with pytest.raises(ValueError):
        LatticeCharge((0.5,), (1,))
    with pytest.raises(ValueError):
        LatticeCharge((1, 2), (3,))


@pytest.mark.parametrize(
    "values,expected",
    [
        ((1, -2, 0), (1, -2, 0)),
        ([1, -2], (1, -2)),
        ((True, False), (1, 0)),
        ((np.int64(3), 2), (3, 2)),
        ((2.0, -1), (2, -1)),
        (np.array([4, 5]), (4, 5)),
        (((1, 2), (3, 4)), (1, 2, 3, 4)),
        ((), ()),
    ],
)
def test_int_tuple_conversions(values, expected):
    charge = LatticeCharge(values, values)
    for out in (charge.n, charge.m):
        assert out == expected
        assert type(out) is tuple
        assert all(type(x) is int for x in out)


@pytest.mark.parametrize("values", [(1.5,), (1, 0.5), [2, 1e-9], (np.float64(0.25),), (True, 1.5)])
def test_int_tuple_rejects_non_integers(values):
    with pytest.raises(ValueError, match="exact integers"):
        LatticeCharge(values, values)


@pytest.mark.parametrize("seed", range(6))
def test_ellipsoid_points_list_every_box_point_inside(seed):
    rng = np.random.default_rng(seed)
    d, bound = 1 + seed % 4, 3
    a = rng.standard_normal((d, d))
    gram = a.T @ a + 0.1 * np.eye(d)
    centres = rng.uniform(-4, 4, (3, d))
    radii = rng.uniform(0, 6, 3)
    owner, points = ellipsoid_points(gram, centres, radii, bound)
    assert points.dtype == np.int64 and np.abs(points).max(initial=0) <= bound
    box = charge_box(d, bound)
    for k in range(3):
        y = box - centres[k]
        forms = np.sum((y @ gram) * y, axis=1)
        listed = set(map(tuple, points[owner == k].tolist()))
        assert listed == {tuple(row) for row in box[forms <= radii[k] * (1 + 1e-9)]}


def test_ellipsoid_points_beyond_the_int64_range():
    # the box is clipped to the floats' exact integers, so huge bounds cannot overflow
    owner, points = ellipsoid_points(np.eye(2), np.zeros((1, 2)), [2.0], 10**30)
    assert sorted(map(tuple, points.tolist())) == sorted(
        (x, y) for x in range(-1, 2) for y in range(-1, 2) if x * x + y * y <= 2
    )
    owner, points = ellipsoid_points(np.eye(1), np.array([[1e200]]), [4.0], 2**63 - 1)
    assert len(points) == 0


def test_ellipsoid_points_reject_a_singular_form():
    with pytest.raises(DomainError):
        ellipsoid_points(np.ones((2, 2)), np.zeros((1, 2)), [1.0], 3)
    with pytest.raises(DomainError):
        ellipsoid_points(np.array([[np.inf]]), np.zeros((1, 1)), [1.0], 3)
