from fractions import Fraction

import numpy as np
import pytest

from specialperiods import (
    BadRationality,
    Genus2Params,
    LatticeCharge,
    NotASolution,
    NotInGamma,
    NotPositiveDefinite,
    area,
    build_special_genus2,
    gamma_complete,
    gamma_members,
)

from oracles import consistency_ratios, genus2_eigenvalue_family, solve_c

PI = np.pi


@pytest.fixture
def worked_params():
    return Genus2Params(omega11=1j, omega12=0.5j, M=1, N2=1, N3=0, N4hat=1)


def test_worked_parameters(worked_params):
    assert worked_params.N1 == 2
    assert worked_params.N_plus == 2
    assert worked_params.N_minus == -1
    assert worked_params.omega22 == 2.5j


def test_root_property_is_exact():
    params = Genus2Params(omega11=1j, omega12=0.25j, M=Fraction(3, 2), N2=Fraction(1, 2), N4hat=4, N3=Fraction(1, 4))
    for root in (params.N_plus, params.N_minus):
        assert root * root - params.N2 * root - params.N1 == 0


def test_degenerate_parameters_rejected():
    with pytest.raises(BadRationality):
        Genus2Params(omega11=1j, omega12=0.5j, M=0, N2=1, N3=0, N4hat=1)
    with pytest.raises(BadRationality):
        Genus2Params(omega11=1j, omega12=0.5j, M=-1, N2=1, N3=0, N4hat=1)
    with pytest.raises(BadRationality):
        Genus2Params(omega11=1j, omega12=0.5j, M=1, N2=1, N3=0, N4hat=0)
    # N1 = 3/4 does not lie in Z / 1
    with pytest.raises(BadRationality):
        Genus2Params(omega11=1j, omega12=0.5j, M=Fraction(1, 2), N2=1, N3=0, N4hat=1)
    # floats are ambiguous as rationals
    with pytest.raises(BadRationality):
        Genus2Params(omega11=1j, omega12=0.5j, M=0.5, N2=1, N3=0, N4hat=4)


def test_build_worked_matrix(worked_params):
    omega = build_special_genus2(worked_params)
    assert omega.entries[1, 1] == 2.5j
    assert np.linalg.det(omega.imag_part) == pytest.approx(2.25)


def test_build_rejects_flat_imaginary_part():
    # omega12 = 2i forces det Im = 1 * 4 - 4 = 0
    params = Genus2Params(omega11=1j, omega12=2j, M=1, N2=1, N3=0, N4hat=1)
    with pytest.raises(NotPositiveDefinite):
        build_special_genus2(params)


def test_gamma_complete_examples(worked_params):
    assert gamma_complete(worked_params, "+", 1, 1) == LatticeCharge((1, 1), (1, 2))
    with pytest.raises(NotInGamma):
        gamma_complete(worked_params, "-", 1, 1)
    assert gamma_complete(worked_params, "-", 2, 1) == LatticeCharge((2, -1), (1, -1))
    with pytest.raises(ValueError):
        gamma_complete(worked_params, "x", 1, 1)


def test_gamma_members_box(worked_params):
    members = gamma_members(worked_params, "-", bound=2)
    seeds = [(n1, m1) for n1, m1, _ in members]
    # the minus family needs an even first component here
    assert all(n1 % 2 == 0 for n1, _ in seeds)
    assert ((2, 1)) in seeds


def test_round_trip_ratio_consistency(worked_params):
    omega = build_special_genus2(worked_params)
    for branch in ("+", "-"):
        members = gamma_members(worked_params, branch, bound=3)
        base = members[0][2]
        for _, _, probe in members:
            ratios = consistency_ratios(omega, base, probe)
            assert np.max(np.abs(ratios - ratios[0])) < 1e-10


def test_parameter_symmetry_same_matrix(worked_params):
    mirrored = Genus2Params(
        omega11=worked_params.omega11,
        omega12=worked_params.omega12,
        M=-worked_params.N2 - worked_params.M,
        N2=worked_params.N2,
        N3=worked_params.N3,
        N4hat=worked_params.N4hat,
    )
    assert mirrored.N1 == worked_params.N1
    assert mirrored.omega22 == worked_params.omega22
    # the two roots swap between the parametrizations
    assert {mirrored.N_plus, mirrored.N_minus} == {
        worked_params.N_plus,
        worked_params.N_minus,
    }


def test_branch_disjointness(worked_params):
    omega = build_special_genus2(worked_params)
    base = gamma_complete(worked_params, "+", 1, 1)
    intruder = gamma_complete(worked_params, "-", 2, 1)
    with pytest.raises(NotASolution):
        solve_c(omega, base, intruder, tol=1e-9)


def test_eigenvalue_family_worked_case(worked_params):
    omega = build_special_genus2(worked_params)
    lam = genus2_eigenvalue_family(omega, worked_params, "+", (1, 1), (0, 1))
    assert lam == pytest.approx(2 * PI**2, abs=1e-10)
    base = gamma_complete(worked_params, "+", 1, 1)
    lam_base = genus2_eigenvalue_family(omega, worked_params, "+", (1, 1), (1, 1))
    assert lam_base == pytest.approx(2 * area(omega, base), abs=1e-10)


def test_eigenvalue_family_minus_branch(worked_params):
    omega = build_special_genus2(worked_params)
    probe = gamma_complete(worked_params, "-", 0, 1)
    assert probe == LatticeCharge((0, 0), (1, -1))
    lam = genus2_eigenvalue_family(omega, worked_params, "-", (2, 1), (0, 1))
    base = gamma_complete(worked_params, "-", 2, 1)
    c = solve_c(omega, base, probe, tol=1e-9)
    assert lam == pytest.approx(2 * area(omega, base) * abs(c) ** 2, rel=1e-12)


def test_eigenvalue_family_rejects_non_members(worked_params):
    omega = build_special_genus2(worked_params)
    with pytest.raises(NotInGamma):
        genus2_eigenvalue_family(omega, worked_params, "-", (2, 1), (1, 1))
