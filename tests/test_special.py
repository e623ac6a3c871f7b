import itertools
from dataclasses import replace

import numpy as np
import pytest

from specialperiods import (
    CyclePair,
    DegenerateBase,
    LatticeCharge,
    NotASolution,
    NotIntegralDegree,
    PeriodMatrix,
    area,
    cm_relation_check,
    cm_wedge_residual,
    cm_witness_from_record,
    consistency_ratios,
    cover_data,
    cover_degree,
    cover_monodromy,
    random_siegel_point,
    search_solutions,
    solution_record,
    solve_c,
    validate_period_matrix,
)

PI = np.pi
WORKED_CBAR = (4 + 6j) / 13


def brute_force_probes(omega, base, bound, tol):
    """Independent oracle: accept probes by the antisymmetrized-image rule,
    written with plain python loops."""
    h = omega.genus
    entries = [[complex(omega.entries[j, k]) for k in range(h)] for j in range(h)]

    def image(n, m):
        return [
            m[j] - sum(entries[j][k] * n[k] for k in range(h)) for j in range(h)
        ]

    v = image(base.n, base.m)
    accepted = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=2 * h):
        if not any(flat):
            continue
        vp = image(flat[:h], flat[h:])
        worst = max(
            abs(v[j] * vp[k] - v[k] * vp[j]) for j in range(h) for k in range(h)
        )
        if worst <= tol:
            accepted.append((flat[:h], flat[h:]))
    return accepted


def test_consistency_ratios_examples(worked_case):
    _, omega, base = worked_case
    assert np.allclose(consistency_ratios(omega, base, base), 1.0)
    ratios = consistency_ratios(omega, base, LatticeCharge((0, 0), (1, 2)))
    assert np.allclose(ratios, 1 / (1 - 1.5j), atol=1e-12)
    ratios = consistency_ratios(omega, base, LatticeCharge((2, -1), (1, -1)))
    assert abs(ratios[0] - ratios[1]) > 0.5


def test_solve_c_examples(worked_case):
    _, omega, base = worked_case
    doubled = LatticeCharge((2, 2), (2, 4))
    assert solve_c(omega, base, doubled, tol=1e-9) == pytest.approx(2.0)
    c = solve_c(omega, base, LatticeCharge((0, 0), (1, 2)), tol=1e-9)
    assert np.conj(c) == pytest.approx(WORKED_CBAR, abs=1e-12)
    with pytest.raises(NotASolution):
        solve_c(omega, base, LatticeCharge((0, 0), (0, 0)), tol=1e-9)
    with pytest.raises(NotASolution):
        solve_c(omega, base, LatticeCharge((2, -1), (1, -1)), tol=1e-9)


def test_degenerate_base_rejected():
    # a matrix with an integer off-diagonal entry kills one image component
    omega = validate_period_matrix([[1j, 1], [1, 1j]])
    base = LatticeCharge((0, 1), (1, 0))
    with pytest.raises(DegenerateBase):
        consistency_ratios(omega, base, base)


def test_search_worked_case(worked_case):
    _, omega, base = worked_case
    records = search_solutions(omega, base, bound=2, tol=1e-9)
    assert len(records) == 14
    family = {
        ((a, a), (b, 2 * b))
        for a in range(-2, 3)
        for b in (-1, 0, 1)
        if (a, b) != (0, 0)
    }
    assert {(r.probe.n, r.probe.m) for r in records} == family
    # lexicographic output order
    keys = [r.probe.n + r.probe.m for r in records]
    assert keys == sorted(keys)


def test_search_agrees_with_brute_force(worked_case):
    _, omega, base = worked_case
    records = search_solutions(omega, base, bound=2, tol=1e-9)
    oracle = brute_force_probes(omega, base, bound=2, tol=1e-9)
    assert [(r.probe.n, r.probe.m) for r in records] == sorted(oracle)


def test_search_contains_base_at_bound_one(worked_case):
    _, omega, base = worked_case
    records = search_solutions(omega, base, bound=2, tol=1e-9)
    own = [r for r in records if r.probe == base]
    assert len(own) == 1 and own[0].c == pytest.approx(1.0)


def test_genus_one_search_returns_full_box():
    # at genus one every probe is proportional to the base, and the covering
    # degree collapses to the charge determinant |n' m - m' n|
    omega = PeriodMatrix.from_tau(0.3 + 1.1j)
    base = LatticeCharge((0,), (1,))
    records = search_solutions(omega, base, bound=2, tol=1e-9)
    assert len(records) == 24
    oracle = brute_force_probes(omega, base, bound=2, tol=1e-9)
    assert [(r.probe.n, r.probe.m) for r in records] == sorted(oracle)
    for record in records:
        det = record.probe.n[0] * base.m[0] - record.probe.m[0] * base.n[0]
        if det == 0:
            assert record.classification == "collinear-rational"
        else:
            assert record.classification == "special-complex"
            assert record.degree == abs(det)


def test_generic_matrix_has_only_collinear_records():
    base = LatticeCharge((1, 0), (0, 1))
    for seed in range(5):
        omega = random_siegel_point(2, seed=seed)
        records = search_solutions(omega, base, bound=3, tol=1e-9)
        expected = {((k, 0), (0, k)) for k in range(-3, 4) if k != 0}
        assert {(r.probe.n, r.probe.m) for r in records} == expected
        assert all(r.classification == "collinear-rational" for r in records)


def test_tolerance_monotonicity(worked_case):
    _, omega, base = worked_case
    tight = search_solutions(omega, base, bound=2, tol=1e-12)
    loose = search_solutions(omega, base, bound=2, tol=1e-6)
    tight_set = {(r.probe.n, r.probe.m) for r in tight}
    loose_set = {(r.probe.n, r.probe.m) for r in loose}
    assert tight_set <= loose_set


def test_record_invariants(worked_case):
    _, omega, base = worked_case
    v = base.m_vec - omega.entries @ base.n_vec
    for record in search_solutions(omega, base, bound=2, tol=1e-9):
        effective = record.effective_probe
        vp = effective.m_vec - omega.entries @ effective.n_vec
        assert np.max(np.abs(vp - record.c_conj * v)) < 1e-9
        if record.classification == "special-complex":
            assert record.c_conj.imag > 0
        else:
            assert record.c.imag == pytest.approx(0, abs=1e-9)
        product = record.lambda_c * record.lambda_c_dual
        expected = 4 * area(omega, base) * area(omega, record.probe)
        assert product == pytest.approx(expected, rel=1e-10)


def test_eigenvalues_worked_case(worked_case):
    _, omega, base = worked_case
    record = solution_record(omega, base, LatticeCharge((0, 0), (1, 2)), tol=1e-9)
    assert record.lambda_c == pytest.approx(2 * PI**2, abs=1e-10)
    assert record.lambda_c_dual == pytest.approx(6.5 * PI**2, abs=1e-10)
    assert area(omega, base) == pytest.approx(3.25 * PI**2, abs=1e-10)
    own = solution_record(omega, base, base, tol=1e-9)
    assert own.lambda_c == pytest.approx(2 * area(omega, base))


def test_cover_monodromy_worked_case(worked_case):
    _, omega, base = worked_case
    record = solution_record(omega, base, LatticeCharge((0, 0), (1, 2)), tol=1e-9)
    value, coords = cover_monodromy(omega, base, record, CyclePair(q=(0, 0), p=(1, 0)))
    assert coords == (0, 1)
    assert value == pytest.approx(WORKED_CBAR, abs=1e-12)
    value, coords = cover_monodromy(omega, base, record, CyclePair(q=(0, 1), p=(0, 0)))
    assert coords == (-2, 2)
    assert value == pytest.approx(-2 + 2 * WORKED_CBAR, abs=1e-12)
    value, coords = cover_monodromy(omega, base, record, CyclePair(q=(0, 0), p=(0, 0)))
    assert value == 0 and coords == (0, 0)


def test_cover_monodromy_rejects_a_record_without_cover(worked_case):
    _, omega, base = worked_case
    collinear = solution_record(omega, base, LatticeCharge((2, 2), (2, 4)), tol=1e-9)
    assert collinear.classification == "collinear-rational"
    with pytest.raises(NotIntegralDegree):
        cover_monodromy(omega, base, collinear, CyclePair(q=(0, 0), p=(1, 0)))


def test_cover_data_all_cycles(worked_case):
    _, omega, base = worked_case
    for record in search_solutions(omega, base, bound=2, tol=1e-9):
        if record.classification != "special-complex":
            # a collinear record has no torus cover, so no degree and no table
            with pytest.raises(NotIntegralDegree):
                cover_data(omega, base, record)
            continue
        data = cover_data(omega, base, record)
        assert len(data.monodromy_table) == 4
        assert data.degree_raw == pytest.approx(record.degree, abs=1e-8)
        assert record.degree >= 1


def test_cover_degree_examples(worked_case):
    _, omega, base = worked_case
    record = solution_record(omega, base, LatticeCharge((0, 0), (1, 2)), tol=1e-9)
    assert cover_degree(omega, base, record) == 3
    # genus one: re-marking the torus is a one-sheet cover
    omega1 = PeriodMatrix.from_tau(1j)
    base1 = LatticeCharge((0,), (1,))
    record1 = solution_record(omega1, base1, LatticeCharge((1,), (0,)), tol=1e-9)
    assert cover_degree(omega1, base1, record1) == 1
    # the unflipped probe pairs to -1 with the base: not a positive degree
    with pytest.raises(NotIntegralDegree, match="degree -1 "):
        cover_degree(omega1, base1, replace(record1, sign=-record1.sign))
    collinear = solution_record(omega, base, LatticeCharge((2, 2), (2, 4)), tol=1e-9)
    with pytest.raises(NotIntegralDegree):
        cover_degree(omega, base, collinear)


def test_cm_wedge_residual_examples(worked_case):
    _, omega, base = worked_case
    assert cm_wedge_residual(omega, base, LatticeCharge((0, 0), (1, 2))) < 1e-12
    assert cm_wedge_residual(omega, base, LatticeCharge((2, -1), (1, -1))) > 1
    assert cm_wedge_residual(omega, base, base) == 0


def test_cm_relation_check_examples(worked_case):
    _, omega, base = worked_case
    record = solution_record(omega, base, LatticeCharge((0, 0), (1, 2)), tol=1e-9)
    m_vec, n_vec, m_prime, n_prime = cm_witness_from_record(base, record)
    assert (m_vec, n_vec) == ((1, 2), (1, 1))
    assert (m_prime, n_prime) == ((-1, -2), (0, 0))
    residual = cm_relation_check(omega, record.c_conj, m_vec, n_vec, m_prime, n_prime)
    assert residual < 1e-10
    assert cm_relation_check(omega, 0.3 + 0.9j, (0, 0), (0, 0), (0, 0), (0, 0)) == 0
    perturbed = (m_prime[0] + 1, m_prime[1])
    assert cm_relation_check(omega, record.c_conj, m_vec, n_vec, perturbed, n_prime) > 0.9
