from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specialperiods import (
    DegenerateBase,
    LatticeCharge,
    ParseError,
    identity_ansatz,
    parse_tensor_file,
    random_siegel_point,
    ratio_matrix,
    search_solutions,
    validate_period_matrix,
    verify_ansatz_tensors,
)
from specialperiods.highgenus import AnsatzTensors, cocycle_residual, reciprocal_residual


def test_ratio_matrix_genus_one():
    omega = random_siegel_point(1, seed=0)
    matrix = ratio_matrix(omega, LatticeCharge((1,), (0,)))
    assert matrix[0, 0] == 1


def test_ratio_matrix_known_values():
    # base image (1, 2, 3): with n = 0 the image is just m
    omega = random_siegel_point(3, seed=1)
    matrix = ratio_matrix(omega, LatticeCharge((0, 0, 0), (1, 2, 3)))
    assert matrix[0, 1] == pytest.approx(1 / 2)
    assert matrix[0, 2] == pytest.approx(1 / 3)
    assert matrix[1, 2] == pytest.approx(2 / 3)


def test_ratio_matrix_invariants():
    rng = np.random.default_rng(2)
    for h in (2, 3, 4):
        omega = random_siegel_point(h, seed=h)
        charge = LatticeCharge(
            tuple(int(x) for x in rng.integers(-4, 5, size=h)),
            tuple(int(x) for x in rng.integers(-4, 5, size=h)),
        )
        matrix = ratio_matrix(omega, charge)
        assert np.allclose(np.diag(matrix), 1.0)
        assert cocycle_residual(matrix) < 1e-12
        assert reciprocal_residual(matrix) < 1e-12
        norm = np.linalg.norm(matrix)
        assert np.linalg.svd(matrix, compute_uv=False)[-1] <= 1e-10 * norm


def test_ratio_matrix_degenerate_base():
    omega = validate_period_matrix([[1j, 1], [1, 1j]])
    with pytest.raises(DegenerateBase):
        ratio_matrix(omega, LatticeCharge((0, 1), (1, 0)))


def test_solution_records_share_the_ratio_matrix(worked_case):
    _, omega, base = worked_case
    reference = ratio_matrix(omega, base)
    for record in search_solutions(omega, base, bound=2, tol=1e-9):
        probe_matrix = ratio_matrix(omega, record.probe)
        assert np.max(np.abs(probe_matrix - reference)) < 1e-10


def test_identity_ansatz_is_exact():
    for h in (1, 2, 3):
        tensors = identity_ansatz(h)
        # delta_kl, not delta_jl (which also solves both identities)
        for i, k, j, l in np.ndindex(tensors.N4.shape):
            assert tensors.N4[i][k][j][l] == (k == l)
        cocycle, annihilation = verify_ansatz_tensors(tensors)
        assert cocycle == 0
        assert annihilation == 0


def _loop_residuals(n4, m2):
    """The element-by-element loops that ``verify_ansatz_tensors`` replaced."""
    idx = range(len(m2))
    worst_cocycle = Fraction(0)
    for i in idx:
        for k in idx:
            for j in idx:
                for n in idx:
                    for m in idx:
                        total = sum((n4[i][k][j][l] * n4[j][l][n][m] for l in idx), Fraction(0))
                        worst_cocycle = max(worst_cocycle, abs(total - n4[i][k][n][m]))
    worst_m = Fraction(0)
    for i in idx:
        for k in idx:
            for j in idx:
                total = sum((n4[i][k][j][l] * m2[j][l] for l in idx), Fraction(0))
                worst_m = max(worst_m, abs(total))
    return worst_cocycle, worst_m


_RATIONALS = st.sampled_from([Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3, 5)])


@st.composite
def _tensors(draw):
    """(n4, m2, solves_cocycle): random rational tensors, or a rank-one solution
    N[i][k][j][l] = f[i][k] g[j][l] with f[j] . g[j] = 1 for every j."""
    h = draw(st.integers(1, 3))
    m2 = np.array(draw(st.lists(_RATIONALS, min_size=h * h, max_size=h * h)), dtype=object)
    if draw(st.booleans()):
        f = np.array(
            draw(st.lists(_RATIONALS.filter(bool), min_size=h * h, max_size=h * h)), dtype=object
        ).reshape(h, h)
        g = f / np.sum(f * f, axis=1)[:, None]
        n4 = f[:, :, None, None] * g[None, None, :, :]
        solves = True
    else:
        n4 = np.array(draw(st.lists(_RATIONALS, min_size=h**4, max_size=h**4)), dtype=object)
        solves = False
    return n4.reshape((h,) * 4).tolist(), m2.reshape(h, h).tolist(), solves


@settings(max_examples=100, deadline=None)
@given(_tensors())
def test_contractions_match_the_loops(drawn):
    n4, m2, solves = drawn
    residuals = verify_ansatz_tensors(AnsatzTensors(N4=n4, M2=m2))
    assert residuals == _loop_residuals(n4, m2)
    assert all(isinstance(r, Fraction) for r in residuals)
    if solves:
        assert residuals[0] == 0


def test_scalar_ansatz_example():
    tensors = AnsatzTensors(N4=[[[[1]]]], M2=[[0]])
    assert verify_ansatz_tensors(tensors) == (0, 0)


def test_zero_tensor_example():
    h = 2
    n4 = [[[[0] * h for _ in range(h)] for _ in range(h)] for _ in range(h)]
    m2 = [[Fraction(3, 7), 1], [1, Fraction(-2)]]
    cocycle, annihilation = verify_ansatz_tensors(AnsatzTensors(N4=n4, M2=m2))
    assert cocycle == 0
    assert annihilation == 0


def test_random_tensors_report_exact_rationals():
    h = 2
    values = [Fraction(1, 3), Fraction(-2, 5), Fraction(1), Fraction(0)]
    n4 = [
        [[[values[(i + k + j + l) % 4] for l in range(h)] for j in range(h)] for k in range(h)]
        for i in range(h)
    ]
    m2 = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    cocycle, annihilation = verify_ansatz_tensors(AnsatzTensors(N4=n4, M2=m2))
    assert isinstance(cocycle, Fraction) and isinstance(annihilation, Fraction)
    assert cocycle > 0
    # hand contraction for one index tuple (i=k=j=n=m=0):
    # sum_l N[0][0][0][l] N[0][l][0][0] - N[0][0][0][0]
    manual = sum((n4[0][0][0][l] * n4[0][l][0][0] for l in range(h)), Fraction(0)) - n4[0][0][0][0]
    assert cocycle >= abs(manual)


def test_tensor_shapes_validated():
    for n4, m2 in [
        ([[[[1]]]], [[0, 0], [0, 0]]),
        ([[[[1, 0], [0, 1]], [[0, 1]]], [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]], [[0, 0], [0, 0]]),
        ([[[[1]]]], [[[0]]]),  # Fraction([0]) would be a TypeError: shapes are checked first
    ]:
        with pytest.raises(ValueError, match="tensor shapes"):
            AnsatzTensors(N4=n4, M2=m2)


def test_tensors_are_read_only_fractions():
    tensors = AnsatzTensors(N4=[[[[1]]]], M2=[[Fraction(2, 3)]])
    for data in (tensors.N4, tensors.M2):
        assert all(isinstance(x, Fraction) for x in data.flat)
        with pytest.raises(ValueError, match="read-only"):
            data[(0,) * data.ndim] = Fraction(0)


def test_parse_tensor_file_round_trip():
    text = """
    h 2
    # cocycle block
    1 1 1 1 1/3
    2 1 2 2 -4/5
    1 2 7/2
    """
    tensors = parse_tensor_file(text)
    assert tensors.genus == 2
    assert tensors.N4[0][0][0][0] == Fraction(1, 3)
    assert tensors.N4[1][0][1][1] == Fraction(-4, 5)
    assert tensors.M2[0][1] == Fraction(7, 2)


def test_parse_tensor_file_errors():
    with pytest.raises(ParseError):
        parse_tensor_file("1 1 1 1 1/3\n")  # missing header
    with pytest.raises(ParseError):
        parse_tensor_file("h 2\n1 1 nonsense\n")
    with pytest.raises(ParseError):
        parse_tensor_file("h 2\n1 1 1 1/0\n")
    with pytest.raises(ParseError):
        parse_tensor_file("")


@pytest.mark.parametrize(
    "text,line",
    [
        ("h 2\n0 1 1 1 5\n", 2),  # index 0 would wrap to the last entry
        ("h 2\n1 1 1 1 5\n-1 1 7\n", 3),  # so would a negative index
        ("h 2\n1 3 1 1 5\n", 2),
        ("h 2\n2 3 7\n", 2),
        ("h 1\n1 1 1 1 5\nh 1\n", 3),  # a second header would discard row 2
    ],
    ids=["zero", "negative", "above-h", "above-h-matrix", "repeated-header"],
)
def test_parse_tensor_file_rejects_bad_indices_and_repeated_header(text, line):
    with pytest.raises(ParseError, match="line %d:" % line):
        parse_tensor_file(text)
