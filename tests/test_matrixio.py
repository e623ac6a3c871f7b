import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specialperiods import validate_period_matrix
from specialperiods.matrixio import load_period_matrix, write_period_matrix

# every finite double below the symmetrization's overflow, subnormals and -0.0 included
_ANY = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e307, max_value=1e307)


@st.composite
def period_matrices(draw):
    """Symmetric matrices with arbitrary real parts and a diagonally dominant imaginary part."""
    h = draw(st.integers(1, 3))
    pairs = [(j, k) for j in range(h) for k in range(j, h)]
    real = np.zeros((h, h))
    imag = np.zeros((h, h))
    for j, k in pairs:
        real[j, k] = real[k, j] = draw(_ANY)
        if j == k:
            imag[j, j] = draw(st.floats(min_value=h, max_value=4 * h))
        else:
            imag[j, k] = imag[k, j] = draw(st.floats(min_value=-1, max_value=1))
    return validate_period_matrix(real + 1j * imag)


@settings(max_examples=200, deadline=None)
@given(omega=period_matrices())
def test_matrix_file_round_trips_bit_for_bit(omega, tmp_path_factory):
    path = tmp_path_factory.mktemp("round-trip") / "m.mat"
    write_period_matrix(path, omega)
    assert load_period_matrix(path).entries.tobytes() == omega.entries.tobytes()
