import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfibounds.operators import (
    ModelSpec,
    PauliString,
    build_tfim,
    check_hermitian,
    pauli_string_matrix,
    random_hermitian,
    single_qubit_model,
)


class TestPauliStringMatrix:
    def test_single_site_x(self):
        m = pauli_string_matrix(PauliString({0: "X"}), 1)
        assert np.allclose(m, [[0, 1], [1, 0]])

    def test_z_on_second_site_with_coefficient(self):
        m = pauli_string_matrix(PauliString({1: "Z"}, coefficient=2.0), 2)
        assert np.allclose(m, np.diag([2, -2, 2, -2]))

    def test_xx_antidiagonal(self):
        # hand Kronecker product: -(sigma^x (x) sigma^x)
        m = pauli_string_matrix(PauliString({0: "X", 1: "X"}, coefficient=-1.0), 2)
        expected = -np.fliplr(np.eye(4))
        assert np.allclose(m, expected)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            pauli_string_matrix(PauliString({3: "X"}), 2)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            PauliString({0: "W"})

    @given(
        n=st.integers(1, 5),
        axes=st.dictionaries(st.integers(0, 4), st.sampled_from("XYZ"), max_size=5),
        coeff=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_hermitian_for_real_coefficient(self, n, axes, coeff):
        axes = {s: a for s, a in axes.items() if s < n}
        m = pauli_string_matrix(PauliString(axes, coeff), n)
        check_hermitian(m)


class TestCheckHermitian:
    def test_rejects_nan(self):
        # a deviation > tol test passes NaN; the off-diagonals differ by 1
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(np.array([[math.nan, 0.0], [1.0, 0.0]]))

    # one tile (1, 3, 127, 128), a partial last tile (129, 300)
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 3, 127, 128, 129, 300])
    def test_tiles_match_full_matrix_deviation(self, d, is_complex):
        h = random_hermitian(d, d)
        h = h if is_complex else h.real.copy()
        tol = 1e-12 * max(1.0, float(np.max(np.abs(h))))
        for i, j in {(d - 1, 0), (0, d - 1), (d // 2, d - 1), (d - 1, d - 1)}:
            for size in (0.4 * tol, 3.0 * tol):
                a = h.copy()
                a[i, j] += size * (1j if is_complex else 1.0)
                dev = float(np.max(np.abs(a - a.conj().T)))
                if dev <= 1e-12 * max(1.0, float(np.max(np.abs(a)))):
                    assert check_hermitian(a) is a
                else:
                    with pytest.raises(ValueError, match=re.escape(f"{dev:.3e}")):
                        check_hermitian(a)

    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 3, 127, 128, 129, 300])
    def test_rejects_nan_in_last_tile(self, d, is_complex):
        a = random_hermitian(d, d)
        a = a if is_complex else a.real.copy()
        a[d - 1, 0] = a[0, d - 1] = math.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(a)


class TestBuildTfim:
    def test_single_site_reduction(self):
        H, O = build_tfim(ModelSpec(1, math.pi / 2, 0.0))
        assert np.allclose(H, np.diag([1, -1]))
        assert np.allclose(O, [[0, 1], [1, 0]])

    def test_n2_spectrum(self):
        H, _ = build_tfim(ModelSpec(2, math.pi / 4, 0.0))
        expected = np.array(
            [-math.sqrt(5 / 2), -math.sqrt(1 / 2), math.sqrt(1 / 2), math.sqrt(5 / 2)]
        )
        assert np.allclose(np.linalg.eigvalsh(H), expected)

    def test_conjugate_observable_is_theta_derivative(self):
        spec = ModelSpec(3, 0.3, 0.1)
        _, O = build_tfim(spec)
        d = 1e-5
        Hp, _ = build_tfim(ModelSpec(3, 0.3, 0.1 + d))
        Hm, _ = build_tfim(ModelSpec(3, 0.3, 0.1 - d))
        assert np.max(np.abs((Hp - Hm) / (2 * d) - O)) < 1e-9

    @given(
        n=st.integers(1, 6),
        gamma=st.floats(-3, 3, allow_nan=False),
        theta=st.floats(-2, 2, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_hermitian_and_fd_identity(self, n, gamma, theta):
        spec = ModelSpec(n, gamma, theta)
        H, O = build_tfim(spec)
        check_hermitian(H)
        check_hermitian(O)
        d = 1e-5
        Hp, _ = build_tfim(ModelSpec(n, gamma, theta + d))
        Hm, _ = build_tfim(ModelSpec(n, gamma, theta - d))
        assert np.max(np.abs((Hp - Hm) / (2 * d) - O)) < 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(0, 1.0)
        with pytest.raises(ValueError):
            ModelSpec(15, 1.0)
        with pytest.raises(ValueError):
            ModelSpec(4, math.nan)

    @pytest.mark.parametrize("n_sites", [3.5, 4.0, True, "4"])
    def test_spec_refuses_non_integer_sizes(self, n_sites):
        # 3.5 used to pass and fail later in .dim; True ran as one site
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            ModelSpec(n_sites, 0.9)
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            pauli_string_matrix(PauliString({0: "X"}), n_sites)

    def test_spec_takes_numpy_integer_sizes(self):
        assert ModelSpec(np.int64(4), 0.9).dim == 16
        assert pauli_string_matrix(PauliString({0: "X"}), np.int32(2)).shape == (4, 4)


class TestRandomHermitian:
    def test_scalar_case_reproducible(self):
        a = random_hermitian(1, 0)
        b = random_hermitian(1, 0)
        assert a.shape == (1, 1)
        assert abs(a[0, 0].imag) == 0
        assert a[0, 0] == b[0, 0]

    def test_determinism(self):
        assert np.array_equal(random_hermitian(4, 7), random_hermitian(4, 7))

    def test_hermitian_by_construction(self):
        a = random_hermitian(8, 3)
        assert np.max(np.abs(a - a.conj().T)) == 0

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            random_hermitian(0, 1)


class TestSingleQubitModel:
    def test_theta_zero(self):
        H, O = single_qubit_model(0.0)
        assert np.allclose(H, np.diag([1, -1]))
        assert abs(abs(O[0, 1]) - 1.0) < 1e-15

    def test_theta_one_eigenvalues(self):
        H, _ = single_qubit_model(1.0)
        assert np.allclose(np.linalg.eigvalsh(H), [-math.sqrt(2), math.sqrt(2)])
