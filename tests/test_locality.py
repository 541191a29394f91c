import contextlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds import locality
from qfibounds.locality import (
    DressSpec,
    LocalApproximation,
    _gram_norm,
    _is_hermitian,
    _pauli_commutator_norm,
    _unitary_commutator_norm,
    commutator_decay_profile,
    commutator_norm,
    dressed_operator,
    local_approximation,
    spectral_norm,
)
from qfibounds.operators import (
    PauliString,
    check_hermitian,
    pauli_string_matrix,
    random_hermitian,
)
from qfibounds.sld import _cosine_kernel, _gauss_panels
from qfibounds.spectral import eigendecompose, to_eigenbasis

from conftest import dense_from_eigenbasis, unpruned_local_approximation


@pytest.fixture(scope="module")
def chain8():
    n = 8
    H, _ = q.build_tfim(q.ModelSpec(n, 0.4 * math.pi))
    eigs = eigendecompose(H)
    a_loc = pauli_string_matrix(PauliString({0: "X"}), n)
    return n, eigs, a_loc


class TestNorms:
    def test_spectral_norm_of_pauli(self):
        assert abs(spectral_norm(pauli_string_matrix(PauliString({0: "X"}), 2)) - 1.0) < 1e-12

    def test_commutator_norm_xz(self):
        x = pauli_string_matrix(PauliString({0: "X"}), 1)
        z = pauli_string_matrix(PauliString({0: "Z"}), 1)
        # [X, Z] = -2iY, spectral norm 2
        assert abs(commutator_norm(x, z) - 2.0) < 1e-12

    def test_commuting_supports(self):
        a = pauli_string_matrix(PauliString({0: "X"}), 3)
        b = pauli_string_matrix(PauliString({2: "Y"}), 3)
        assert commutator_norm(a, b) < 1e-14

    def test_slightly_non_hermitian_takes_svd(self):
        # non-Hermitian at 1e-7 relative: eigvalsh would read one triangle only
        a = _nearly_hermitian(4)
        b = pauli_string_matrix(PauliString({1: "X"}), 4)
        ref = spectral_norm(a @ b - b @ a)
        assert abs(commutator_norm(a, b) - ref) <= 1e-12 * max(1.0, ref)

    def test_non_hermitian_fallback(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = a @ b - b @ a
        assert abs(commutator_norm(a, b) - spectral_norm(c)) < 1e-10


def _accepted(a):
    try:
        check_hermitian(a)
    except ValueError:
        return False
    return True


class TestHermitianRule:
    """The locality diagnostics decide Hermiticity by check_hermitian's rule."""

    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_agrees_with_check_hermitian(self, is_complex):
        h = random_hermitian(200, 4)  # two tiles a side
        h = h if is_complex else h.real.copy()
        tol = 1e-12 * max(1.0, float(np.max(np.abs(h))))
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            a = h.copy()
            a[150, 2] += factor * tol * (1j if is_complex else 1.0)
            assert _is_hermitian(a) == _accepted(a) == (factor < 1.0)
        a = h.copy()
        a[150, 2] = math.nan
        assert not _is_hermitian(a) and not _accepted(a)


def _operator(kind, n):
    """A real symmetric, a complex Hermitian or a non-Hermitian complex A."""
    d = 1 << n
    rng = np.random.default_rng(100 + n)
    if kind == "real-symmetric":
        g = rng.standard_normal((d, d))
        return (g + g.T) / 2.0
    if kind == "complex-hermitian":
        return random_hermitian(d, seed=n)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _haar_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _nearly_hermitian(n):
    """A Hermitian matrix plus 1e-7 i (random real non-symmetric)."""
    d = 1 << n
    return random_hermitian(d, seed=n) + 1e-7j * np.random.default_rng(n).standard_normal((d, d))


KINDS = ("real-symmetric", "complex-hermitian", "non-hermitian")


def _assert_refused(a, n_random_probes):
    """The probe norms take a Hermitian A only: local_approximation refuses
    any other A, at every region, before a probe is formed."""
    for region in range(1, int(math.log2(len(a))) + 1):
        with pytest.raises(ValueError, match="not Hermitian"):
            local_approximation(a, region, n_random_probes=n_random_probes)


@contextlib.contextmanager
def _raises_quietly(exc):
    """``pytest.raises(exc)``, and no warning is emitted before the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(exc):
            yield
    assert not caught, [str(w.message) for w in caught]


class TestConjugationNorms:
    """Probe norms from the probe's structure against the dense reference,
    to 1e-12 max(1, ||A||) absolute: a decay profile's tail norms are
    ~1e-10, where a relative error means nothing.  The norms take a
    Hermitian A only; a non-Hermitian one is refused (``_assert_refused``)."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_pauli_matches_dense(self, n, kind):
        a = _operator(kind, n)
        if kind == "non-hermitian":
            _assert_refused(a, n_random_probes=0)
            return
        tol = 1e-12 * max(1.0, spectral_norm(a))
        for site in range(n):
            for axis in ("X", "Y", "Z"):
                ref = commutator_norm(a, pauli_string_matrix(PauliString({site: axis}), n))
                got = _pauli_commutator_norm(a, site, axis)
                assert abs(got - ref) <= tol, (site, axis)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_unitary_matches_dense(self, n, kind):
        a = _operator(kind, n)
        if kind == "non-hermitian":
            _assert_refused(a, n_random_probes=3)
            return
        tol = 1e-12 * max(1.0, spectral_norm(a))
        rng = np.random.default_rng(7 + n)
        for region in range(1, n + 1):
            u = _haar_unitary(1 << (n - region), rng)
            ref = commutator_norm(a, np.kron(np.eye(1 << region), u))
            got = _unitary_commutator_norm(a, u)
            assert abs(got - ref) <= tol, region

    def test_dressed_tail_matches_dense(self, chain8):
        # the decay profile's operator, whose far-site norms fall to 1e-6 ..
        # 1e-15: the Gram route keeps them to the same absolute tolerance
        n, eigs, a_loc = chain8
        a = dressed_operator(eigs, a_loc, DressSpec(mu=math.pi))
        tol = 1e-12 * max(1.0, spectral_norm(a))
        refs = []
        for site in range(n):
            for axis in ("X", "Y", "Z"):
                ref = commutator_norm(a, pauli_string_matrix(PauliString({site: axis}), n))
                refs.append(ref)
                got = _pauli_commutator_norm(a, site, axis)
                assert abs(got - ref) <= tol, (site, axis)
        assert min(refs) < 1e-12  # the tail is reached

    @pytest.mark.parametrize("axis", ["X", "Z"])
    def test_zero_coupling_is_exactly_zero(self, axis):
        n = 4
        for site in range(n):
            a = pauli_string_matrix(PauliString({site: axis}), n)
            assert _pauli_commutator_norm(a, site, axis) == 0.0, site

    @pytest.mark.parametrize("is_complex", [True, False])
    def test_nan_raises(self, is_complex):
        # a[0, d-1] links all-0 bits to all-1 bits, so every probe's coupling reads it
        n = 4
        a = _operator("complex-hermitian" if is_complex else "real-symmetric", n)
        a[0, -1] = math.nan
        for site in range(n):
            for axis in ("X", "Y", "Z"):
                with pytest.raises(np.linalg.LinAlgError):
                    _pauli_commutator_norm(a, site, axis)

    def test_gram_overflow_raises(self):
        # ||m||_F^2 overflows: eigvalsh of diag(inf, 1) returns NaN without
        # raising, and the norm must not come out NaN or clamped to 0
        a = np.zeros((4, 4))
        a[0, 2] = a[2, 0] = 1e160
        a[1, 3] = a[3, 1] = 1.0
        with _raises_quietly(np.linalg.LinAlgError):
            _pauli_commutator_norm(a, 0, "Z")


class TestDressedOperator:
    def test_route_equivalence(self, chain8):
        # the closed form against the time integral it evaluates, by Gauss
        # panels over |t| <= 16: the truncated tail is ~ 2 e^{-mu T} / mu, with
        # mu T = 32
        _, eigs, a_loc = chain8
        mu, horizon, panels = 2.0, 16.0, 256
        t, w = _gauss_panels(0.0, horizon, panels)
        e = eigs.energies
        quad = _cosine_kernel(e, e, t, w * np.exp(-mu * t)) * to_eigenbasis(eigs, a_loc)
        ref = dense_from_eigenbasis(eigs, (quad + quad.conj().T) / 2.0)
        closed = dressed_operator(eigs, a_loc, DressSpec(mu=mu))
        assert np.max(np.abs(closed - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_hermitian_output(self, chain8):
        _, eigs, a_loc = chain8
        d = dressed_operator(eigs, a_loc, DressSpec(mu=1.0))
        assert np.max(np.abs(d - d.conj().T)) < 1e-12

    def test_large_mu_proportional_to_undressed(self, chain8):
        n, eigs, a_loc = chain8
        mu = 50.0
        d = dressed_operator(eigs, a_loc, DressSpec(mu=mu))
        # filter -> 2/mu elementwise as mu -> infinity
        assert np.max(np.abs(mu * d / 2.0 - a_loc)) < 0.01
        for r in (2, 4, n - 1):
            probe = pauli_string_matrix(PauliString({r: "Z"}), n)
            assert commutator_norm(d, probe) < 1e-6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DressSpec(mu=0.0)

    @pytest.mark.parametrize("mu", [math.inf, math.nan, -1.0])
    def test_spec_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            DressSpec(mu=mu)

    def test_filter_overflow_raises(self, chain8):
        _, eigs, a_loc = chain8
        # 2 mu / (mu^2 + 0) is 2e-300 / 0 on the diagonal
        with pytest.raises(ValueError, match="not finite"):
            dressed_operator(eigs, a_loc, DressSpec(mu=1e-300))


class TestCommutatorDecayProfile:
    def test_exponential_tail(self, chain8):
        _, eigs, a_loc = chain8
        prof = commutator_decay_profile(eigs, a_loc, DressSpec(mu=1.0), probe_kind="Z")
        assert prof.fitted_rate > 0
        assert prof.fit_r2 >= 0.9
        tail = prof.commutator_norms[2:]
        assert np.all(np.diff(tail) < 0)

    def test_near_probe_excluded_from_fit(self, chain8):
        _, eigs, a_loc = chain8
        prof = commutator_decay_profile(eigs, a_loc, DressSpec(mu=1.0))
        # the overlapping/adjacent probes carry O(1) commutators
        assert prof.commutator_norms[0] > 0.1

    def test_too_short_chain(self):
        H, _ = q.build_tfim(q.ModelSpec(3, 0.5))
        eigs = eigendecompose(H)
        a = pauli_string_matrix(PauliString({0: "X"}), 3)
        with pytest.raises(ValueError, match="chain too short"):
            commutator_decay_profile(eigs, a, DressSpec(mu=1.0))

    def test_flat_profile_is_not_a_short_chain(self, chain8):
        _, eigs, a_loc = chain8
        # at mu = 1e6 the dressed operator is 2/mu times the bare one, so
        # every norm at distance >= 2 is below 1e-12
        with pytest.raises(ValueError, match="profile too flat") as exc:
            commutator_decay_profile(eigs, a_loc, DressSpec(mu=1e6))
        assert "chain too short" not in str(exc.value)

    def test_unknown_probe_axis(self, chain8):
        _, eigs, a_loc = chain8
        with pytest.raises(ValueError, match="unknown Pauli axis"):
            commutator_decay_profile(eigs, a_loc, DressSpec(mu=1.0), probe_kind="W")


class TestLocalApproximation:
    def test_error_bound_and_monotonicity(self, chain8):
        n, eigs, a_loc = chain8
        dressed = dressed_operator(eigs, a_loc, DressSpec(mu=math.pi))
        prev = math.inf
        for k in (2, 3, 4, 5):
            la = local_approximation(dressed, k, n_random_probes=5)
            assert la.err <= 2.0 * la.eps_hat + 1e-12
            assert la.err < prev
            prev = la.err

    def test_full_region_is_exact(self, chain8):
        n, eigs, a_loc = chain8
        dressed = dressed_operator(eigs, a_loc, DressSpec(mu=math.pi))
        la = local_approximation(dressed, n, n_random_probes=0)
        assert la.err < 1e-12

    def test_strictly_local_operator_is_recovered(self):
        a = pauli_string_matrix(PauliString({0: "X"}), 4)
        la = local_approximation(a, 1, n_random_probes=3)
        assert la.err < 1e-12
        assert la.eps_hat < 1e-12

    @pytest.mark.parametrize("kind", ("dressed", "complex-hermitian", "non-hermitian"))
    def test_matches_dense_reference(self, kind):
        n = 6
        if kind == "dressed":
            H, _ = q.build_tfim(q.ModelSpec(n, 0.4 * math.pi))
            a_loc = pauli_string_matrix(PauliString({0: "X"}), n)
            a = dressed_operator(eigendecompose(H), a_loc, DressSpec(mu=math.pi))
        else:
            a = _operator(kind, n)
        if kind == "non-hermitian":
            _assert_refused(a, n_random_probes=5)
            return
        tol = 1e-12 * max(1.0, spectral_norm(a))
        for k in (2, 3, 4, 5):
            got = local_approximation(a, k, n_random_probes=5, probe_seed=11)
            ref, ref_norms = _dense_local_approximation(a, k, 5, 11)
            assert abs(got.err - ref.err) <= tol, k
            assert abs(got.eps_hat - ref.eps_hat) <= tol, k
            # at k=5 the dressed operator's Y5 and Z5 norms tie to 1e-15, so
            # roundoff may pick either; a probe that loses by more than tol may not win
            assert got.max_probe == ref.max_probe or (
                ref.eps_hat - ref_norms[got.max_probe] <= tol
            ), k
            assert np.max(np.abs(got.a_prime - ref.a_prime)) <= tol, k

    def test_slightly_non_hermitian_is_refused(self):
        # off by 1e-7: check_hermitian's rule, as every other entry point applies it
        _assert_refused(_nearly_hermitian(5), n_random_probes=3)

    @pytest.mark.parametrize("region", [1, 2, 3])
    def test_nan_raises(self, region):
        a = _operator("complex-hermitian", 4)
        a[0, -1] = math.nan
        with pytest.raises(ValueError):
            local_approximation(a, region, n_random_probes=2)

    def test_region_validation(self):
        a = pauli_string_matrix(PauliString({0: "X"}), 3)
        with pytest.raises(ValueError):
            local_approximation(a, 0)
        with pytest.raises(ValueError):
            local_approximation(a, 4)

    @pytest.mark.parametrize("region", [-1, True, False, 2.5, 2.0, "2", None])
    def test_region_must_be_an_integer(self, region):
        # 1 << region raised a TypeError on 2.5, and True ran as region 1
        a = pauli_string_matrix(PauliString({0: "X"}), 3)
        with pytest.raises(ValueError, match="region"):
            local_approximation(a, region, n_random_probes=2)

    def test_region_numpy_integer(self):
        a = random_hermitian(8, seed=3)
        got = local_approximation(a, np.int64(2), n_random_probes=2, probe_seed=4)
        _assert_bitwise(got, local_approximation(a, 2, n_random_probes=2, probe_seed=4), "int64")

    def test_empty_complement(self, monkeypatch):
        # a random probe over an empty complement is a 1x1 phase whose
        # D = A - A is roundoff: none is drawn, and err is +0.0, not -0.0
        def unreachable(*args):
            raise AssertionError("a random probe was drawn over an empty complement")

        monkeypatch.setattr(locality, "_unitary_commutator_norm", unreachable)
        for name, a in _bound_cases(6):
            got = local_approximation(a, 6, n_random_probes=3)
            assert (got.err, got.eps_hat, got.max_probe) == (0.0, 0.0, ""), name
            assert math.copysign(1.0, got.err) == math.copysign(1.0, got.eps_hat) == 1.0, name
            assert got.a_prime.dtype == a.dtype and got.a_prime.tobytes() == a.tobytes(), name

    @pytest.mark.parametrize("region", [2, 3])
    def test_zero_operator_reads_positive_zero(self, region):
        # below the full region the zero operator's err is a Hermitian norm
        # of the zero matrix, which read -0.0
        got = local_approximation(np.zeros((16, 16)), region, 2)
        assert got.err == got.eps_hat == 0.0
        assert not np.signbit(got.err) and not np.signbit(got.eps_hat)

    def test_overflowing_operator_raises_quietly(self):
        # the first Pauli probe's Gram matrix overflows; no RuntimeWarning
        # from the GEMM may come before the LinAlgError
        with _raises_quietly(np.linalg.LinAlgError):
            local_approximation(1e200 * random_hermitian(64, 3), 3, n_random_probes=1)

    @pytest.mark.parametrize("count", [-3, -1, True, False, 2.5])
    def test_probe_count_validation(self, count):
        # range() would run -3 as zero probes and True as one, and raise a
        # TypeError on 2.5 after every Pauli probe
        a = pauli_string_matrix(PauliString({0: "X"}), 3)
        with pytest.raises(ValueError, match="n_random_probes"):
            local_approximation(a, 2, n_random_probes=count)
        assert local_approximation(a, 2, n_random_probes=0).eps_hat == 0.0

    def test_probe_count_numpy_integer(self):
        a = random_hermitian(8, seed=3)
        got = local_approximation(a, 1, n_random_probes=np.int64(2), probe_seed=4)
        _assert_bitwise(got, local_approximation(a, 1, n_random_probes=2, probe_seed=4), "int64")


def _bound_cases(n):
    """The dressed sigma^x_0 at theta in {0, 0.1} and mu in {pi, 0.3}, a
    random Hermitian A and the zero matrix on n sites."""
    a_loc = pauli_string_matrix(PauliString({0: "X"}), n)
    for theta in (0.0, 0.1):
        eigs = eigendecompose(q.build_tfim(q.ModelSpec(n, 0.4 * math.pi, theta))[0])
        for mu in (math.pi, 0.3):
            yield f"dressed-{theta}-{mu:.3g}", dressed_operator(eigs, a_loc, DressSpec(mu=mu))
    yield "random-hermitian", random_hermitian(1 << n, seed=40 + n)
    yield "zero", np.zeros((1 << n, 1 << n))


def _assert_bitwise(got, ref, case):
    # the floats' bytes, so that a sign of zero counts too
    assert np.float64(got.err).tobytes() == np.float64(ref.err).tobytes(), case
    assert np.float64(got.eps_hat).tobytes() == np.float64(ref.eps_hat).tobytes(), case
    assert got.max_probe == ref.max_probe, case
    assert got.a_prime.dtype == ref.a_prime.dtype, case
    assert got.a_prime.tobytes() == ref.a_prime.tobytes(), case


class _EigvalshSpy:
    """Counts the ``eigvalsh`` calls by matrix size."""

    def __init__(self):
        self.calls, self.inner = Counter(), np.linalg.eigvalsh

    def __call__(self, a, *args, **kwargs):
        self.calls[a.shape[0]] += 1
        return self.inner(a, *args, **kwargs)


def _drawn_operator(n, kind, seed):
    """A real symmetric, a complex Hermitian or a Pauli-string A on n sites."""
    rng = np.random.default_rng(seed)
    if kind == "pauli":  # a Gram matrix that is a multiple of the identity
        axes = rng.choice(list("IXYZ"), n)
        return pauli_string_matrix(PauliString({j: str(x) for j, x in enumerate(axes) if x != "I"}), n)
    if kind == "real-symmetric":
        g = rng.standard_normal((1 << n, 1 << n))
        return (g + g.T) / 2.0
    return random_hermitian(1 << n, seed)


def _assert_floor_kept(norm_at, certified=False):
    """``norm_at(floor)`` against the unfloored norm, at floors just and well
    on either side of it: below the norm every bit is kept (the bounds fail
    and any in-place shift is undone), and a value below its floor is only
    returned when the norm is not above the floor."""
    norm = norm_at(0.0)
    for factor in (1 - 1e-3, 1 - 1e-9, 1 + 1e-9, 1 + 1e-3):
        floor = norm * factor
        got = norm_at(floor)
        if factor < 1:
            assert got == norm, factor
        if got < floor:
            assert norm <= floor, factor
    if certified and norm > 0:  # a 1e-3 margin is far above the factorization's error
        assert norm_at(norm * (1 + 1e-3)) < norm * (1 + 1e-3)


class TestProbeBound:
    """A probe bounded below the running maximum skips its dense step;
    every field stays bitwise the unpruned loop's."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bitwise_unpruned(self, n):
        random_won = False
        for name, a in _bound_cases(n):
            for region in range(1, n + 1):
                for probes in (0, 3) if n < 7 else (0,):  # random probes are slow from n = 7
                    case = (name, region, probes)
                    got = local_approximation(a, region, n_random_probes=probes, probe_seed=17)
                    ref = unpruned_local_approximation(a, region, probes, 17)
                    _assert_bitwise(got, ref, case)
                    random_won |= region < n and ref.max_probe.startswith("random:")
        # a random probe that wins has failed its Cholesky test: the fallback runs
        assert random_won or n >= 7

    def test_bitwise_unpruned_n10(self):
        n = 10
        eigs = eigendecompose(q.build_tfim(q.ModelSpec(n, 0.4 * math.pi, 0.1))[0])
        a = dressed_operator(eigs, pauli_string_matrix(PauliString({0: "X"}), n), DressSpec(mu=0.3))
        # a random probe here is a 1024^2 complex eigvalsh; the smaller n cover them
        got = local_approximation(a, 8, n_random_probes=0)
        _assert_bitwise(got, unpruned_local_approximation(a, 8, 0), "n10")

    def _assert_bound_covers(self, a):
        n = int(math.log2(a.shape[0]))
        for site in range(n):
            for axis in ("X", "Y", "Z"):
                norm = _pauli_commutator_norm(a, site, axis)
                assert _pauli_commutator_norm(a, site, axis, math.inf) >= norm, (site, axis)

    @pytest.mark.parametrize("n", [6, 8])
    def test_bound_covers_dressed_tails(self, n):
        # the far-site norms of the dressed operator fall to ~1e-15
        for _, a in _bound_cases(n):
            self._assert_bound_covers(a)
        self._assert_bound_covers(_operator("complex-hermitian", n))  # complex Y couplings

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        kind=st.sampled_from(["real-symmetric", "complex-hermitian", "pauli"]),
        seed=st.integers(0, 2**16),
        exponent=st.integers(-100, 100),
    )
    def test_bound_covers_norm(self, n, kind, seed, exponent):
        self._assert_bound_covers(_drawn_operator(n, kind, seed) * 10.0**exponent)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        kind=st.sampled_from(["real-symmetric", "complex-hermitian", "pauli"]),
        seed=st.integers(0, 2**16),
        exponent=st.integers(-100, 100),
        data=st.data(),
    )
    def test_floor_keeps_the_norm(self, n, kind, seed, exponent, data):
        a = _drawn_operator(n, kind, seed) * 10.0**exponent
        dc = 1 << data.draw(st.integers(1, n), label="trailing sites")
        u = _haar_unitary(dc, np.random.default_rng(seed + 1))
        _assert_floor_kept(lambda floor: _unitary_commutator_norm(a, u, floor), certified=True)
        for site in range(n):
            for axis in ("X", "Y", "Z"):
                _assert_floor_kept(lambda floor: _pauli_commutator_norm(a, site, axis, floor))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("floor", [1.0, math.inf])
    def test_pauli_bound_keeps_the_finiteness_check(self, bad, floor):
        a = _operator("complex-hermitian", 4)
        a[1, 8] = a[8, 1] = bad  # in the site-0 coupling a_01
        for axis in ("X", "Y", "Z"):
            with _raises_quietly(np.linalg.LinAlgError):
                _pauli_commutator_norm(a, 0, axis, floor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("floor", [0.0, 1.0, math.inf])
    def test_cholesky_test_refuses_non_finite(self, bad, floor):
        # Cholesky passes NaN and inf through without an error; the unfloored
        # eigvalsh raises, and so must a floored call
        a = _operator("complex-hermitian", 4)
        a[0, -1] = a[-1, 0] = bad
        u = _haar_unitary(4, np.random.default_rng(1))
        with _raises_quietly(np.linalg.LinAlgError):
            _unitary_commutator_norm(a, u, floor)

    def test_pauli_bound_keeps_the_overflow_check(self):
        # ||m|| = 1e153 is below the floor, but ||m||_F^2 = 256e306 overflows
        with _raises_quietly(np.linalg.LinAlgError):
            _gram_norm(1e153 * np.eye(256), 2e153)

    def test_far_probes_skip_eigvalsh(self, chain8, monkeypatch):
        # region 2 of the dressed sigma^x_0 on 8 sites: 18 Pauli probes, each
        # Gram matrix 128 x 128; err's and the random probes' are 256 x 256,
        # and both random probes pass their Cholesky test
        n, eigs, a_loc = chain8
        a = dressed_operator(eigs, a_loc, DressSpec(mu=math.pi))
        ref = unpruned_local_approximation(a, 2, 2, 5)
        spy = _EigvalshSpy()
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        got = local_approximation(a, 2, n_random_probes=2, probe_seed=5)
        assert spy.calls[1 << (n - 1)] < 9
        assert spy.calls[1 << n] == 1  # err's
        _assert_bitwise(got, ref, "chain8")

    def test_profile_computes_every_norm(self, chain8, monkeypatch):
        # the decay profile needs every norm: nothing is skipped there
        n, eigs, a_loc = chain8
        spy = _EigvalshSpy()
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        commutator_decay_profile(eigs, a_loc, DressSpec(mu=math.pi), probe_kind="Z")
        assert spy.calls[1 << (n - 1)] == n


def _dense_local_approximation(A, region, n_random_probes, probe_seed):
    """The kron-based implementation the conjugation norms replaced: every
    probe is embedded as a dense I (x) B and goes through ``commutator_norm``.
    Also returns every probe's norm by label."""
    A = np.asarray(A, dtype=complex)
    d = A.shape[0]
    n_sites = int(round(math.log2(d)))
    dk = 1 << region
    dc = d // dk
    a_prime = np.einsum("ajbj->ab", A.reshape(dk, dc, dk, dc)) / dc
    err = spectral_norm(A - np.kron(a_prime, np.eye(dc)))

    probes = [
        (f"pauli:{axis}{j}", pauli_string_matrix(PauliString({j - region: axis}), n_sites - region))
        for j in range(region, n_sites)
        for axis in ("X", "Y", "Z")
    ]
    rng = np.random.default_rng(probe_seed)
    probes += [(f"random:{k}", _haar_unitary(dc, rng)) for k in range(n_random_probes)]
    norms = {}
    eps_hat, max_probe = 0.0, ""
    for label, b in probes:
        val = norms[label] = commutator_norm(A, np.kron(np.eye(dk), b)) / spectral_norm(b)
        if val > eps_hat:
            eps_hat, max_probe = val, label
    ref = LocalApproximation(a_prime=a_prime, err=err, eps_hat=eps_hat, max_probe=max_probe)
    return ref, norms
