import math

import numpy as np
import pytest

import qfibounds as q
from qfibounds.locality import (
    DressSpec,
    LocalApproximation,
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
from qfibounds.spectral import eigendecompose


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


class TestConjugationNorms:
    """Probe norms from the probe's structure against the dense reference,
    to 1e-12 max(1, ||A||) absolute: a decay profile's tail norms are
    ~1e-10, where a relative error means nothing."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_pauli_matches_dense(self, n, kind):
        a = _operator(kind, n)
        tol = 1e-12 * max(1.0, spectral_norm(a))
        hermitian_flags = (False,) if kind == "non-hermitian" else (True, False)
        for site in range(n):
            for axis in ("X", "Y", "Z"):
                ref = commutator_norm(a, pauli_string_matrix(PauliString({site: axis}), n))
                for hermitian in hermitian_flags:
                    got = _pauli_commutator_norm(a, site, axis, hermitian)
                    assert abs(got - ref) <= tol, (site, axis, hermitian)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_unitary_matches_dense(self, n, kind):
        a = _operator(kind, n)
        tol = 1e-12 * max(1.0, spectral_norm(a))
        rng = np.random.default_rng(7 + n)
        for region in range(1, n + 1):
            u = _haar_unitary(1 << (n - region), rng)
            ref = commutator_norm(a, np.kron(np.eye(1 << region), u))
            got = _unitary_commutator_norm(a, u, kind != "non-hermitian")
            assert abs(got - ref) <= tol, region


class TestDressedOperator:
    def test_route_equivalence(self, chain8):
        _, eigs, a_loc = chain8
        closed = dressed_operator(eigs, a_loc, DressSpec(mu=2.0))
        quad = dressed_operator(
            eigs, a_loc, DressSpec(mu=2.0, horizon=8.0, panels=256, closed_form=False)
        )
        # truncation tail ~ 2 e^{-mu T} / mu with mu T = 16
        assert np.max(np.abs(closed - quad)) < 1e-6

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
        with pytest.raises(ValueError):
            DressSpec(mu=1.0, closed_form=False)  # needs horizon

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

    def test_slightly_non_hermitian_matches_svd(self):
        a = _nearly_hermitian(5)
        tol = 1e-12 * max(1.0, spectral_norm(a))
        svd = lambda x, b: spectral_norm(x @ b - b @ x)  # noqa: E731
        for k in (2, 3):
            got = local_approximation(a, k, n_random_probes=3, probe_seed=5)
            ref, _ = _dense_local_approximation(a, k, 3, 5, commutator=svd)
            assert abs(got.err - ref.err) <= tol, k
            assert abs(got.eps_hat - ref.eps_hat) <= tol, k

    def test_region_validation(self):
        a = pauli_string_matrix(PauliString({0: "X"}), 3)
        with pytest.raises(ValueError):
            local_approximation(a, 0)
        with pytest.raises(ValueError):
            local_approximation(a, 4)


def _dense_local_approximation(A, region, n_random_probes, probe_seed,
                               commutator=commutator_norm):
    """The kron-based implementation the conjugation norms replaced: every
    probe is embedded as a dense I (x) B and goes through ``commutator``.
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
        val = norms[label] = commutator(A, np.kron(np.eye(dk), b)) / spectral_norm(b)
        if val > eps_hat:
            eps_hat, max_probe = val, label
    ref = LocalApproximation(a_prime=a_prime, err=err, eps_hat=eps_hat, max_probe=max_probe)
    return ref, norms
