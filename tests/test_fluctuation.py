import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds.fluctuation import (
    AUTOCORRELATION,
    DISSIPATION,
    FREQ_MERGE_TOL,
    KernelKind,
    LineSpectrum,
    _aggregate,
    autocorrelation_spectrum,
    dissipation_spectrum,
    generalized_fdt,
    moment,
)

from conftest import expm1_dissipation, full_spectrum, random_instance, rel_close


class TestAggregate:
    def test_merges_nearby_frequencies(self):
        s = _aggregate([1.0, 1.0 + 1e-12, 2.0], [0.5, 0.25, 1.0], AUTOCORRELATION)
        assert len(s) == 2
        assert rel_close(float(s.weights[0]), 0.75)

    def test_snaps_zero(self):
        s = _aggregate([1e-11, -1e-11], [1.0, 1.0], AUTOCORRELATION)
        assert len(s) == 1
        assert s.omegas[0] == 0.0

    def test_empty(self):
        s = _aggregate([], [], DISSIPATION)
        assert len(s) == 0 and s.total_weight() == 0.0

    def test_sorted_output(self):
        s = _aggregate([3.0, -1.0, 2.0], [1, 1, 1], AUTOCORRELATION)
        assert np.all(np.diff(s.omegas) > 0)

    def test_merged_line_at_weighted_frequency(self):
        # |w|-weighted, so a signed dissipation weight pulls like a positive
        # one; the plain mean where every weight is 0
        s = _aggregate([1.0, 1.0 + 4e-11, 2.0, 2.0 + 4e-11], [-3.0, 1.0, 0.0, 0.0],
                       DISSIPATION)
        assert len(s) == 2 and s.weights[0] == -2.0
        assert abs(s.omegas[0] - (1.0 + 1e-11)) <= 1e-15
        assert abs(s.omegas[1] - (2.0 + 2e-11)) <= 1e-15

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_group_weight_independent_of_line_order(self, order):
        # (1 + 1e-16) + 1e-16 rounds to 1, the two small lines added first
        # do not: a group sums by |w| whatever order its lines arrive in
        w = np.array([1.0, 1e-16, 1e-16])[list(order)]
        s = _aggregate([-2.0, -2.0, -2.0, 2.0, 2.0 + 1e-11, 2.0], np.concatenate([-w, w]),
                       DISSIPATION)
        assert s.weights.tolist() == [-(2e-16 + 1.0), 2e-16 + 1.0]


class TestAutocorrelationSpectrum:
    def test_single_qubit_lines(self, single_qubit_beta1):
        O, ens = single_qubit_beta1
        s = autocorrelation_spectrum(ens, O)
        # lines at omega = -2, 0, +2; the zero line has no classical weight
        assert np.allclose(s.omegas, [-2.0, 0.0, 2.0])
        assert s.weights[1] < 1e-14
        # S(omega) weights are pi (p_m + p_n) |O_mn|^2 = pi here
        assert rel_close(float(s.weights[0]), math.pi)
        assert rel_close(float(s.weights[2]), math.pi)

    def test_sum_rule(self, tfim3):
        _, O, ens = tfim3
        s = autocorrelation_spectrum(ens, O)
        assert rel_close(s.total_weight(), 2 * math.pi * q.variance(ens, O))

    def test_even_spectrum(self, tfim3):
        _, O, ens = tfim3
        s = autocorrelation_spectrum(ens, O)
        for w, wt in s.rows():
            match = [wt2 for w2, wt2 in s.rows() if abs(w2 + w) < 1e-9]
            assert len(match) == 1 and rel_close(wt, match[0])

    def test_nonnegative_weights(self, tfim3):
        _, O, ens = tfim3
        s = autocorrelation_spectrum(ens, O)
        assert np.all(s.weights >= -1e-15)

    def test_commuting_case_single_zero_line(self):
        H = np.diag([1.0, -1.0]).astype(complex)
        ens = q.prepared_gibbs(H, H, 1.0)
        s = autocorrelation_spectrum(ens, H)
        nz = s.weights > 1e-14
        assert np.array_equal(s.omegas[nz], [0.0])
        assert rel_close(s.total_weight(), 2 * math.pi * q.variance(ens, H))


class TestDissipationSpectrum:
    def test_odd_spectrum_no_zero_line(self, tfim3):
        _, O, ens = tfim3
        s = dissipation_spectrum(ens, O)
        assert np.all(s.omegas != 0.0) or np.all(
            np.abs(s.weights[s.omegas == 0.0]) < 1e-14
        )
        for w, wt in s.rows():
            match = [wt2 for w2, wt2 in s.rows() if abs(w2 + w) < 1e-9]
            assert len(match) == 1 and rel_close(wt, -match[0], abs_=1e-14)

    def test_positive_at_positive_frequency(self, tfim3):
        _, O, ens = tfim3
        s = dissipation_spectrum(ens, O)
        assert np.all(s.weights[s.omegas > 0] >= -1e-15)

    def test_commuting_case_vanishes(self):
        H = np.diag([1.0, -1.0]).astype(complex)
        s = dissipation_spectrum(q.prepared_gibbs(H, H, 1.0), H)
        assert float(np.max(np.abs(s.weights), initial=0.0)) < 1e-14


class TestHighTemperatureWeights:
    """The dissipation weights pi (p_m + p_n) tanh(beta omega / 2) |O_mn|^2
    keep full precision at every beta; pi (p_m - p_n) |O_mn|^2 lost digits
    to the difference's cancellation as beta -> 0 (up to 1.9e-8 relative at
    beta = 1e-6 and 2.1e-6 at beta = 1e-8 on this grid)."""

    GRID = [pytest.param(n, theta, beta, id=f"n{n}-t{theta}-b{beta:g}")
            for n in (6, 8) for theta in (0.0, 0.1) for beta in (1e-8, 1e-6, 1e-3, 1.0, 20.0)]

    @staticmethod
    def _ensemble(n, theta, beta):
        H, O = q.tfim_operators(q.ModelSpec(n, 0.9, theta))
        return q.prepared_gibbs(H, O, beta), O

    @pytest.mark.parametrize("n, theta, beta", GRID)
    def test_matches_expm1_reference(self, n, theta, beta):
        ens, O = self._ensemble(n, theta, beta)
        got, ref = dissipation_spectrum(ens, O), expm1_dissipation(ens, O)
        assert len(got) == len(ref)
        assert np.max(np.abs(got.omegas - ref.omegas)) <= 1e-12
        big = np.abs(ref.weights) > 1e-12 * np.max(np.abs(ref.weights))
        assert np.all(np.abs(got.weights - ref.weights)[big] <= 1e-14 * np.abs(ref.weights[big]))

    @pytest.mark.parametrize("n, theta, beta", GRID)
    def test_fdt_line_by_line(self, n, theta, beta):
        ens, O = self._ensemble(n, theta, beta)
        recon = generalized_fdt(dissipation_spectrum(ens, O), ens, O)
        direct = autocorrelation_spectrum(ens, O)
        assert len(recon) == len(direct)
        assert np.max(np.abs(recon.omegas - direct.omegas)) <= 1e-12
        assert np.all(np.abs(recon.weights - direct.weights) <= 1e-12 * direct.weights)


class TestHalfLines:
    """Each spectrum is its omega > 0 half, merged and mirrored: S even and
    Im chi odd to the bit, and against the full line set merged by
    ``_aggregate`` (``full_spectrum``) the same frequencies and the same
    omega > 0 weights, bit for bit."""

    @pytest.mark.parametrize("n, theta, beta", TestHighTemperatureWeights.GRID)
    def test_exact_mirror(self, n, theta, beta):
        ens, O = TestHighTemperatureWeights._ensemble(n, theta, beta)
        auto, diss = autocorrelation_spectrum(ens, O), dissipation_spectrum(ens, O)
        for s, sign in ((auto, 1.0), (diss, -1.0), (generalized_fdt(diss, ens, O), 1.0)):
            assert np.array_equal(s.omegas, -s.omegas[::-1])
            assert np.array_equal(s.weights, sign * s.weights[::-1])
        for got in (auto, diss):
            ref = full_spectrum(ens, O, got.kind)
            assert got.omegas.tobytes() == ref.omegas.tobytes()
            pos = ref.omegas > 0.0
            assert got.weights[pos].tobytes() == ref.weights[pos].tobytes()

    @staticmethod
    def _doublets(n):
        # gamma = 0.05 with eps_deg = 1e-14 keeps the ferromagnetic doublets
        # apart: their splittings put lines within FREQ_MERGE_TOL of 0
        H, O = q.build_tfim(q.ModelSpec(n, 0.05))
        return q.prepared_gibbs(H, O, 1.0, eps_deg=1e-14), O

    @staticmethod
    def _against_full(ens, O):
        out = []
        for got in (autocorrelation_spectrum(ens, O), dissipation_spectrum(ens, O)):
            ref = full_spectrum(ens, O, got.kind)
            assert len(got) == len(ref)
            assert got.omegas.tobytes() == ref.omegas.tobytes()
            assert np.max(np.abs(got.weights - ref.weights)) <= 1e-14 * np.max(np.abs(ref.weights))
            out.append(got)
        return out

    def test_two_zero_lines_where_the_mirror_is_apart(self):
        # N = 8: the doublet lines at +-7.8e-11 lie more than FREQ_MERGE_TOL
        # apart, so Im chi's two sides merge apart, each snapped to omega = 0
        auto, diss = self._against_full(*self._doublets(8))
        assert len(auto) == 3279 and len(diss) == 3280
        zero = diss.weights[diss.omegas == 0.0]
        assert len(zero) == 2 and zero[0] == -zero[1] and 3e-9 < zero[1] < 4e-9

    def test_one_zero_line_where_the_group_chains_through_zero(self):
        # N = 9: splittings of 3.9e-12 chain +-omega through 0 into one group,
        # its own mirror: S's zero line takes both sides, Im chi's weighs +0.0
        auto, diss = self._against_full(*self._doublets(9))
        assert np.count_nonzero(auto.omegas == 0.0) == 1
        zero = diss.weights[diss.omegas == 0.0]
        assert len(zero) == 1 and zero.tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("n, theta", [(4, 0.1), (6, 0.0), (8, 0.1)])
    def test_no_negative_zero_at_beta_zero(self, n, theta):
        # every dissipation weight is 0 at beta = 0; none may print as -0
        H, O = q.tfim_operators(q.ModelSpec(n, 0.9, theta))
        ens = q.prepared_gibbs(H, O, 0.0)
        diss = dissipation_spectrum(ens, O)
        assert np.all(diss.weights == 0.0)
        for s in (autocorrelation_spectrum(ens, O), diss):
            assert not np.any(np.signbit(s.weights) & (s.weights == 0.0))
            assert not np.any(np.signbit(s.omegas) & (s.omegas == 0.0))


class TestDissipationRoute:
    """The QFI from the dissipation spectrum (Hauke, Heyl, Tagliacozzo and
    Zoller, Nat. Phys. 12, 778 (2016)): F = beta^2 c + (2/pi) sum over the
    dissipation lines of tanh(beta omega / 2) / omega^2 times their weight,
    c the autocorrelation spectrum's omega = 0 weight over 2 pi."""

    BETA = 2.0
    # gamma = 0.05 at N = 6: the ferromagnetic doublets fall inside eps_deg
    CASES = {
        **{f"tfim{n}_g{g}_t{t}": (lambda n=n, g=g, t=t: q.build_tfim(q.ModelSpec(n, g, t)))
           for n, g in ((4, 0.9), (6, 0.9), (6, 0.05)) for t in (0.0, 0.1)},
        "complex_d8": lambda: (q.random_hermitian(8, 11), q.random_hermitian(8, 12)),
    }

    def _route_and_qfi(self, H, O):
        ens = q.prepared_gibbs(H, O, self.BETA)
        diss = dissipation_spectrum(ens, O)
        assert np.all(diss.omegas != 0.0)
        auto = autocorrelation_spectrum(ens, O)
        c = float(np.sum(auto.weights[auto.omegas == 0.0])) / (2.0 * math.pi)
        w = diss.omegas
        kernel = np.tanh(self.BETA * w / 2.0) / w**2
        f = self.BETA**2 * c + (2.0 / math.pi) * float(np.dot(kernel, diss.weights))
        return f, q.qfi_spectral(ens, O)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_qfi_spectral(self, case):
        f, qfi = self._route_and_qfi(*self.CASES[case]())
        assert math.isclose(f, qfi, rel_tol=1e-10, abs_tol=0.0)

    def test_merged_near_doublet_lines(self):
        # N = 4, gamma = 0.05 has two near-doublet clusters whose lines fall
        # within FREQ_MERGE_TOL: at their weighted frequency the route agrees
        # as well as the sum over the unaggregated lines does
        f, qfi = self._route_and_qfi(*q.build_tfim(q.ModelSpec(4, 0.05, 0.0)))
        assert math.isclose(f, qfi, rel_tol=1e-11, abs_tol=0.0)

    def test_doublets_cluster(self):
        H, O = self.CASES["tfim6_g0.05_t0.0"]()
        assert any(b - a > 1 for a, b in q.prepared_gibbs(H, O, self.BETA).eigs.clusters)


class TestKernels:
    def test_zero_frequency_limits_agree(self):
        beta = 1.7
        z = np.array([0.0])
        for k in KernelKind:
            assert rel_close(float(k.evaluate(z, beta)[0]), beta**2 / 4)

    def test_small_omega_continuity(self):
        beta = 2.0
        w = np.array([1e-8])
        for k in KernelKind:
            assert rel_close(float(k.evaluate(w, beta)[0]), beta**2 / 4, rel=1e-8)

    @given(omega=st.floats(-50, 50, allow_nan=False), beta=st.floats(0.01, 20))
    @settings(max_examples=80, deadline=None)
    def test_pointwise_ordering(self, omega, beta):
        # qfi <= susceptibility <= variance kernel at every frequency: this
        # ordering is the bounds chain in integral form
        w = np.array([omega])
        vals = [float(k.evaluate(w, beta)[0]) for k in KernelKind]
        assert vals[0] <= vals[1] + 1e-15 * beta**2
        assert vals[1] <= vals[2] + 1e-15 * beta**2


class TestMoments:
    def test_route_equivalence(self, tfim3):
        _, O, ens = tfim3
        beta = ens.beta
        s = autocorrelation_spectrum(ens, O)
        assert rel_close(moment(s, KernelKind.QFI, beta), q.qfi_spectral(ens, O))
        assert rel_close(
            moment(s, KernelKind.SUSCEPTIBILITY, beta) / beta,
            q.susceptibility(ens, O),
        )
        assert rel_close(
            moment(s, KernelKind.VARIANCE, beta) / beta**2, q.variance(ens, O)
        )

    @given(seed=st.integers(0, 3000), beta=st.sampled_from([0.1, 1.0, 10.0]))
    @settings(max_examples=30, deadline=None)
    def test_route_equivalence_random(self, seed, beta):
        _, O, ens = random_instance(4, beta, seed)
        s = autocorrelation_spectrum(ens, O)
        assert rel_close(moment(s, KernelKind.QFI, beta), q.qfi_spectral(ens, O))

    def test_wrong_kind_rejected(self, tfim3):
        _, O, ens = tfim3
        with pytest.raises(ValueError):
            moment(dissipation_spectrum(ens, O), KernelKind.QFI, ens.beta)


class TestGeneralizedFdt:
    def _check_line_by_line(self, ens, O):
        recon = generalized_fdt(dissipation_spectrum(ens, O), ens, O)
        direct = autocorrelation_spectrum(ens, O)
        assert len(recon) == len(direct)
        assert np.allclose(recon.omegas, direct.omegas, atol=1e-12)
        assert np.allclose(recon.weights, direct.weights, rtol=1e-9, atol=1e-12)

    def test_tfim(self, tfim3):
        _, O, ens = tfim3
        self._check_line_by_line(ens, O)

    def test_single_qubit(self, single_qubit_beta1):
        O, ens = single_qubit_beta1
        self._check_line_by_line(ens, O)

    @given(seed=st.integers(0, 2000), beta=st.sampled_from([0.2, 1.0, 5.0]))
    @settings(max_examples=25, deadline=None)
    def test_random_instances(self, seed, beta):
        _, O, ens = random_instance(4, beta, seed)
        self._check_line_by_line(ens, O)

    def test_merged_near_doublet_lines(self):
        # the omega ~ 1.4e-5 near-doublet line of N = 10, gamma = 0.3: coth
        # amplifies any misplacement of the merged frequency
        H, O = q.build_tfim(q.ModelSpec(10, 0.3, 0.0))
        ens = q.prepared_gibbs(H, O, 2.0)
        recon = generalized_fdt(dissipation_spectrum(ens, O), ens, O)
        direct = autocorrelation_spectrum(ens, O)
        assert len(recon) == len(direct)
        assert np.max(np.abs(recon.omegas - direct.omegas)) <= 1e-12
        assert np.all(np.abs(recon.weights - direct.weights) <= 1e-11 * np.abs(direct.weights))

    def test_commuting_case_correction_is_everything(self):
        # [H, O] = 0: Im chi vanishes and the zero-frequency correction term
        # carries the entire spectrum
        H = np.diag([1.0, -1.0]).astype(complex)
        ens = q.prepared_gibbs(H, H, 1.0)
        recon = generalized_fdt(dissipation_spectrum(ens, H), ens, H)
        direct = autocorrelation_spectrum(ens, H)
        assert rel_close(recon.total_weight(), direct.total_weight())
        assert rel_close(recon.total_weight(), 2 * math.pi * q.variance(ens, H))

    def test_rejects_wrong_kind(self, tfim3):
        _, O, ens = tfim3
        with pytest.raises(ValueError):
            generalized_fdt(autocorrelation_spectrum(ens, O), ens, O)

    def test_rejects_foreign_spectrum(self, tfim3):
        _, O, ens = tfim3
        alien = LineSpectrum(
            np.array([-math.e, math.e]), np.array([-1.0, 1.0]), DISSIPATION
        )
        with pytest.raises(ValueError, match="energy"):
            generalized_fdt(alien, ens, O)

    def test_rejects_beta_zero(self):
        H, O = q.build_tfim(q.ModelSpec(2, 0.5))
        ens = q.prepared_gibbs(H, O, 0.0)
        with pytest.raises(ValueError):
            generalized_fdt(dissipation_spectrum(ens, O), ens, O)

    @staticmethod
    def _moved(spectrum, k, shift):
        omegas = spectrum.omegas.copy()
        omegas[k] += shift
        return LineSpectrum(omegas, spectrum.weights, DISSIPATION)

    def test_rejects_moved_line(self, tfim3):
        _, O, ens = tfim3
        diss = dissipation_spectrum(ens, O)
        k = len(diss) - 1
        moved = self._moved(diss, k, 1e-6)
        with pytest.raises(ValueError, match=re.escape(f"omega={moved.omegas[k]} ")):
            generalized_fdt(moved, ens, O)
        generalized_fdt(self._moved(diss, k, 1e-9), ens, O)

    def test_rejects_nan_line(self, tfim3):
        _, O, ens = tfim3
        diss = dissipation_spectrum(ens, O)
        with pytest.raises(ValueError, match="omega=nan "):
            generalized_fdt(self._moved(diss, len(diss) - 1, math.nan), ens, O)

    def test_guard_accepts_lines_near_zero(self, tfim3):
        # omega = 0 is a level difference of every ensemble (m = n); the half
        # the guard searches holds only omega > 0 and takes 0 beside it
        _, O, ens = tfim3
        assert np.min(np.abs(np.diff(np.sort(ens.eigs.energies)))) > 1e-6
        near = LineSpectrum(np.array([-5e-9, 0.0, 5e-9]), np.zeros(3), DISSIPATION)
        generalized_fdt(near, ens, O)
        with pytest.raises(ValueError, match="omega=-2e-08 "):
            generalized_fdt(LineSpectrum(np.array([-2e-8]), np.zeros(1), DISSIPATION), ens, O)

    @pytest.mark.parametrize("shift", (-1e-6, -1.1e-8, 9e-9, 1e-9, 1.1e-8, 1e-6))
    def test_guard_matches_line_loop(self, tfim3, shift):
        # the guard before it was vectorized: one nearest-neighbour check per line
        _, O, ens = tfim3
        e = np.sort(ens.eigs.energies)
        diffs = np.sort((e[None, :] - e[:, None]).ravel())
        diss = dissipation_spectrum(ens, O)
        for k in range(len(diss)):
            moved = self._moved(diss, k, shift)
            pos = np.searchsorted(diffs, moved.omegas)
            first_bad = next(
                (w for j, w in enumerate(moved.omegas)
                 if min(abs(w - diffs[i]) for i in (max(pos[j] - 1, 0),
                                                     min(pos[j], len(diffs) - 1))) > 1e-8),
                None,
            )
            try:
                generalized_fdt(moved, ens, O)
                rejected = None
            except ValueError as exc:
                rejected = str(exc)
            if first_bad is None:
                assert rejected is None, k
            else:
                assert rejected is not None and f"omega={first_bad} " in rejected, k
