"""Exact delta-spike line spectra for fluctuation and dissipation, the
generalized fluctuation-dissipation relation with its zero-frequency
correction, and kernel moments that reproduce the QFI and both bounds.

Both spectra aggregate the same pair table (``gibbs._pair_table``) whose
three kernel sums are F, beta chi and beta^2 Var, so the moments of the
autocorrelation spectrum reproduce those scalars line for line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import GibbsEnsemble, KernelKind, _classical, _diagonal, _pair_table

FREQ_MERGE_TOL = 1e-10

AUTOCORRELATION = "autocorrelation"
DISSIPATION = "dissipation"


@dataclass(frozen=True)
class LineSpectrum:
    """Finite list of (frequency, weight) delta spikes, frequencies sorted
    ascending and deduplicated within FREQ_MERGE_TOL."""

    omegas: np.ndarray
    weights: np.ndarray
    kind: str

    def __len__(self) -> int:
        return len(self.omegas)

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def rows(self):
        return zip(self.omegas.tolist(), self.weights.tolist())


def _aggregate(omegas, weights, kind: str) -> LineSpectrum:
    omegas = np.asarray(omegas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(omegas) == 0:
        return LineSpectrum(omegas, weights, kind)
    order = np.argsort(omegas, kind="stable")
    omegas = omegas[order]
    weights = weights[order]
    group = np.concatenate([[0], np.cumsum(np.diff(omegas) > FREQ_MERGE_TOL)])
    n_groups = int(group[-1]) + 1
    out_w = np.bincount(group, weights=weights, minlength=n_groups)
    counts = np.bincount(group, minlength=n_groups)
    out_o = np.bincount(group, weights=omegas, minlength=n_groups) / counts
    out_o[np.abs(out_o) <= FREQ_MERGE_TOL] = 0.0
    return LineSpectrum(out_o, out_w, kind)


def autocorrelation_spectrum(ens: GibbsEnsemble, O: np.ndarray) -> LineSpectrum:
    """Symmetrized fluctuation spectrum S(omega).

    One line per distinct energy difference omega = E_n - E_m with weight
    pi (p_m + p_n) |O_mn|^2, plus the zero-frequency line
    2 pi sum_n p_n (O_nn - <O>)^2.  Sum rule: total weight = 2 pi Var(O).
    """
    t = _pair_table(ens.eigs, O)
    classical, w_sum = t.weights(ens.populations)
    omegas = np.concatenate([-t.dE, [0.0]])
    weights = np.concatenate([math.pi * w_sum, [2.0 * math.pi * classical]])
    return _aggregate(omegas, weights, AUTOCORRELATION)


def dissipation_spectrum(ens: GibbsEnsemble, O: np.ndarray) -> LineSpectrum:
    """Im chi(omega): odd line spectrum with weights pi (p_m - p_n) |O_mn|^2
    and no zero-frequency weight."""
    t = _pair_table(ens.eigs, O)
    p = ens.populations
    return _aggregate(-t.dE, math.pi * (p[t.m] - p[t.n]) * t.o2, DISSIPATION)


def generalized_fdt(
    dissipation: LineSpectrum, ens: GibbsEnsemble, O: np.ndarray
) -> LineSpectrum:
    """Reconstruct S(omega) as coth(beta omega / 2) Im chi(omega) plus the
    singular zero-frequency line carrying the classical fluctuations."""
    if dissipation.kind != DISSIPATION:
        raise ValueError("expected a dissipation spectrum")
    if not ens.beta > 0:
        raise ValueError("generalized FDT needs beta > 0")
    diag = _diagonal(ens.eigs, O).real
    zero_weight = 2.0 * math.pi * _classical(ens.populations, diag)

    # Guard against a spectrum from a different ensemble: every line must sit
    # at an energy difference of this eigensystem.
    diffs = np.sort(np.subtract.outer(ens.eigs.energies, ens.eigs.energies), axis=None)
    pos = np.searchsorted(diffs, dissipation.omegas)
    near = diffs[np.clip([pos - 1, pos], 0, len(diffs) - 1)]  # both neighbours
    bad = dissipation.omegas[
        ~(np.min(np.abs(dissipation.omegas - near), axis=0) <= 1e-8)]  # NaN fails
    if bad.size:
        raise ValueError(f"dissipation line at omega={bad[0]} does not match any "
                         "energy difference of the ensemble")

    nz = dissipation.omegas != 0.0
    omegas = np.concatenate([dissipation.omegas[nz], [0.0]])
    coth = 1.0 / np.tanh(ens.beta * dissipation.omegas[nz] / 2.0)
    weights = np.concatenate([coth * dissipation.weights[nz], [zero_weight]])
    return _aggregate(omegas, weights, AUTOCORRELATION)


def moment(spectrum: LineSpectrum, kernel: KernelKind, beta: float) -> float:
    """(2/pi) sum over lines of kernel(omega) * weight.

    With the autocorrelation spectrum this reproduces, kernel by kernel, the
    QFI, beta * susceptibility and beta^2 * variance.
    """
    if spectrum.kind != AUTOCORRELATION:
        raise ValueError("moments are defined on autocorrelation spectra")
    if len(spectrum) == 0:
        return 0.0
    k = kernel if isinstance(kernel, KernelKind) else KernelKind(kernel)
    vals = k.evaluate(spectrum.omegas, beta)
    return (2.0 / math.pi) * float(np.dot(vals, spectrum.weights))
