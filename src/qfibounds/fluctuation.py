"""Exact delta-spike line spectra for fluctuation and dissipation, the
generalized fluctuation-dissipation relation with its zero-frequency
correction, and kernel moments that reproduce the QFI and both bounds.

Both spectra emit the lines of the same pair table (``gibbs._pair_table``),
block by block in row-major pair order, an a < b block once in each order,
at the differences of its cluster-mean levels: the autocorrelation spectrum
one per pair, the same-cluster pairs merging into its omega = 0 line, and
the dissipation spectrum one per distinct-cluster pair.  Pairs of symmetry
sectors that O cannot link have O_mn = 0 and emit no line.  The table's
kernel moments are F, beta chi and Var, so the ``moment``s of the
autocorrelation spectrum reproduce those scalars line for line.  ``moment``
takes a ``KernelKind``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import GibbsEnsemble, KernelKind, _classical, _pair_table

FREQ_MERGE_TOL = 1e-10

AUTOCORRELATION = "autocorrelation"
DISSIPATION = "dissipation"


@dataclass(frozen=True)
class LineSpectrum:
    """Finite list of (frequency, weight) delta spikes, frequencies sorted
    ascending; lines within FREQ_MERGE_TOL merge at their |weight|-weighted mean."""

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
    omegas, weights = omegas[order], weights[order]  # copies, reused in place below
    values = np.count_nonzero(np.diff(omegas)) + 1  # distinct frequencies
    group = np.concatenate([[0], np.cumsum(np.diff(omegas) > FREQ_MERGE_TOL)])
    out_w = np.bincount(group, weights=weights)
    counts = np.bincount(group)
    out_o = np.bincount(group, weights=omegas) / counts
    if values > len(counts):
        # a group of distinct frequencies merges at its |w|-weighted mean unless |w| sums to 0
        first, last = omegas[np.cumsum(counts) - counts], omegas[np.cumsum(counts) - 1]
        mass = np.bincount(group, weights=np.abs(weights, out=weights))
        weights *= np.subtract(omegas, first[group], out=omegas)
        lean = np.bincount(group, weights=weights)
        mixed = (mass > 0) & (last > first)
        out_o[mixed] = first[mixed] + lean[mixed] / mass[mixed]
    out_o[np.abs(out_o) <= FREQ_MERGE_TOL] = 0.0
    return LineSpectrum(out_o, out_w, kind)


def _pair_lines(ens: GibbsEnsemble, O: np.ndarray, weight):
    """Unaggregated (omegas, weights) of every pair the pair table holds: the
    line omega = E_n - E_m of the levels with weight(p_m, p_n, |O_mn|^2),
    block by block in row-major order, an a < b block's pairs then again in
    the reverse order (n, m); and the table."""
    t = _pair_table(ens.eigs, O)
    e, p = t.levels, ens.populations
    omegas, weights = [], []
    for a, b, o2 in t.blocks:
        gaps = np.subtract.outer(e[a.columns], e[b.columns])
        pa, pb = p[a.columns][:, None], p[b.columns][None, :]
        omegas.append(-gaps.ravel())
        weights.append(weight(pa, pb, o2).ravel())
        if a is not b:
            omegas.append(gaps.ravel())
            weights.append(weight(pb, pa, o2).ravel())
    return np.concatenate(omegas), np.concatenate(weights), t


def _autocorrelation_lines(ens: GibbsEnsemble, O: np.ndarray):
    """Unaggregated (omegas, weights): the line omega = E_n - E_m of the
    levels with weight pi (p_m + p_n) |O_mn|^2 for every pair of the table
    (``_pair_lines``), then 2 pi sum_n p_n (O_nn - <O>)^2 at omega = 0.  The
    same-cluster pairs sit at omega = 0 too, and with it make the
    basis-independent zero-frequency weight."""
    omegas, weights, t = _pair_lines(
        ens, O, lambda pm, pn, o2: math.pi * ((pm + pn) * o2))
    classical = 2.0 * math.pi * _classical(ens.populations, t.diag)
    return np.append(omegas, 0.0), np.append(weights, classical)


def autocorrelation_spectrum(ens: GibbsEnsemble, O: np.ndarray) -> LineSpectrum:
    """Symmetrized fluctuation spectrum S(omega) (``_autocorrelation_lines``).
    Sum rule: total weight = 2 pi Var(O)."""
    return _aggregate(*_autocorrelation_lines(ens, O), AUTOCORRELATION)


def dissipation_spectrum(ens: GibbsEnsemble, O: np.ndarray) -> LineSpectrum:
    """Im chi(omega): odd line spectrum with weights pi (p_m - p_n) |O_mn|^2
    and no zero-frequency weight."""
    omegas, weights, _ = _pair_lines(
        ens, O, lambda pm, pn, o2: math.pi * (pm - pn) * o2)
    distinct = omegas != 0.0
    return _aggregate(omegas[distinct], weights[distinct], DISSIPATION)


def generalized_fdt(
    dissipation: LineSpectrum, ens: GibbsEnsemble, O: np.ndarray
) -> LineSpectrum:
    """Reconstruct S(omega) as coth(beta omega / 2) Im chi(omega) plus the
    singular zero-frequency line carrying the classical fluctuations."""
    if dissipation.kind != DISSIPATION:
        raise ValueError("expected a dissipation spectrum")
    if not ens.beta > 0:
        raise ValueError("generalized FDT needs beta > 0")
    lines, weights = _autocorrelation_lines(ens, O)
    zero = lines == 0.0

    # Guard against a spectrum from a different ensemble: every line must sit
    # at the level difference of a pair this (eigensystem, O) links.
    diffs = np.sort(lines, axis=None)
    pos = np.searchsorted(diffs, dissipation.omegas)
    near = diffs[np.clip([pos - 1, pos], 0, len(diffs) - 1)]  # both neighbours
    bad = dissipation.omegas[
        ~(np.min(np.abs(dissipation.omegas - near), axis=0) <= 1e-8)]  # NaN fails
    if bad.size:
        raise ValueError(f"dissipation line at omega={bad[0]} does not match any "
                         "energy difference of the ensemble")

    nz = dissipation.omegas != 0.0
    omegas = np.concatenate([dissipation.omegas[nz], lines[zero]])
    coth = 1.0 / np.tanh(ens.beta * dissipation.omegas[nz] / 2.0)
    weights = np.concatenate([coth * dissipation.weights[nz], weights[zero]])
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
    vals = kernel.evaluate(spectrum.omegas, beta)
    return (2.0 / math.pi) * float(np.dot(vals, spectrum.weights))
