"""Exact delta-spike line spectra for fluctuation and dissipation, the
generalized fluctuation-dissipation relation with its zero-frequency
correction, and kernel moments that reproduce the QFI and both bounds.

Both spectra read one set of lines (``_pair_lines``), each with the
autocorrelation weight pi (p_m + p_n)|O_mn|^2: the autocorrelation spectrum
all of them, its same-cluster pairs merging into the omega = 0 line, and the
dissipation spectrum those at omega != 0 times tanh(beta omega / 2), which is
p_m - p_n = (p_m + p_n) tanh(beta omega / 2) at the cluster-mean levels
without the difference's cancellation.  S(omega) is even and Im chi(omega)
odd (Kubo, Rep. Prog. Phys. 29 (1966) 255), and |O_mn|^2 of the pair table
is exactly symmetric, so each spectrum is built, sorted and merged from its
omega > 0 half only and mirrored (``_mirror``).  The ``moment``s of the
autocorrelation spectrum reproduce F, beta chi and Var line for line;
``moment`` takes a ``KernelKind``.
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
    many = counts > 2
    if many.any():
        # a sum of three or more lines depends on their order: add each
        # group's by |w| (one key: the group, then the rank of |w|), so lines
        # at +-omega with one set of |w| sum to +-one weight in any order
        sub = np.flatnonzero(many[group])
        rank = np.empty(len(sub), dtype=np.int64)
        rank[np.argsort(np.abs(weights[sub]))] = np.arange(len(sub))
        sub = sub[np.argsort(group[sub] * len(sub) + rank)]
        out_w[many] = np.bincount(group[sub], weights=weights[sub], minlength=len(counts))[many]
    out_o = np.bincount(group, weights=omegas) / counts
    if values > len(counts):
        # a group of distinct frequencies merges at its |w|-weighted mean, its
        # plain mean where |w| sums to 0, each as the first frequency plus the
        # mean offset from it: negating every line negates the result
        first, last = omegas[np.cumsum(counts) - counts], omegas[np.cumsum(counts) - 1]
        mass = np.bincount(group, weights=np.abs(weights, out=weights))
        flat = mass == 0.0
        if flat.any():
            mass[flat] = counts[flat]
            weights[flat[group]] = 1.0
        weights *= np.subtract(omegas, first[group], out=omegas)
        lean = np.bincount(group, weights=weights)
        mixed = last > first
        out_o[mixed] = first[mixed] + lean[mixed] / mass[mixed]
    out_o[np.abs(out_o) <= FREQ_MERGE_TOL] = 0.0
    return LineSpectrum(out_o, out_w, kind)


def _pair_lines(ens: GibbsEnsemble, O: np.ndarray):
    """The omega > 0 half of the autocorrelation lines (omegas, weights) and
    the omega = 0 weights.  A pair (m, n) of the pair table is the line
    omega = E_n - E_m of the cluster-mean levels with weight
    pi (p_m + p_n) |O_mn|^2, its reverse the same weight at -omega.  The
    half takes block by block, in row-major order, the lines at omega > 0,
    then an a < b block's reversed pairs at -omega > 0: the full set's
    omega > 0 lines in its order, so the half merges as that side does.
    The zero weights are the pairs at omega = 0 (same-cluster, in both
    orders) and last 2 pi sum_n p_n (O_nn - <O>)^2.  Pairs of sectors that
    O cannot link make no line."""
    t = _pair_table(ens.eigs, O)
    e, p = t.levels, ens.populations
    omegas, weights, zero = [], [], []
    for a, b, o2 in t.blocks:
        omega = -np.subtract.outer(e[a.columns], e[b.columns]).ravel()
        w = (math.pi * ((p[a.columns][:, None] + p[b.columns][None, :]) * o2)).ravel()
        up, at = omega > 0.0, omega == 0.0
        omegas.append(omega[up])
        weights.append(w[up])
        zero.append(w[at])
        if a is not b:  # the reversed pairs
            down = omega < 0.0
            omegas.append(-omega[down])
            weights.append(w[down])
            zero.append(w[at])
    zero.append([2.0 * math.pi * _classical(p, t.diag)])
    return np.concatenate(omegas), np.concatenate(weights), np.concatenate(zero)


def _mirror(half: LineSpectrum, lowest: float, zero=None) -> LineSpectrum:
    """The spectrum from its merged omega > 0 half: the half reflected to
    omega < 0, weights even for S and odd for Im chi (0.0 - w keeps a zero
    +0.0), about an omega = 0 line of weight ``zero`` (None: no line).
    ``lowest`` is the half's smallest unmerged line.  Where it lies within
    FREQ_MERGE_TOL of the full set's nearest line at or below 0 (the zero
    line for S, its own mirror -lowest for Im chi), the half's first group
    chains through 0 to its mirror: one group, merged at 0 with twice its
    weight for S and weight 0 for Im chi."""
    odd = half.kind == DISSIPATION
    o, w = half.omegas, half.weights
    if len(o) and (2.0 * lowest if odd else lowest) <= FREQ_MERGE_TOL:
        zero = 0.0 if odd else zero + 2.0 * w[0]
        o, w = o[1:], w[1:]
    mid = [] if zero is None else [zero]
    return LineSpectrum(np.concatenate([0.0 - o[::-1], np.zeros(len(mid)), o]),
                        np.concatenate([(0.0 - w if odd else w)[::-1], mid, w]), half.kind)


def autocorrelation_spectrum(ens: GibbsEnsemble, O: np.ndarray) -> LineSpectrum:
    """Symmetrized fluctuation spectrum S(omega), even: its omega > 0 half
    (``_pair_lines``) merged and mirrored about the omega = 0 line, whose
    weight adds the zero weights in order of size, as ``_aggregate`` adds a group.
    Sum rule: total weight = 2 pi Var(O)."""
    omegas, weights, zero = _pair_lines(ens, O)
    half = _aggregate(omegas, weights, AUTOCORRELATION)
    return _mirror(half, np.min(omegas, initial=np.inf), np.cumsum(np.sort(zero))[-1])


def dissipation_spectrum(ens: GibbsEnsemble, O: np.ndarray) -> LineSpectrum:
    """Im chi(omega), odd: the autocorrelation lines at omega > 0 times
    tanh(beta omega / 2), which is pi (p_m - p_n) |O_mn|^2 without its
    cancellation, merged and mirrored; no zero-frequency weight."""
    omegas, weights, _ = _pair_lines(ens, O)
    weights *= np.tanh(ens.beta * omegas / 2.0)
    half = _aggregate(omegas, weights, DISSIPATION)
    return _mirror(half, np.min(omegas, initial=np.inf))


def generalized_fdt(
    dissipation: LineSpectrum, ens: GibbsEnsemble, O: np.ndarray
) -> LineSpectrum:
    """Reconstruct S(omega) as coth(beta omega / 2) Im chi(omega) plus the
    singular zero-frequency line carrying the classical fluctuations, line
    by line from the spectrum given, whatever its symmetry."""
    if dissipation.kind != DISSIPATION:
        raise ValueError("expected a dissipation spectrum")
    if not ens.beta > 0:
        raise ValueError("generalized FDT needs beta > 0")
    lines, _, zero = _pair_lines(ens, O)

    # Guard against a spectrum from a different ensemble: every line must sit
    # at the level difference of a pair this (eigensystem, O) links, which is
    # 0 or +-omega of the half, so |omega| is compared with 0 and the half.
    diffs = np.concatenate([[0.0], lines])
    diffs.sort()
    omegas = np.abs(dissipation.omegas)
    pos = np.searchsorted(diffs, omegas)
    gap = np.minimum(omegas - diffs.take(pos - 1, mode="clip"),  # at or below omega
                     np.abs(diffs.take(pos, mode="clip") - omegas))  # above, or the last
    bad = dissipation.omegas[~(gap <= 1e-8)]  # NaN fails
    if bad.size:
        raise ValueError(f"dissipation line at omega={bad[0]} does not match any "
                         "energy difference of the ensemble")

    nz = dissipation.omegas != 0.0
    omegas = np.concatenate([dissipation.omegas[nz], np.zeros(len(zero))])
    coth = 1.0 / np.tanh(ens.beta * dissipation.omegas[nz] / 2.0)
    weights = np.concatenate([coth * dissipation.weights[nz], zero])
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
