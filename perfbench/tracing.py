"""Span tracing of qfibounds' public functions, installed from outside the
library.

Each traced function is replaced, in every ``qfibounds`` module namespace
that holds it, by a wrapper that records a span (name, start, end, parent).
Replacing every binding matters because the library imports functions by
name (``from .spectral import to_eigenbasis``), so patching only the defining
module would miss internal calls.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped in traced runs: every public function
# that a per-layer metric names, plus the spans the self times subtract.
TRACED = (
    ("operators", "build_tfim"),
    ("operators", "pauli_string_matrix"),
    ("spectral", "eigendecompose"),
    ("spectral", "rotate_within_clusters"),
    ("spectral", "to_eigenbasis"),
    ("spectral", "from_eigenbasis"),
    ("gibbs", "prepared_gibbs"),
    ("gibbs", "variance"),
    ("gibbs", "susceptibility"),
    ("qfi", "bounds_chain"),
    ("qfi", "qfi_spectral"),
    ("qfi", "check_bounds_report"),
    ("qfi", "qfi_fidelity_oracle"),
    ("fluctuation", "autocorrelation_spectrum"),
    ("fluctuation", "dissipation_spectrum"),
    ("fluctuation", "generalized_fdt"),
    ("fluctuation", "moment"),
    ("sld", "sld_matrix"),
    ("sld", "sld_time_domain"),
    ("sld", "lyapunov_residual"),
    ("locality", "dressed_operator"),
    ("locality", "commutator_decay_profile"),
    ("locality", "local_approximation"),
    ("locality", "commutator_norm"),
    ("harness", "evaluate_point"),
    ("harness", "emit_report"),
)

# metric name -> (span name, statistic); statistic is "total" (inclusive
# seconds), "self" (seconds minus traced children) or "calls".
SPAN_METRICS = {
    "operators.build_tfim_s": ("operators.build_tfim", "total"),
    "operators.pauli_string_matrix_s": ("operators.pauli_string_matrix", "total"),
    "operators.pauli_string_matrix_calls": ("operators.pauli_string_matrix", "calls"),
    "spectral.eigendecompose_s": ("spectral.eigendecompose", "total"),
    "spectral.eigendecompose_calls": ("spectral.eigendecompose", "calls"),
    "spectral.rotate_within_clusters_s": ("spectral.rotate_within_clusters", "total"),
    "spectral.to_eigenbasis_s": ("spectral.to_eigenbasis", "total"),
    "spectral.to_eigenbasis_calls": ("spectral.to_eigenbasis", "calls"),
    "spectral.from_eigenbasis_s": ("spectral.from_eigenbasis", "total"),
    "gibbs.prepared_gibbs_s": ("gibbs.prepared_gibbs", "total"),
    "gibbs.variance_s": ("gibbs.variance", "total"),
    "gibbs.susceptibility_s": ("gibbs.susceptibility", "total"),
    "qfi.bounds_chain_self_s": ("qfi.bounds_chain", "self"),
    "qfi.qfi_spectral_s": ("qfi.qfi_spectral", "total"),
    "qfi.check_bounds_report_s": ("qfi.check_bounds_report", "total"),
    "qfi.fidelity_oracle_s": ("qfi.qfi_fidelity_oracle", "total"),
    "fluctuation.autocorrelation_spectrum_s": ("fluctuation.autocorrelation_spectrum", "total"),
    "fluctuation.dissipation_spectrum_s": ("fluctuation.dissipation_spectrum", "total"),
    "fluctuation.generalized_fdt_s": ("fluctuation.generalized_fdt", "total"),
    "fluctuation.moment_s": ("fluctuation.moment", "total"),
    "sld.sld_matrix_s": ("sld.sld_matrix", "total"),
    "sld.sld_time_domain_s": ("sld.sld_time_domain", "total"),
    "sld.lyapunov_residual_s": ("sld.lyapunov_residual", "total"),
    "locality.dressed_operator_s": ("locality.dressed_operator", "total"),
    "locality.dressed_operator_calls": ("locality.dressed_operator", "calls"),
    "locality.commutator_decay_profile_self_s": ("locality.commutator_decay_profile", "self"),
    "locality.local_approximation_self_s": ("locality.local_approximation", "self"),
    "locality.commutator_norm_s": ("locality.commutator_norm", "total"),
    "locality.commutator_norm_calls": ("locality.commutator_norm", "calls"),
    "harness.evaluate_point_self_s": ("harness.evaluate_point", "self"),
    "harness.emit_report_s": ("harness.emit_report", "total"),
}

# Quadrature nodes per panel of the time-domain SLD (Gauss-Legendre order 8).
_NODES_PER_PANEL = 8


def _observe(name, args, result, counts) -> None:
    """Work counters taken from the arguments and results of a call."""
    if name == "spectral.eigendecompose":
        counts["spectral.clusters"] += len(result.clusters)
        counts["spectral.multi_clusters"] += sum(b - a > 1 for a, b in result.clusters)
    elif name in ("fluctuation.autocorrelation_spectrum",
                  "fluctuation.dissipation_spectrum",
                  "fluctuation.generalized_fdt"):
        counts["fluctuation.lines"] += len(result)
    elif name == "sld.sld_time_domain":
        ens, _, spec = args
        # computed size of the d^2 x nodes phase matrix, float64
        counts["sld.time_kernel_bytes"] += ens.dim**2 * spec.panels * _NODES_PER_PANEL * 8


COUNT_METRICS = (
    "spectral.clusters",
    "spectral.multi_clusters",
    "fluctuation.lines",
    "sld.time_kernel_bytes",
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._open = []  # indices of spans still running

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            _observe(name, args, result, self.counts)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED function while the block runs."""
        patched = []
        modules = [m for n, m in sys.modules.items()
                   if n == "qfibounds" or n.startswith("qfibounds.")]
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(importlib.import_module(f"qfibounds.{mod_name}"), fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def per_layer(self, n_ops: int) -> dict:
        """Per-operation totals, self times and counts for SPAN_METRICS."""
        total = defaultdict(float)
        child = defaultdict(float)  # seconds covered by traced children
        calls = defaultdict(int)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        stats = {"total": total, "self": self_time, "calls": calls}
        out = {}
        for metric, (span, stat) in SPAN_METRICS.items():
            out[metric] = stats[stat][span] / n_ops
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / n_ops
        return out
