"""Quantum Fisher information bounds, fluctuation/dissipation spectra, SLD
construction and locality diagnostics for Gibbs states of finite spin chains."""

__version__ = "0.1.0"

from .operators import (
    FlipOperator,
    ModelSpec,
    PauliString,
    build_tfim,
    pauli_string_matrix,
    random_hermitian,
    single_qubit_model,
    tfim_operators,
)
from .spectral import (
    EigenSystem,
    cluster_degeneracies,
    eigendecompose,
)
from .gibbs import (
    GibbsEnsemble,
    PairTable,
    gibbs_ensemble,
    pair_table,
    prepared_gibbs,
    susceptibility,
    susceptibility_fd,
    thermal_average,
    variance,
)
from .qfi import (
    BoundsReport,
    bounds_chain,
    check_bounds_report,
    qfi_fidelity_oracle,
    qfi_spectral,
    uncertainty_report,
)
from .fluctuation import (
    KernelKind,
    LineSpectrum,
    autocorrelation_spectrum,
    dissipation_spectrum,
    generalized_fdt,
    moment,
)
from .sld import (
    SldResult,
    TimeKernelSpec,
    lyapunov_residual,
    optimal_estimator,
    sld_matrix,
    sld_time_domain,
)
from .locality import (
    DressSpec,
    LocalityProfile,
    commutator_decay_profile,
    dressed_operator,
    local_approximation,
)
