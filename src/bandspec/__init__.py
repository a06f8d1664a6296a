"""Numerical laboratory for random Hermitian finite-band matrices.

Builds block-banded channel ensembles, computes their empirical spectra and
Shannon transforms at scale, and validates the known closed-form baselines
(Toeplitz-limit capacities, limiting moments, the tridiagonal Cholesky pivot
chain, extreme-SNR parameters, and the Marchenko-Pastur approximation)
against Monte Carlo simulation.
"""

from .band_matrix import (
    BandedHermitian,
    BlockBandedChannel,
    ChannelParams,
    DiagonalSpec,
    PivotError,
    generate_channel,
    gram,
    ldl_shifted,
    log_ldl_shifted,
    wyner,
)
from .closed_forms import (
    exp_integral,
    high_snr_params,
    limiting_moments,
    low_snr_params,
    marchenko_pastur_cdf,
    marchenko_pastur_pdf,
    narula_capacity,
    narula_stationary_cdf,
    narula_stationary_pdf,
    walk_moments,
    wyner_capacity_large_k,
    wyner_capacity_nonfading,
)
from .eig import eigenvalues
from .fading import (
    DETERMINISTIC,
    RAYLEIGH,
    UNIFORM_PHASE,
    FadingSpec,
    MomentUnavailableError,
    parse_spec_tag,
    rician,
)
from .harness import (
    AllReplicatesFailedError,
    ConfigError,
    ExperimentConfig,
    ExperimentOutput,
    ExperimentResult,
    derive_stream,
    fit_high_snr_offset_extrapolated,
    fit_high_snr_params,
    fit_low_snr_params,
    run_experiment,
)
from .narula_chain import (
    ChainRun,
    chain_vs_ldl,
    simulate_chain,
)
from .spectral import (
    EmpiricalSpectrum,
    power_profile,
    power_profile_sup_diff,
    trace_moment,
)

__version__ = "0.1.0"
