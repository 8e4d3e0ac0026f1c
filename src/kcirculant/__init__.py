"""Exact spectra of random k-circulant matrices, their limiting spectral
distributions, and spectral-radius extreme-value statistics."""

from .numtheory import (
    KCirculantParams,
    EigenPartition,
    RegimeClassification,
    decompose,
    orbit,
    multiplicative_order,
    eigen_partition,
    upsilon,
    lower_order_count_ie,
    gcd_power_bound,
    classify_regime,
)
from .spectral import (
    SpectrumResult,
    as_input_sequence,
    build_matrix,
    dft,
    dft_naive,
    block_products,
    formula_spectrum,
    formula_radius,
    det_probe_oracle,
    dense_spectrum_oracle,
    spectra_match,
    export_spectrum_csv,
)
from .limits import (
    EULER_GAMMA,
    DEGENERATE_RADIUS,
    LsdLaw,
    EsdSample,
    radial_tail,
    lsd_radial_cdf,
    lsd_sample,
    esd,
    ks_one_sample,
    ks_two_sample,
    ks_radial,
    angular_test,
    band_mass,
    export_points_csv,
)
from .extremes import (
    GumbelNormalization,
    QuadratureError,
    gumbel_cdf,
    normalization,
    kbar,
    kbar_asymptotic,
    spectral_radius,
    standardize_radius,
    iid_max_reference,
    export_radii_csv,
)
from .montecarlo import (
    HypothesisError,
    InputLaw,
    INPUT_LAWS,
    input_law,
    ExperimentConfig,
    ExperimentReport,
    FIGURE_PRESETS,
    derive_trial_seed,
    hypothesis_check,
    run_lsd_experiment,
    run_gumbel_experiment,
    oracle_sweep,
)

__version__ = "0.1.0"
