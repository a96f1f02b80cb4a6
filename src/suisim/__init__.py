"""Gaussian-optics simulation of joint quadrature measurement.

Three schemes measure several non-commuting quadrature modulations of one
probe beam at once: splitting on a beam splitter, splitting through a
parametric amplifier, and an SU(1,1) interferometer whose recombining
amplifier at the dark fringe suppresses the readout noise below the
shot-noise level on every quadrature simultaneously.

The covariance engine (:mod:`suisim.gaussian`) and the operator-transfer
oracle (:mod:`suisim.bogoliubov`) are independent routes to the same
homodyne statistics and cross-validate each other; :mod:`suisim.schemes`
builds and analyses the schemes, :mod:`suisim.spectra` produces photocurrent
records and shot-noise-normalised spectra, and :mod:`suisim.cli` drives it
all from run configs.
"""

from .bogoliubov import (
    ClosedFormSnr,
    TransferMap,
    build_transfer,
    build_transfer_from_elements,
    closed_form_snr,
    oracle_homodyne_mean,
    oracle_homodyne_variance,
)
from .config import (
    CALIBRATED_ETA_INTERNAL,
    ConfigError,
    PRESET_NAMES,
    RunConfig,
    load_config,
    preset_config,
)
from .gaussian import (
    GaussianState,
    OpaParams,
    apply_beam_splitter,
    apply_loss,
    apply_phase_shift,
    apply_two_mode_squeezer,
    displace,
    homodyne_stats,
    mean_photon_number,
    symplectic_eigenvalues,
    vacuum_state,
)
from .schemes import (
    DarkFringeResult,
    EnhancementReport,
    HomodyneChannel,
    LossBudget,
    ModulationTone,
    ParameterError,
    SchemeInstance,
    best_port_snr,
    build_scheme,
    enhancement_report,
    find_dark_fringe,
    matched_baseline,
    output_state,
    port_noise_variance,
    port_snr,
    snr_vs_detection_efficiency,
)
from .spectra import (
    CombineParams,
    CombineSettings,
    RunSpectra,
    Spectrum,
    TimeSeries,
    band_floor,
    calibrate_k,
    check_readout,
    check_sampling,
    combine_currents,
    extract_peak_snr,
    shot_noise_calibration,
    simulate_currents,
    simulate_spectra,
    tone_power,
    welch_psd,
)

__version__ = "0.1.0"
