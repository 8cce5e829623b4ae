"""Line-of-sight MIMO toolkit for uniform circular arrays under misalignment."""

from .channel import (
    APPROXIMATE,
    EXACT_DISTANCE,
    ChannelMatrix,
    SvdTriple,
    build_channel,
    build_channels,
    circulant_factor,
    closed_form_svd,
    dft_matrix,
    numerical_svd,
)
from .design import (
    DesignResult,
    capacity,
    radii_from_beta,
    search_beta_opt,
    water_fill,
)
from .geometry import ArrayConfig, Misalignment, ModelValidityError, rotation_matrix
from .sim import ResultRow, TrialConfig, draw_misalignment, run_codebook_bit_sweep, run_rate_sweep
from .spectrum import singular_values
from .transceiver import (
    Codebook,
    RateReport,
    approx_power_allocation,
    build_codebook,
    codebook_best_rates,
    codebook_rates_many,
    nulling_rates,
    precoded_rate,
    precoded_rates,
    precoder_from_angles,
    precoder_matrices,
)

__version__ = "0.1.0"
