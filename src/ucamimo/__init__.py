"""Line-of-sight MIMO toolkit for uniform circular arrays under misalignment."""

from .channel import (
    APPROXIMATE,
    EXACT_DISTANCE,
    ChannelMatrix,
    SvdConvergenceError,
    SvdTriple,
    build_channel,
    circulant_factor,
    closed_form_svd,
    dft_matrix,
    numerical_svd,
)
from .design import (
    DesignResult,
    PowerAllocation,
    capacity,
    condition_number,
    radii_from_beta,
    search_beta_opt,
    water_fill,
)
from .geometry import (
    ArrayConfig,
    Coordinate3,
    DistanceDecomposition,
    Misalignment,
    ModelValidityError,
    distance_approx,
    distance_exact,
    rotation_matrix,
    rx_antenna_position,
    tx_antenna_position,
)
from .sim import ResultRow, TrialConfig, draw_misalignment, run_codebook_bit_sweep, run_rate_sweep
from .spectrum import singular_values
from .transceiver import (
    Codebook,
    PrecoderMatrix,
    RateReport,
    SingularChannelError,
    approx_power_allocation,
    build_codebook,
    precoder_from_angles,
    select_codebook_index,
    zf_rate,
    zf_sic_rate,
)

__version__ = "0.1.0"
