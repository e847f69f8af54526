"""jumpscan: multiscale jump detection for trends under complex noise."""

from .convolve import FilteredSeries, brute_filtered_series, fast_filtered_series
from .detect import DetectionResult, RawJump, cusum_refine, detect_pipeline, mjpd_detect
from .field import MultiscaleField, ScaleConfig, multiscale_field, scale_grid
from .filters import (
    BetaJumpFilter,
    FilterMoments,
    JumpPassFilter,
    builtin_wstar,
    construct_beta_filter,
    construct_legendre_filter,
    dump_filter,
    legendre_optimizer_coeffs,
    load_filter,
    moments,
    verify_order,
)
from .simulate import DetectorSpec, PlsScenario, gen_series, monte_carlo
from .threshold import (
    TailConstants,
    alpha_of_c,
    bootstrap_cv,
    critical_value,
    fs_correction,
    tail_constants,
)
from .tuning import (
    MvReport,
    auto_detect,
    select_alpha,
    select_s_star,
    select_scales,
    sigma_sup_estimate,
)

__version__ = "0.1.0"
