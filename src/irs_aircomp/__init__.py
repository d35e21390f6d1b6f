"""Link-level simulator for IRS-aided over-the-air computation.

Multi-timescale protocol: a static receive beamformer from angle
information, discrete IRS phases designed from statistical CSI by
projection and majority voting, and per-coherence-block optimal power
control from the scalar effective channels; plus the matching
closed-form MSE bounds and a Monte Carlo experiment engine.
"""

from .analysis import (
    AsymptoticParams,
    approx_array_gain,
    expected_channel_power_gain,
    group_split,
    lambda1,
    min_gamma_sq_approx,
    mse_lower_bound,
    mse_upper_bound,
    n_threshold,
)
from .channel import (
    ChannelRealization,
    Geometry,
    SystemConfig,
    effective_scalar_channel,
    make_geometry,
    pathloss,
    sample_channels,
)
from .experiments import (
    SCHEMES,
    ConfigError,
    ExperimentConfig,
    Scheme,
    SchemeSpec,
    SweepResult,
    SweepRow,
    compute_long_term,
    load_config,
    run_sweep,
    run_trial,
    write_csv,
)
from .numerics import (
    RngStream,
    array_response,
    sinc_normalized,
)
from .protocol import (
    DegenerateChannelError,
    PhaseShiftVector,
    PowerSolution,
    channel_inversion_power_control,
    evaluate_mse,
    evaluate_mse_general,
    majority_vote,
    optimal_power_control,
    oracle_power_control,
    per_device_phases,
    quantize_phase,
    receive_beamformer,
)

__version__ = "0.1.0"
