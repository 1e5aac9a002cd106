"""Throughput and maximum inter-decoding delay of stored-video streaming
over block-fading channels: time-sharing schemes, run-length delay
analytics, and the informed-transmitter bound."""

from .channel import (
    ChannelParams,
    decode_success_prob,
    exp1,
    mean_capacity,
    mean_capacity_closed_form,
    sample_trace,
    window_decode_prob,
)
from .errors import ConfigError, NumericFailure, StreamfadeError
from .informed import (
    GreedyResult,
    greedy_allocate,
    informed_trial,
    lower_bound_pattern,
    min_delay_max_rate,
    oracle_exhaustive,
)
from .metrics import max_zero_run
from .runstats import (
    PartialFraction,
    enumerate_run_tails,
    mt_mean_max_delay,
    partial_fraction,
    q_polynomial,
    run_tail_matrix_power,
    run_tail_partial_fraction,
    run_tails,
    run_transition_matrix,
    wts_delay_bounds,
)
from .schemes import (
    SCHEMES,
    Scheme,
    accumulate_mi,
    build_allocation,
    decode,
    format_scheme_token,
    parse_scheme_token,
    transmitted_mask,
)
from .asymptotic import AsymptoticReport, alpha_opt, optimal_prebuffer_fraction, verify_threshold
from .experiments import (
    ExperimentConfig,
    emit_csv,
    emit_svg,
    parse_config,
    run_experiment,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
