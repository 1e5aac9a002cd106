"""Throughput and maximum inter-decoding delay of stored-video streaming
over block-fading channels: time-sharing schemes, run-length delay
analytics, and the informed-transmitter bound.

The package exports the library API that the README's quick start lists;
everything else is reached through its module."""

from .asymptotic import alpha_opt, decode_all_probability
from .channel import ChannelParams, sample_trace
from .engine import evaluate_point
from .errors import ConfigError
from .experiments import parse_config, render_csv, run_experiment
from .informed import greedy_allocate, min_delay_max_rate, oracle_exhaustive
from .runstats import mt_mean_max_delay
from .schemes import SCHEMES, Scheme, accumulate_mi, build_allocation, decode

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "sample_trace",
    "SCHEMES",
    "Scheme",
    "build_allocation",
    "decode",
    "accumulate_mi",
    "greedy_allocate",
    "min_delay_max_rate",
    "oracle_exhaustive",
    "mt_mean_max_delay",
    "evaluate_point",
    "alpha_opt",
    "decode_all_probability",
    "parse_config",
    "run_experiment",
    "render_csv",
    "ConfigError",
]
