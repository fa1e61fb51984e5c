"""Differentially private federated AdamW simulation toolkit: the names
the README and the demos use. Import the rest from its module."""

from .accounting import (PrivacyLedger, compose_and_convert, gaussian_rdp,
                         server_budget, third_party_epsilon)
from .blocks import ConfigurationError
from .diagnostics import BiasProbeResult, bias_probe
from .dp import DPConfig, NoiseStream
from .federation import payload_count
from .optimizer import DivergenceError
from .runner import RunConfig, compare, parse_config_file, run

__version__ = "0.1.0"
