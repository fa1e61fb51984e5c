"""Differentially private federated AdamW simulation toolkit."""

from .accounting import (Budget, PrivacyLedger, compose_and_convert,
                         gaussian_rdp, server_budget,
                         subsampled_gaussian_rdp, third_party_epsilon)
from .blocks import (BlockLayout, ConfigurationError, block_mean,
                     broadcast_blocks)
from .data import (FederatedDataset, dirichlet_partition, load_csv,
                   make_blobs, make_client_quadratics, quadratic_client_data)
from .diagnostics import (BiasProbeResult, bias_probe, client_drift,
                          cross_client_var_v)
from .dp import DPConfig, NoiseStream, clip_batch, noisy_batch_mean
from .federation import (RoundReport, RoundState, payload_count, run_client,
                         run_round, sample_clients)
from .models import Model, QuadraticModel, SoftmaxModel, build_model
from .optimizer import (AdamWParams, DPAdamWState, DivergenceError,
                        corrected_preconditioner, init_round, local_step,
                        moment_update)
from .runner import (MetricRecord, RunConfig, RunSummary, compare,
                     parse_config_file, run)

__version__ = "0.1.0"
