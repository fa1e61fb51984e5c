"""Why DP noise inflates Adam's second moment, and how to remove it.

Per-sample clipping plus Gaussian noise makes every privatized gradient
g~ = g + noise with per-coordinate std tau = sigma*C/b, where b = floor(sR)
is the batch size. Squaring
inside the second-moment EMA turns that zero-mean noise into a
systematic additive shift: after k steps of a constant true gradient g,

    E[v_k] = (1 - beta2^k) * (g*g + tau^2).

The corrected estimator subtracts tau^2 after the init-bias correction,
restoring an unbiased estimate of g*g. This script verifies both claims
by Monte Carlo.
"""
import numpy as np

from dpfed import BiasProbeResult, DPConfig, NoiseStream, bias_probe

BETA2 = 0.999
K, N_MC = 50, 20_000

cfg = DPConfig(clip_norm=0.1, noise_multiplier=1.0, sample_rate=1.0)
B = cfg.batch_size(10)  # a client of 10 rows
tau2 = cfg.noise_std(B) ** 2
g = np.array([0.05, 0.02, -0.04])

print(f"noise std tau = sigma*C/b = {cfg.noise_std(B):g}  ->  tau^2 = {tau2:g}")
print(f"true squared gradient g*g   = {g * g}")

res: BiasProbeResult = bias_probe(cfg, B, g, K, N_MC, BETA2, NoiseStream(0))
denom = 1.0 - BETA2 ** K

print("\nuncorrected estimate  E[v]/(1-beta2^k):")
print(f"  {res.mean_v / denom}")
print(f"  inflated by ~tau^2 = {tau2:g} per coordinate "
      f"(measured shift {np.mean(res.mean_v / denom - g * g):.3g})")

print("\ncorrected estimate  E[v^ - tau^2]:")
print(f"  {res.mean_v_corrected}")
err_sigma = np.abs(res.mean_v_corrected - g * g) / res.se_v_corrected
print(f"  deviation from g*g in CLT standard errors: {err_sigma.round(2)}")
print("\nthe corrected estimator is unbiased; the raw one is shifted by tau^2.")
