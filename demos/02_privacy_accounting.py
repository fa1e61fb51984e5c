"""Tracking the privacy budget of a federated run.

Every local step is a subsampled Gaussian mechanism with noise
multiplier sigma and sampling rate s; a run of T rounds of K local steps
composes T*K of them. The ledger composes Renyi-DP bounds over an order
grid and converts to (epsilon, delta). Beside it are the source
analysis's closed form s*sqrt(TK*log(2/delta)*log(2T/delta))/sigma,
an asymptotic reference with its constant set to 1 and not a bound
(at s = 0.01, sigma = 1, T = 10, K = 1 it gives 0.421 where the ledger
gives 1.457), and the third-party amplification view.

Equivalent CLI:  dpfed account --noise_multiplier 1.0 --sample_rate 0.2 \
                   --local_steps 10 --rounds 50 --every 10
"""
from dpfed import (PrivacyLedger, compose_and_convert, gaussian_rdp,
                   server_budget, third_party_epsilon)

SIGMA, Q, K, DELTA = 1.0, 0.2, 10, 1e-5

print(f"per-step mechanism: sigma={SIGMA}, sampling rate q={Q}")
print(f"order-2 Renyi bound of the unsubsampled Gaussian: "
      f"{gaussian_rdp(2, SIGMA)}  (= 1/sigma^2 at order 2)\n")

print(f"{'rounds':>6} {'eps (ledger)':>14} {'asymptotic ref':>18}")
ledger = PrivacyLedger()
for t in range(1, 51):
    ledger.add_event(SIGMA, Q, K)
    if t % 10 == 0:
        eps = compose_and_convert(ledger, DELTA).epsilon
        eps_ref = third_party_epsilon(Q, t, K, DELTA, SIGMA)
        print(f"{t:>6} {eps:>14.3f} {eps_ref:>18.3f}")
print("(asymptotic ref: the closed form with its constant set to 1;"
      " not a bound)")

print("\nthird-party view: a client-level budget epsilon=1 with N=50 clients")
print("and participation l=0.1 amplifies to a per-observer budget of")
b = server_budget(1.0, DELTA, 50, 0.1)
print(f"  epsilon_s = {b.epsilon:.3f} (= sqrt(N/l)), delta_s = {b.delta:.2e}")
