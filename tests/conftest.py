"""Shared pytest plumbing.

Acceptance tests register one result per criterion via record_result();
a terminal-summary hook prints one pass/fail line per criterion at the
end of the session so the verdicts are visible even under output capture.
Tests that need a model's gradient rows build them from its per-layer
(E, A) factors with dense_grads(); a layer without input has A of shape
(n, 0), so its rows are E. Tests that hand a round its clients' rows
pool them with federated().
"""
import itertools

import numpy as np

from dpfed.data import FederatedDataset

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_result(criterion: int, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[criterion] = (passed, detail)


def dense_grads(factors) -> np.ndarray:
    """The (n, d) gradient rows that per-layer (E, A) factors stand for:
    per layer the W block E[i] A[i]^T flattened, then the b block E[i]."""
    blocks = []
    for E, A in factors:
        n, o, i = len(E), E.shape[1], A.shape[1]
        blocks += [np.einsum("no,ni->noi", E, A).reshape(n, o * i), E]
    return np.concatenate(blocks, axis=1)


def federated(clients) -> FederatedDataset:
    """The FederatedDataset of per-client (X, y) pairs, pooled in order."""
    sizes = [len(y) for _, y in clients]
    return FederatedDataset(np.concatenate([X for X, _ in clients]),
                            np.concatenate([y for _, y in clients]),
                            (0, *itertools.accumulate(sizes)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d}: {verdict}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
