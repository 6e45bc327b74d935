"""Run metrics: divergence, entropy-bucketed acceptance, needle scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError


def natural_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """1 - sum(min(p, q)): the rejection-governing distance in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return float(1.0 - np.minimum(p, q).sum())


def shannon_entropy(p: np.ndarray) -> float:
    """Entropy in nats; zero-probability entries contribute nothing."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def buckets_from_entropies(entropies, accepted,
                           hard_quantile: float = 0.90) -> dict[str, float | None]:
    """Acceptance rate split at the sort-based entropy quantile.

    Entropies at or above the threshold are hard, except that zero-entropy
    tokens are always easy: a degenerate distribution carries no
    uncertainty.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    n = entropies.shape[0]
    if n != len(accepted):
        raise ShapeError("entropies and acceptance flags disagree in length")
    if n < 10:
        raise ParameterError(f"need at least 10 samples, got {n}")
    if not 0 < hard_quantile < 1:
        raise ParameterError(f"hard_quantile must be in (0, 1), got {hard_quantile}")
    threshold = float(np.sort(entropies)[min(math.floor(hard_quantile * n), n - 1)])
    hard_mask = (entropies >= threshold) & (entropies > 0)
    flags = np.asarray(accepted, dtype=bool)
    out: dict[str, float | None] = {}
    for name, mask in (("hard", hard_mask), ("easy", ~hard_mask)):
        out[name] = float(flags[mask].mean()) if mask.any() else None
    return out


@dataclass
class ProposalLog:
    """One drafted position: what the draft proposed and how sure it was."""

    position: int  # absolute output position (0 = first generated token)
    proposed: int
    committed: int
    metric_prob: float  # temperature-1 draft probability of the committed token


@dataclass
class NeedleMetrics:
    accuracy: float
    perplexity: float
    covered: int  # needle positions where a draft proposal existed
    reproduced: bool  # committed output matched the expected continuation


def needle_metrics(proposals: list[ProposalLog], output_tokens: list[int],
                   expected: list[int]) -> NeedleMetrics | None:
    """Draft accuracy and perplexity on the expected continuation tokens.

    Positions 0..len(expected)-1 of the output are the needle span; only
    positions the draft actually proposed (bonus slots have no proposal)
    enter the denominator. Returns None when the needle was never reached.
    """
    span = len(expected)
    if span == 0 or len(output_tokens) < span:
        return None
    by_pos = {p.position: p for p in proposals}
    hits = 0
    covered = 0
    nll = 0.0
    for pos in range(span):
        log = by_pos.get(pos)
        if log is None:
            continue
        covered += 1
        if log.proposed == log.committed:
            hits += 1
        nll += -math.log(max(log.metric_prob, 1e-300))
    if covered == 0:
        return None
    return NeedleMetrics(
        accuracy=hits / covered,
        perplexity=math.exp(nll / covered),
        covered=covered,
        reproduced=output_tokens[:span] == list(expected),
    )


def tau_from_counts(accepted_counts: list[int]) -> float:
    """Mean committed tokens per step: accepted plus the correction/bonus."""
    if not accepted_counts:
        raise ParameterError("tau requires at least one step")
    return float(np.mean([a + 1 for a in accepted_counts]))
