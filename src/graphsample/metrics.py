"""Evaluation math: scaling ratios, RMSE, Jensen-Shannon distance, 95% CIs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import _sorted_unique
from .properties import Distribution

__all__ = [
    "CI95",
    "align_supports",
    "confidence_interval_95",
    "jsd",
    "rmse",
    "scaling_ratio",
]

# Properties whose values are shifted before forming a scaling ratio;
# assortativity lives in [-1, 1] and is moved to [0, 2].
RATIO_SHIFTS = {"assortativity": 1.0}


def scaling_ratio(theta_s: float, theta_a: float, shift: float = 0.0) -> float | None:
    """Sampled over original value; None marks an undefined ratio.

    ``shift`` is added to both values first (used for assortativity).
    """
    a = theta_a + shift
    if a == 0.0:
        return None
    return (theta_s + shift) / a


def rmse(samples: Sequence[float], truth: float) -> float:
    """Root mean square error of sampled values against one true value."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rmse needs at least one sample")
    return float(np.sqrt(np.mean((arr - truth) ** 2)))


def align_supports(*dists: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Union support and one zero-padded pmf row per distribution."""
    support = _sorted_unique(np.concatenate([d.support for d in dists]))
    pmfs = np.zeros((len(dists), len(support)), dtype=np.float64)
    for row, d in zip(pmfs, dists):
        row[np.searchsorted(support, d.support)] = d.pmf
    return support, pmfs


def jsd(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon distance (the metric, i.e. the divergence's square root).

    Supports are aligned by union with zero padding. Base-2 logarithms
    bound the result to [0, 1]; zero-probability terms contribute zero.
    Both pmfs sum to 1, as ``Distribution`` checks on construction.
    """
    _, (pp, qq) = align_supports(p, q)
    m = (pp + qq) / 2.0
    div = 0.5 * _kl(pp, m) + 0.5 * _kl(qq, m)
    div /= math.log(2.0)
    return math.sqrt(max(div, 0.0))


def _kl(p: np.ndarray, m: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / m[mask])))


@dataclass(frozen=True)
class CI95:
    mean: float
    half_width: float | None   # None when fewer than two values


def confidence_interval_95(values: Sequence[float]) -> CI95:
    """Mean and 1.96 * stdev / sqrt(k) half-width (sample standard deviation)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("confidence interval needs at least one value")
    mean = float(arr.mean())
    if arr.size < 2:
        return CI95(mean=mean, half_width=None)
    sd = float(arr.std(ddof=1))
    return CI95(mean=mean, half_width=1.96 * sd / math.sqrt(arr.size))
