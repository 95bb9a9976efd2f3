"""Percentiles that refuse to report what the samples cannot support.

A percentile ``q`` is only reported when at least ``MIN_TAIL`` samples lie
beyond it, i.e. ``n * (1 - q) >= MIN_TAIL``; every reported value carries
its sample count so a reader can judge it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``MIN_TAIL`` samples beyond ``q``."""
    return int(np.ceil(MIN_TAIL / (1.0 - q) - 1e-9))


@dataclass(frozen=True)
class Percentile:
    """One reported percentile: its value and the samples behind it."""

    q: float
    value: float
    n: int


def percentile(samples, q: float) -> Percentile:
    """The ``q`` quantile (0 < q < 1) of ``samples`` with its sample count."""
    values = np.asarray(samples, dtype=np.float64)
    n = int(values.size)
    if n < min_samples(q):
        raise TooFewSamples(
            f"p{q * 100:g} needs at least {min_samples(q)} samples "
            f"({MIN_TAIL} beyond it), got {n}"
        )
    return Percentile(q, float(np.quantile(values, q)), n)
