"""Order statistics shared by the worker and the workloads."""

from __future__ import annotations

import statistics

import numpy as np

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values, preferred):
    """(percentile, value): the preferred percentile, or the highest lower one
    with at least ten samples beyond it (the median if none has)."""
    for p in PERCENTILES:
        if p <= preferred and len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


def median_by(pairs):
    """{key: median} of (key, value) pairs."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in sorted(groups.items())}
