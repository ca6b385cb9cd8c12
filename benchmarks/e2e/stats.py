"""The few statistics the benchmark reports (empty input gives 0.0)."""

import statistics


def mean(values):
    return statistics.fmean(values) if values else 0.0


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


def spread(values):
    """Interquartile range as a share of the median, or None with
    fewer than four values."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / abs(centre) if centre else None
