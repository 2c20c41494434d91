"""Order statistics used by the benchmark, kept apart so the self-check can
exercise them without running a workload."""

import statistics

TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile
TAIL_MIN_OPS = 40  # below this the tail would be no tail; report the median alone


def tail(values):
    """Highest percentile of ``values`` with at least ``TAIL_BEYOND`` values
    beyond it, as (value, percentile), or None with fewer than
    ``TAIL_MIN_OPS`` values.

    The value is the sorted sample at index n - 11, so exactly ten samples
    sit above it in sort order. With n >= 40 that index is at or above the
    median's, so the tail is never below the median taken from the same
    values.
    """
    n = len(values)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def relative_iqr(values):
    """Distance between the first and third quartile, as a share of the
    median, the way the acceptance rule computes run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
