"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has at
    least ten samples beyond it.

    With n > 10 sorted samples that is the one at rank n - 11, the
    (100 * (n - 10) / n)-th percentile.  With ten or fewer no percentile
    qualifies, and the maximum is reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def failed_share(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted
