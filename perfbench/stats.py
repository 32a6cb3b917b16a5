"""Summary statistics shared by every workload.

A timing is reported as its median plus its *tail*: the highest
percentile that still has at least :data:`MIN_BEYOND` samples beyond
it, which is the ``MIN_BEYOND + 1``-th largest sample.  The tail is so
never read off one or two outliers; the percentile it sits at and the
sample count travel with it.

A sample of at least twice :data:`TAIL_WINDOW` values is cut, in the
order it was taken, into windows of at least ``TAIL_WINDOW`` values;
the tail is then the median of the windows' tails.  A burst of stalls
on a shared host moves the tail of the window it fell in, not the
run's.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "TAIL_WINDOW", "percentile", "summarize",
           "iqr_share"]

MIN_BEYOND = 10
TAIL_WINDOW = 150


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _tail(xs: list[float]) -> tuple[float, float]:
    """(tail, percentile) of one sorted window.  With ``MIN_BEYOND``
    samples or fewer no percentile qualifies, and the tail falls back
    to the maximum (percentile 100)."""
    n = len(xs)
    if n <= MIN_BEYOND:
        return xs[-1], 100.0
    idx = n - 1 - MIN_BEYOND
    return xs[idx], 100.0 * idx / (n - 1)


def summarize(values) -> dict:
    """``{"n", "p50", "tail_q", "tail", "windows"}`` for one timing
    sample, given in the order it was taken.  ``tail_q`` is the
    percentile the tail sits at within a window (the median over
    windows)."""
    xs = [float(v) for v in values]
    n = len(xs)
    if not n:
        raise ValueError("summary of an empty sample")
    k = max(1, n // TAIL_WINDOW)
    tails = [_tail(sorted(xs[i * n // k:(i + 1) * n // k]))
             for i in range(k)]
    return {"n": n, "p50": percentile(xs, 50.0), "windows": k,
            "tail": statistics.median(t for t, _ in tails),
            "tail_q": statistics.median(q for _, q in tails)}


def iqr_share(values) -> float:
    """Inter-quartile distance as a share of the median, with the
    quartiles ``statistics.quantiles(values, n=4)`` gives."""
    q1, med, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / med if med else math.inf
