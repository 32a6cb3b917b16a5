"""The timing summary rule: median plus the highest percentile with at
least ten samples beyond it."""

import numpy as np
import pytest

from stats import (MIN_BEYOND, TAIL_WINDOW, iqr_share, percentile,
                   summarize)


@pytest.mark.parametrize("q", [0, 12.5, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    xs = np.random.default_rng(3).normal(size=37)
    assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))


@pytest.mark.parametrize("n", [11, 12, 40, 100, 2 * TAIL_WINDOW - 1])
def test_tail_has_exactly_min_beyond_samples_past_it(n):
    xs = np.random.default_rng(n).permutation(np.arange(n, dtype=float))
    s = summarize(xs)
    assert s["n"] == n and s["windows"] == 1
    assert sum(1 for x in xs if x > s["tail"]) == MIN_BEYOND
    # the percentile reported is the one the tail value sits at
    assert percentile(xs, s["tail_q"]) == pytest.approx(s["tail"])
    assert s["p50"] == pytest.approx(np.median(xs))


def test_tail_q_grows_with_the_sample_up_to_a_window():
    qs = [summarize(range(n))["tail_q"] for n in (20, 100, 299, 1000)]
    assert qs[:3] == sorted(qs[:3]) and qs[2] > 96.6
    assert 93.0 < qs[3] < qs[2]       # six windows of ~167 samples


def test_long_sample_takes_the_median_of_window_tails():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=4 * TAIL_WINDOW + 1)
    s = summarize(xs)
    windows = np.array_split(xs, 4)
    assert s["windows"] == 4 and s["n"] == xs.size
    assert s["tail"] == pytest.approx(np.median(
        [np.sort(w)[-1 - MIN_BEYOND] for w in windows]))
    assert s["p50"] == pytest.approx(np.median(xs))


def test_a_burst_in_one_window_leaves_the_tail():
    xs = np.random.default_rng(6).normal(size=4 * TAIL_WINDOW)
    burst = xs.copy()
    burst[TAIL_WINDOW:TAIL_WINDOW + 2 * MIN_BEYOND] += 100.0
    clean = [np.sort(w)[-1 - MIN_BEYOND] for w in np.array_split(xs, 4)]
    assert summarize(burst)["tail"] <= max(clean)
    # over one window the burst is the tail
    assert summarize(burst[:2 * TAIL_WINDOW - 1])["tail"] > 50.0


@pytest.mark.parametrize("n", [1, 5, MIN_BEYOND])
def test_small_sample_falls_back_to_max(n):
    s = summarize(range(n))
    assert s["tail"] == n - 1 and s["tail_q"] == 100.0


def test_empty_sample_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_iqr_share_uses_statistics_quartiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, med, q3 = 11.75, 14.5, 17.25   # "exclusive" method, n = 10
    assert iqr_share(values) == pytest.approx((q3 - q1) / med)
