"""Percentiles are reported only where the sample supports them."""

import statistics

from summary import MIN_BEYOND, latency_summary, percentile, spread


def test_p95_needs_ten_samples_beyond_it():
    assert percentile(range(199), 0.95) is None
    assert percentile(range(200), 0.95) == 189
    assert 200 - (189 + 1) == MIN_BEYOND


def test_latency_summary_reports_the_sample_count():
    small = latency_summary([0.3, 0.1, 0.2])
    assert small == {"p50": 0.2, "p95": None, "n": 3}
    large = latency_summary([float(v) for v in range(1, 201)])
    assert large["n"] == 200 and large["p95"] == 190.0 and large["p50"] == 100.5
    assert latency_summary([]) == {"p50": None, "p95": None, "n": 0}


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / statistics.median(values)
    assert spread([4.0]) == 0.0
