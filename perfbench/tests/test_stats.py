"""The harness's statistics on synthetic inputs (no sockets, no clock)."""

import math

import pytest

from perfbench import stats


def test_tail_is_highest_percentile_with_ten_beyond():
    # 1000 samples: exactly 10 lie beyond the p99.
    level, value, count = stats.tail([float(i) for i in range(1000)])
    assert (level, count) == (99.0, 1000)
    assert value == pytest.approx(989.01)
    # 999 samples leave only 9 beyond the p99, so the p95 is reported.
    assert stats.tail([1.0] * 999)[0] == 95.0
    # 200 samples: 10 beyond the p95.
    assert stats.tail([1.0] * 200)[0] == 95.0
    assert stats.tail([1.0] * 199)[0] == 90.0


def test_tail_needs_ten_beyond_the_median():
    assert stats.tail([1.0] * 20)[0] == 50.0
    assert stats.tail([1.0] * 19) is None


def test_beyond_counts_samples_strictly_above_the_level():
    assert stats.beyond(1000, 99.0) == 10
    assert stats.beyond(1001, 99.0) == 10
    assert stats.beyond(100, 50.0) == 50


def test_lag_p99_reports_how_late_the_generator_ran():
    assert stats.lag_ms([0.0] * 99 + [50.0]) == pytest.approx(0.5)
    assert stats.lag_ms([0.0] * 99 + [50.0], 90.0) == 0.0
    assert stats.lag_ms([]) == 0.0


def _step(latencies, lags=None, failed=0, rate=1000.0):
    return stats.StepResult(
        rate=rate, sent=len(latencies) + failed, failed=failed,
        latencies_ms=tuple(latencies), lags_ms=tuple(lags or [0.1] * len(latencies)),
    )


def test_step_with_late_generator_is_invalid_even_if_fast():
    verdict = stats.judge_step(
        _step([0.3] * 2000, lags=[0.1] * 1900 + [3.0] * 100), limit_ms=2.0, max_lag_ms=1.0
    )
    assert not verdict.valid and not verdict.passed
    assert verdict.reason == "generator behind"
    # judged at p90, 5% late sends are within the generator's budget
    assert stats.judge_step(
        _step([0.3] * 2000, lags=[0.1] * 1900 + [3.0] * 100),
        limit_ms=2.0, max_lag_ms=1.0, level=90.0,
    ).passed


def test_step_latency_is_judged_at_the_chosen_percentile():
    stalled = [0.4] * 1960 + [25.0] * 40  # 2% of requests hit a host stall
    assert stats.judge_step(_step(stalled), limit_ms=2.0, max_lag_ms=1.0).reason == "p99 over limit"
    verdict = stats.judge_step(_step(stalled), limit_ms=2.0, max_lag_ms=1.0, level=90.0)
    assert verdict.passed and verdict.latency_ms == pytest.approx(0.4)


def test_step_failures_and_sample_count_fail_the_step():
    assert stats.judge_step(_step([0.3] * 2000, failed=1), limit_ms=2, max_lag_ms=1).reason == "failures"
    short = stats.judge_step(_step([0.3] * 500), limit_ms=2, max_lag_ms=1)
    assert not short.valid and short.reason == "too few samples"


def test_growing_backlog_fails_a_step_within_the_limit():
    rising = [0.2 + 1.8 * i / 3000 for i in range(3000)]  # p99 under 2 ms
    assert stats.percentile(rising, 99) < 2.0
    verdict = stats.judge_step(_step(rising), limit_ms=2.0, max_lag_ms=1.0)
    assert verdict.backlog and verdict.reason == "backlog growing"
    flat = stats.judge_step(_step([0.3, 0.4] * 1000), limit_ms=2.0, max_lag_ms=1.0)
    assert flat.passed and not flat.backlog


def _curve(knee):
    """A server whose p90 is 0.5 ms up to ``knee`` qps and 20 ms above it."""
    probed = []

    def probe(rate):
        probed.append(rate)
        latency = 0.5 if rate <= knee else 20.0
        return latency <= 2.0, latency

    return probe, probed


def test_ladder_climbs_bisects_and_interpolates_in_log_latency():
    probe, probed = _curve(4600)
    best = stats.ladder_search(probe, [2000, 4000, 6000, 8000], limit_ms=2.0, refine=1)
    assert probed == [2000, 4000, 6000, 5000]
    # 0.5 ms -> 20 ms over 4000..5000: 2 ms lies 37.6% of the way in log terms
    assert best == pytest.approx(4000 + 1000 * math.log(4) / math.log(40))


def test_ladder_without_refinement_interpolates_the_first_bracket():
    probe, probed = _curve(5000)
    best = stats.ladder_search(probe, [2000, 4000, 6000, 8000], limit_ms=2.0, refine=0)
    assert probed == [2000, 4000, 6000]
    assert best == pytest.approx(4000 + 2000 * math.log(4) / math.log(40))


def test_ladder_stops_at_last_met_rate_when_the_failure_is_not_latency():
    calls = iter([(True, 0.4), (True, 0.5), (False, 0.6)])  # failures or a backlog
    assert stats.ladder_search(
        lambda r: next(calls), [1000, 2000, 3000], limit_ms=2.0, refine=0
    ) == 2000


def test_ladder_reports_zero_when_lowest_rate_fails():
    assert stats.ladder_search(lambda r: (False, 9.0), [1000, 2000], limit_ms=2.0) == 0.0


def test_ladder_top_rate_met_is_the_answer():
    assert stats.ladder_search(lambda r: (True, 0.3), [1000, 2000], limit_ms=2.0) == 2000
