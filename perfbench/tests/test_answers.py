"""The serve-read answer check recomputes the engine's answers exactly."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from perfbench import serving  # noqa: E402
from repro.core.cdf import EstimatedCDF  # noqa: E402


@pytest.fixture
def estimate():
    return EstimatedCDF(
        thresholds=np.array([256.0, 512.0, 1024.0, 2048.0]),
        fractions=np.array([0.15, 0.41, 0.73, 0.93]),
        minimum=128.0, maximum=4096.0, system_size=1999.5,
    )


def test_recompute_matches_the_estimate(estimate):
    xs, ys = estimate.polyline()
    meta = {"minimum": estimate.minimum, "maximum": estimate.maximum, "size_estimate": 1999.5}
    for body in serving.query_pool(3, estimate.minimum, estimate.maximum)[:400]:
        request = json.loads("{" + body)
        if request["op"] == "cdf":
            expected = float(estimate.evaluate(request["x"]))
        elif request["op"] == "quantile":
            expected = float(estimate.quantile(request["q"])[0])
        elif request["op"] == "fraction":
            expected = max(float(estimate.evaluate(request["b"]) - estimate.evaluate(request["a"])), 0.0)
        else:
            expected = 1999.5
        assert serving.recompute(body, meta, xs, ys) == pytest.approx(expected, abs=1e-12)


def test_query_pool_is_seeded_and_larger_than_the_cache():
    pool = serving.query_pool(5, 64.0, 4608.0)
    assert pool == serving.query_pool(5, 64.0, 4608.0)
    assert pool != serving.query_pool(6, 64.0, 4608.0)
    assert len(set(pool)) > 1024


def test_query_pool_mixes_ops_evenly_within_the_range():
    requests = [json.loads("{" + body) for body in serving.query_pool(5, 64.0, 4608.0)]
    for op in serving.OPS:
        share = sum(r["op"] == op for r in requests) / len(requests)
        assert share == pytest.approx(1 / len(serving.OPS), abs=0.03)
    xs = [r[k] for r in requests for k in ("x", "a", "b") if k in r]
    assert 64.0 <= min(xs) and max(xs) <= 4608.0
