"""Pure statistics of the harness: percentiles, lag, backlog, ladder search.

Nothing here touches a socket, a process or the clock, so every rule the
benchmark's numbers depend on is unit-tested on synthetic inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

#: percentile levels a tail may be reported at, highest first
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], level: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * level / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def beyond(count: int, level: float) -> int:
    """Samples strictly above the ``level`` percentile of ``count`` samples."""
    return count - math.ceil(count * level / 100.0)


def tail(values: Sequence[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(level, value, sample count)``, or ``None`` when even the
    median has fewer than ten samples beyond it.
    """
    n = len(values)
    for level in TAIL_LEVELS:
        if beyond(n, level) >= MIN_BEYOND:
            return level, percentile(values, level), n
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass(frozen=True)
class StepResult:
    """One fixed-rate step of the open-loop generator.

    Latencies are measured from each request's *due* time, so a stall of
    the server (or of the generator) is charged to every request it
    delayed.  ``lags_ms`` is how late each request left the generator.
    """

    rate: float
    sent: int
    failed: int
    latencies_ms: tuple[float, ...]
    lags_ms: tuple[float, ...]


def lag_ms(lags_ms: Sequence[float], level: float = 99.0) -> float:
    """How late the generator ran: a percentile of send minus due time."""
    return percentile(lags_ms, level) if lags_ms else 0.0


def backlog_growing(latencies_ms: Sequence[float], limit_ms: float) -> bool:
    """Whether latency climbed across a step (requests in due order).

    A server that only meets a rate by queueing shows latency rising
    from the first third of the step to the last; more than half the
    latency limit of rise counts as a growing backlog.
    """
    n = len(latencies_ms)
    if n < 3:
        return False
    third = n // 3
    first = median(latencies_ms[:third])
    last = median(latencies_ms[n - third:])
    return last - first > 0.5 * limit_ms


@dataclass(frozen=True)
class StepVerdict:
    passed: bool
    valid: bool
    latency_ms: float | None
    lag_ms: float
    backlog: bool
    reason: str


def judge_step(
    step: StepResult,
    *,
    limit_ms: float,
    max_lag_ms: float,
    level: float = 99.0,
    min_samples: int = 1000,
) -> StepVerdict:
    """Does a rate step meet the latency limit honestly?

    The step's ``level`` percentile of latency must be within
    ``limit_ms``.  A step is *invalid* when the generator itself fell
    behind (the same percentile of its lag exceeds ``max_lag_ms``) or
    sent fewer than ``min_samples`` requests; an invalid step never
    counts as met.  A valid step passes when no request failed, the
    latency percentile is within the limit and the backlog did not grow.
    """
    lag = lag_ms(step.lags_ms, level)
    latency = percentile(step.latencies_ms, level) if step.latencies_ms else None
    backlog = backlog_growing(step.latencies_ms, limit_ms)
    if step.sent < min_samples:
        return StepVerdict(False, False, latency, lag, backlog, "too few samples")
    if lag > max_lag_ms:
        return StepVerdict(False, False, latency, lag, backlog, "generator behind")
    if step.failed:
        return StepVerdict(False, True, latency, lag, backlog, "failures")
    if latency is None or latency > limit_ms:
        return StepVerdict(False, True, latency, lag, backlog, f"p{level:g} over limit")
    if backlog:
        return StepVerdict(False, True, latency, lag, backlog, "backlog growing")
    return StepVerdict(True, True, latency, lag, backlog, "met")


def ladder_search(
    probe: Callable[[float], tuple[bool, float]],
    rates: Sequence[float],
    *,
    limit_ms: float,
    refine: int = 1,
) -> float:
    """Highest rate meeting the latency limit, climbing an ascending ladder.

    ``probe(rate)`` returns ``(met, latency_ms)``.  The climb stops at the
    first rate not met; ``refine`` bisections then narrow the bracket
    between the last met rate and it.  When the bracket's upper end
    failed on latency alone, the answer is interpolated inside the
    bracket, linearly in the logarithm of latency, to where latency
    crosses ``limit_ms``; otherwise (failures, a growing backlog, a
    generator behind) it is the last met rate.  Returns 0.0 when even the
    lowest rate is not met.
    """
    lo, lo_latency = 0.0, None
    hi = hi_latency = None
    for rate in rates:
        met, latency = probe(rate)
        if not met:
            hi, hi_latency = rate, latency
            break
        lo, lo_latency = rate, latency
    if hi is None or lo_latency is None:
        return lo
    for _ in range(refine):
        mid = (lo + hi) / 2.0
        met, latency = probe(mid)
        if met:
            lo, lo_latency = mid, latency
        else:
            hi, hi_latency = mid, latency
    if lo_latency < limit_ms < hi_latency:
        share = math.log(limit_ms / lo_latency) / math.log(hi_latency / lo_latency)
        return lo + (hi - lo) * share
    return lo
