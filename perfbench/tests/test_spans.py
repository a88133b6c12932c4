"""Span bookkeeping: self time, windows and the tracer's parent links."""

import threading

import pytest

from perfbench import spans


def test_self_time_subtracts_children():
    records = [
        ("root", 0.0, 10.0, None, "r"),
        ("a", 1.0, 3.0, 0, "r"),
        ("b", 5.0, 6.0, 0, "r"),
        ("b.leaf", 5.2, 5.4, 2, "r"),
    ]
    assert spans.self_times(records) == pytest.approx([7.0, 2.0, 0.8, 0.2])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    records = [
        ("root", 0.0, 10.0, None, 1),
        ("a", 2.0, 6.0, 0, 1),
        ("b", 4.0, 8.0, 0, 1),   # overlaps a: union 2..8
        ("c", 9.0, 12.0, 0, 1),  # outlives the parent: only 9..10 counts
    ]
    assert spans.self_times(records)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_union_length():
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert spans.union_length([]) == 0.0


def test_busy_and_self_busy_sum_by_name():
    records = [("x", 0.0, 2.0, None, 1), ("y", 0.5, 1.0, 0, 1), ("x", 3.0, 4.0, None, 2)]
    selfs = spans.self_times(records)
    assert spans.busy(records, "x") == pytest.approx(3.0)
    assert spans.self_busy(records, selfs, "x") == pytest.approx(2.5)
    assert spans.calls(records, "x", "y") == 3


def test_within_keeps_whole_finished_trees_and_reindexes():
    records = [
        ("warm", 0.0, 1.0, None, "c1"),
        ("warm.child", 0.2, 0.4, 0, "c1"),
        ("req", 5.0, 5.1, None, 7),
        ("req.child", 5.02, 5.05, 2, 7),
        ("open", 6.0, 0.0, None, "c2"),  # still running at dump time
    ]
    kept = spans.within(records, 2.0, 10.0)
    assert kept == [("req", 5.0, 5.1, None, 7), ("req.child", 5.02, 5.05, 0, 7)]


def test_tracer_links_parents_per_thread_and_shares_trace_ids():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, trace_of=lambda x: f"req-{x}")

    def worker():
        outer(10)

    thread = threading.Thread(target=worker)
    thread.start()
    outer(1)
    thread.join(timeout=10)
    assert not thread.is_alive()
    records = tracer.records()
    assert len(records) == 4
    for index, (name, start, end, parent, trace) in enumerate(records):
        assert end >= start
        if name == "inner":
            assert records[parent][0] == "outer"
            assert records[parent][4] == trace
        else:
            assert parent is None
    assert {r[4] for r in records} == {"req-1", "req-10"}


def test_tracer_counts_from_results():
    tracer = spans.Tracer()
    kernel = tracer.wrap("k", lambda n: n, after=lambda result, args: tracer.count("pairs", result))
    kernel(3)
    middle = spans.clock()
    kernel(4)
    assert spans.totals(tracer.counts) == {"pairs": 7.0}
    assert spans.totals(tracer.counts, middle) == {"pairs": 4.0}
