"""Tests of the benchmark's own helpers: python3 -m pytest bench -q"""

from __future__ import annotations

import types

import pytest

from spans import CELL, NAME, PARENT, SID, Tracer, self_times, totals_by_name, union_length
from stats import failed_frac, percentile, tail


def span(sid, name, start, end, parent=0, cell=0):
    return (sid, name, start, end, parent, cell)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_children_once():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 3.0, parent=1),
        span(3, "b", 2.0, 5.0, parent=1),  # overlaps a, as pool threads do
        span(4, "a.inner", 1.5, 2.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0)  # children cover [1, 5]
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_self_time_clips_children_to_parent():
    spans = [span(1, "p", 0.0, 2.0), span(2, "c", 1.0, 3.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_totals_by_name_sums_calls_durations_and_self():
    spans = [
        span(1, "x", 0.0, 4.0),
        span(2, "y", 1.0, 2.0, parent=1),
        span(3, "y", 2.0, 3.5, parent=1),
    ]
    totals = totals_by_name(spans)
    assert totals["y"] == pytest.approx((2, 2.5, 2.5))
    assert totals["x"] == pytest.approx((1, 4.0, 1.5))


def test_tracer_nests_spans_assigns_cells_and_restores():
    mod = types.SimpleNamespace()
    mod.leaf = lambda v: v + 1
    mod.cell = lambda v: mod.leaf(v) * 2
    original_leaf = mod.leaf
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "layer.leaf", after=lambda a, r: tracer.count("leaves"))
    tracer.wrap(mod, "cell", lambda v: f"layer.cell{v}", opens_cell=True)
    assert mod.cell(1) == 4
    assert mod.leaf(5) == 6  # outside any cell
    tracer.restore()
    assert mod.leaf is original_leaf

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[NAME], []).append(s)
    (cell_span,) = by_name["layer.cell1"]
    inner, outer = sorted(by_name["layer.leaf"], key=lambda s: s[SID])
    assert inner[PARENT] == cell_span[SID] and inner[CELL] == cell_span[SID]
    assert cell_span[PARENT] == 0 and cell_span[CELL] == cell_span[SID]
    assert outer[PARENT] == 0 and outer[CELL] == 0
    assert tracer.counts["leaves"] == 2


def test_tail_falls_back_to_median_below_ten_beyond():
    values = [float(v) for v in range(1, 17)]  # 16 cells: p75 has 4 beyond
    assert tail(values) == (50.0, 8.5)


@pytest.mark.parametrize(
    "n, pct",
    [(39, 50.0), (40, 75.0), (128, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = [float(v) for v in range(1, n + 1)]
    got_pct, value = tail(values)
    assert got_pct == pct
    if pct != 50.0:
        assert sum(v > value for v in values) >= 10


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 41)]
    assert percentile(values, 75.0) == 30.0
    assert percentile(values, 50.0) == 20.5
    assert percentile([3.0], 99.0) == 3.0


def test_failed_frac_base_counts_cells_and_request_attempts():
    assert failed_frac(cells=128, failed_cells=0, request_attempts=136, requests_ok=136) == (264, 0, 0.0)
    attempted, failed, frac = failed_frac(cells=128, failed_cells=1, request_attempts=137, requests_ok=136)
    assert (attempted, failed) == (265, 2)
    assert frac == pytest.approx(2 / 265)
    assert failed_frac(cells=16, failed_cells=0, request_attempts=0, requests_ok=0) == (16, 0, 0.0)


def test_failed_frac_rejects_impossible_counts():
    with pytest.raises(ValueError):
        failed_frac(cells=0, failed_cells=0, request_attempts=0, requests_ok=0)
    with pytest.raises(ValueError):
        failed_frac(cells=1, failed_cells=0, request_attempts=1, requests_ok=2)
