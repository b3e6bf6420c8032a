"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs
from perfbench.tracing import (
    Span,
    Tracer,
    covered_length,
    percentile,
    self_times,
    summarize,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent
inputs.python_path_for(ROOT)


# -- span self time -----------------------------------------------------------


def test_self_time_is_parent_minus_children():
    spans = [
        Span(0, None, "dispatch", 0.0, 10.0),
        Span(1, 0, "engine", 1.0, 3.0),
        Span(2, 0, "corrector", 4.0, 9.0),
        Span(3, 2, "engine", 5.0, 8.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(5.0 - 3.0)
    assert own[3] == pytest.approx(3.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [
        Span(0, None, "parent", 0.0, 10.0),
        Span(1, 0, "a", 2.0, 6.0),
        Span(2, 0, "b", 4.0, 7.0),  # overlaps a by 2
        Span(3, 0, "c", 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_length_unions_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.2, 0.4), (0.3, 0.6), (0.8, 2.0)], 0.0, 1.0) == pytest.approx(0.6)
    assert covered_length([(-1.0, 0.5)], 0.0, 1.0) == pytest.approx(0.5)


def test_summary_keys_by_name_and_parent_pair():
    spans = [
        Span(0, None, "corrector", 0.0, 4.0, rows=2),
        Span(1, 0, "engine", 1.0, 2.0, rows=100),
        Span(2, None, "engine", 5.0, 6.0, rows=8),
    ]
    summary = summarize(spans)
    assert summary["engine"]["calls"] == 2
    assert summary["engine"]["rows"] == 108
    assert summary["corrector>engine"]["rows"] == 100
    assert summary["corrector"]["self_s"] == pytest.approx(3.0)


def test_wrapped_calls_nest_through_the_thread_stack():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Engine:
        def logits(self, x):
            return len(x)

    class Corrector:
        def __init__(self, engine):
            self.engine = engine

        def correct(self, x):
            return self.engine.logits(x) + self.engine.logits(x)

    engine = Engine()
    tracer.wrap(engine, "logits", "engine", rows_arg=0)
    tracer.wrap(Corrector, "correct", "corrector", rows_arg=0)
    assert Corrector(engine).correct([1, 2, 3]) == 6
    by_name = {span.name: span for span in tracer.spans}
    engines = [span for span in tracer.spans if span.name == "engine"]
    assert len(engines) == 2
    assert all(span.parent == by_name["corrector"].id for span in engines)
    assert by_name["corrector"].rows == 3
    # corrector: ticks 0..5; engines: 1..2 and 3..4 -> self = 5 - 2.
    assert tracer.summary()["corrector"]["self_s"] == pytest.approx(3.0)


# -- percentile rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=257))
    for pct in (0, 50, 90, 99, 100):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))
    with pytest.raises(ValueError):
        percentile([], 50)


# -- pinned inputs --------------------------------------------------------------


def _table(n_benign: int = 20, n_adv: int = 10) -> inputs.RowTable:
    n = n_benign + n_adv
    x = np.arange(n * 4, dtype=np.float64).reshape(n, 1, 2, 2)
    return inputs.RowTable(x, np.arange(n) % 10, np.arange(n) >= n_benign)


def test_stream_is_a_pure_function_of_the_seed():
    table = _table()
    a, b = inputs.build_stream(table, 7, 500), inputs.build_stream(table, 7, 500)
    assert a.fingerprint() == b.fingerprint()
    assert inputs.build_stream(table, 8, 500).fingerprint() != a.fingerprint()
    sizes = np.diff(a.offsets)
    assert sizes.min() >= inputs.MIN_ROWS and sizes.max() <= inputs.MAX_ROWS
    share = table.adversarial[a.row_ids].mean()
    assert abs(share - inputs.ADV_FRACTION) < 0.05


def test_benign_rows_are_drawn_without_replacement_per_round():
    table = _table(n_benign=20, n_adv=0)
    stream = inputs.build_stream(table, 3, 8)
    first_round = stream.row_ids[:20]
    assert len(set(first_round.tolist())) == len(first_round)


# -- output checks ----------------------------------------------------------------


def _serve_bench(table, stream, refs):
    from perfbench.run import ServeBench

    bench = ServeBench.__new__(ServeBench)
    bench.table, bench.stream, bench.refs = table, stream, refs
    return bench


def _window(bench, tamper: int | None = None, shed: int | None = None) -> dict:
    from repro.serve import ServeResult

    records = []
    for i in range(len(bench.stream)):
        ids = bench.stream.rows(i)
        labels = bench.refs[ids].copy()
        if i == tamper:
            labels[0] = (labels[0] + 1) % 10
        if i == shed:
            result = ServeResult(status="shed", reason="overload")
        else:
            result = ServeResult("ok", labels, np.zeros(len(ids), dtype=bool), 0.001)
        records.append((i, i * 0.01, i * 0.01 + 0.005, result))
    return {"start": 0.0, "seconds": 1.0, "records": records}


def test_every_label_must_match_the_reference():
    table = _table()
    bench = _serve_bench(table, inputs.build_stream(table, 1, 40), table.source.copy())
    clean = bench.score(_window(bench))
    assert clean["failed"] == 0 and clean["served_frac"] == 1.0
    tampered = bench.score(_window(bench, tamper=17))
    assert tampered["failed"] == 1
    assert tampered["served_frac"] == pytest.approx(39 / 40)
    assert tampered["rows_per_s"] == clean["rows_per_s"] - len(bench.stream.rows(17))


def test_a_shed_request_fails_the_run():
    table = _table()
    bench = _serve_bench(table, inputs.build_stream(table, 1, 40), table.source.copy())
    assert bench.score(_window(bench, shed=3))["failed"] == 1
