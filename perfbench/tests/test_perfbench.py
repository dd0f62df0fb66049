"""Self-tests of the benchmark harness.

    python -m pytest perfbench/tests -q

The smoke test starts Ray in subprocesses (one per workload) and takes
about a minute; the others are pure Python.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import config, layers, run  # noqa: E402
from perfbench.spans import Span, Tracer, Tree, self_time, tail_percentile  # noqa: E402


# -- the ">= 10 samples beyond" percentile rule ---------------------------

@pytest.mark.parametrize("n, index, pct", [
    (20, 9, 50.0),     # the first n whose tail percentile is not below p50
    (30, 19, 200 / 3),
    (100, 89, 90.0),
    (1000, 989, 99.0),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, index, pct):
    xs = [float(i) for i in range(n)]
    value, got_pct = tail_percentile(list(reversed(xs)))
    assert value == xs[index]
    assert got_pct == pytest.approx(pct)
    assert sum(x > value for x in xs) == 10


@pytest.mark.parametrize("n", [1, 5, 11, 19])
def test_tail_percentile_falls_back_to_median_below_twenty(n):
    xs = [float(i) for i in range(n)]
    value, pct = tail_percentile(xs)
    assert pct == 50.0
    assert value == (xs[(n - 1) // 2] + xs[n // 2]) / 2


def test_tail_percentile_empty():
    assert tail_percentile([]) == (0.0, 0.0)


# -- span self time ---------------------------------------------------------

def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent)


def test_self_time_subtracts_union_of_children():
    parent = _span(1, 0.0, 10.0)
    kids = [_span(2, 1.0, 3.0, 1), _span(3, 2.0, 5.0, 1), _span(4, 8.0, 12.0, 1)]
    # covered: [1, 5] and [8, 10] (clipped at the parent's end) = 6
    assert self_time(parent, kids) == pytest.approx(4.0)


def test_self_time_ignores_children_outside_and_counts_nested_once():
    parent = _span(1, 10.0, 20.0)
    kids = [_span(2, 0.0, 5.0, 1), _span(3, 12.0, 18.0, 1), _span(4, 13.0, 14.0, 1)]
    assert self_time(parent, kids) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_tracer_links_parents_per_thread_and_restores_wraps():
    tr = Tracer()

    class Layer:
        def work(self, inner=False):
            if inner:
                with tr.span("inner"):
                    pass
            return 7

    original = Layer.__dict__["work"]
    tr.wrap(Layer, "work", "layer.work")
    with tr.span("outer"):
        assert Layer().work(inner=True) == 7
        t = threading.Thread(target=lambda: Layer().work())
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    tr.restore()
    assert Layer.__dict__["work"] is original

    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    outer = by_name["outer"][0]
    on_main, on_thread = sorted(by_name["layer.work"], key=lambda s: s.parent is None)
    assert on_main.parent == outer.id
    assert on_thread.parent is None  # another thread's stack is empty
    assert by_name["inner"][0].parent == on_main.id
    tree = Tree(tr.spans)
    assert tree.under(by_name["inner"][0], "outer")
    assert tree.self_time(on_main) <= on_main.dur


def test_generator_spans_count_items():
    tr = Tracer()

    class Log:
        def rows(self, n):
            yield from range(n)

    tr.wrap_generator(Log, "rows", "log.rows")
    with tr.span("reader"):
        assert list(Log().rows(5)) == [0, 1, 2, 3, 4]
        it = Log().rows(9)
        next(it)
        it.close()  # an early stop still ends the span
    tr.restore()
    counts = sorted(s.attrs["items"] for s in tr.spans if s.name == "log.rows")
    assert counts == [1, 5]


# -- BENCHMARK.json agrees with the harness -------------------------------

def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_harness():
    b = _benchmark()
    assert [w["name"] for w in b["workloads"]] == list(config.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == layers.PER_LAYER
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


def test_pinned_parameters_are_stated_in_benchmark_json():
    why = {w["name"]: w["why"] for w in _benchmark()["workloads"]}
    for name, w in config.WORKLOADS.items():
        text = why[name]
        assert f"num_cpus={config.NUM_CPUS}" in text
        assert f"{w.partitions} partitions" in text
        assert f"{w.window // 1000}k" in text
        if w.kind == "tail":
            assert f"{int(w.rate)} ev/s" in text
        else:
            assert f"{w.backlog // 1000}k-event backlog" in text
        if w.split_over_bytes:
            assert f"split_over_bytes={w.split_over_bytes}" in text
        if w.compact_every:
            assert f"compact_every={w.compact_every}" in text


# -- smoke: all three loops through the correctness gate -------------------

@pytest.mark.parametrize("workload, trace", [
    ("stream_tail", 0), ("stream_catchup", 1), ("batch_replay", 0),
])
def test_smoke_workload_passes_correctness_gate(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert detail["state_matches_oracle"] is True
    want = layers.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if workload == "stream_catchup":  # the split budget is low enough to split
        assert detail["ledger_rows"].get("split", 0) > 0
    if trace:  # catch-up maintains; its lookups read the ledger
        assert result["metrics"]["maint.s_total"]["value"] > 0
        assert result["metrics"]["ledger.s_per_lookup"]["value"] > 0
