"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from mbsbench import hostref, inputs, layers, stats  # noqa: E402
from mbsbench.spans import Span, SpanSummary, Tracer, self_times  # noqa: E402


# -- seeded inputs ------------------------------------------------------------

def _all_inputs(seed: int):
    return (
        inputs.price_cold_inputs(seed, 5),
        inputs.artifact_orders(seed, list(layers.SPEC_NAMES)),
        inputs.serve_plan(seed, 20),
    )


def test_same_seed_gives_identical_inputs():
    assert _all_inputs(7) == _all_inputs(7)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_different_seed_gives_different_inputs(index):
    assert _all_inputs(7)[index] != _all_inputs(8)[index]


def test_price_cold_rounds_are_stratified():
    calls = inputs.price_cold_inputs(3, 5)
    assert len(calls) == 5 * inputs.ROUND_CALLS >= inputs.MIN_PRICE_CALLS
    for network in inputs.PAPER_NETWORKS:
        mine = [c for c in calls if c["network"] == network]
        assert len(mine) == 5 * inputs.OCTAVES
        auto = [c for c in mine if c["policy"] == "mbs-auto"]
        assert len(auto) == 5 * 6  # six of eight calls search
    assert all(inputs.MIN_BUFFER <= c["buffer_bytes"] < 4 * inputs.MIB
               for c in calls)


def test_serve_plan_mix_and_keys():
    plan = inputs.serve_plan(5, 20)
    requests = [r for step in plan for r in step["requests"]]
    assert len(requests) == 1000
    seen: set[int] = set()
    for step in plan:
        keys = [r["key"] for r in step["requests"]]
        if step["kind"].startswith("repeat"):
            assert keys[0] in seen  # a repeat names an answered key
        else:
            assert not seen & set(keys)  # fresh keys are new
        if step["kind"] == "dedup":
            assert keys[0] == keys[1]
        if step["kind"] == "batch":
            a, b = (r["wire"] for r in step["requests"])
            assert keys[0] != keys[1]
            assert {k: v for k, v in a.items() if k != "buffer_bytes"} == \
                {k: v for k, v in b.items() if k != "buffer_bytes"}
        seen.update(keys)
    wires = {json.dumps(r["wire"], sort_keys=True): r["key"]
             for r in requests}
    assert len(wires) == len(seen)  # one key per distinct query
    assert inputs.WARMUP_REQUEST["buffer_bytes"] >= 4 * inputs.MIB


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("q, needed", [(50, 20), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    assert stats.min_samples(q) == needed
    stats.percentile(list(range(needed)), q)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(needed - 1)), q)
    assert stats.percentile_or_zero(list(range(needed - 1)), q) == 0.0


def test_percentile_values():
    values = list(range(1, 1001))  # 1..1000
    assert stats.percentile(values, 50) == pytest.approx(500.5)
    assert stats.percentile(values, 99) == pytest.approx(990.01)
    assert stats.percentile(list(reversed(values)), 95) == \
        stats.percentile(values, 95)


# -- span self times ----------------------------------------------------------

def test_self_time_on_a_synthetic_tree():
    spans = [
        Span("price", 0.0, 10.0, -1),
        Span("build", 1.0, 2.0, 0),
        Span("search", 2.0, 6.0, 0),
        Span("walk", 3.0, 4.0, 2),
        Span("walk", 3.5, 5.0, 2),    # overlaps its sibling: counted once
        Span("simulate", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 1 - 4 - 1, 1, 4 - 2,
                                               1, 1.5, 3])
    summary = SpanSummary(spans)
    assert summary.busy_s("walk") == pytest.approx(2.5)
    assert summary.calls("walk") == 2
    assert summary.self_s_total("price") == pytest.approx(4.0)


def test_nested_same_name_counts_once():
    spans = [Span("price", 0.0, 5.0, -1), Span("price", 1.0, 4.0, 0)]
    summary = SpanSummary(spans)
    assert summary.busy_s("price") == 5.0
    assert summary.durations("price") == [5.0]
    assert summary.self_s_total("price") == pytest.approx(5.0)


class _Owner:
    @classmethod
    def make(cls, x):
        return cls, x

    def method(self, x):
        return x + 1


def test_tracer_patches_and_restores():
    tracer = Tracer()
    original = _Owner.__dict__["make"]
    tracer.patch(_Owner, "make", "make")
    tracer.patch(_Owner, "method", "method")
    assert _Owner.make(3) == (_Owner, 3)
    assert _Owner().method(1) == 2
    tracer.unpatch_all()
    assert _Owner.__dict__["make"] is original
    assert [s.name for s in tracer.spans] == ["make", "method"]


def test_tracer_parents_follow_asyncio_tasks():
    tracer = Tracer()

    def leaf():
        return None

    async def handler(i):
        await asyncio.sleep(0.001 * (2 - i))
        traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_handler = tracer.wrap(handler, "handler")

    async def request(i):
        tracer.set_op(i)
        await traced_handler(i)

    async def main():
        await asyncio.gather(request(0), request(1))

    asyncio.run(main())
    handlers = {i: s for i, s in enumerate(tracer.spans)
                if s.name == "handler"}
    for leaf_span in (s for s in tracer.spans if s.name == "leaf"):
        assert leaf_span.parent in handlers
        assert handlers[leaf_span.parent].op == leaf_span.op


# -- host rescaling -----------------------------------------------------------

def test_rescale_math():
    nominal = hostref.NOMINAL_REF_S
    assert hostref.rescale(2.0, nominal) == pytest.approx(2.0)
    # a host twice as slow inflates the kernel too: halved back
    assert hostref.rescale(2.0, 2 * nominal) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hostref.rescale(1.0, 0.0)


def test_host_clock_uses_bracketing_samples(monkeypatch):
    refs = iter([1.0, 9.0, 1.0, 3.0, 3.0, 3.0, 5.0, 0.1, 5.0])
    clock = hostref.HostClock(kernel=lambda: next(refs))
    now = iter([10.0, 10.5, 11.0])
    monkeypatch.setattr(hostref.time, "perf_counter", lambda: next(now))
    for _ in range(3):
        clock.sample()
    assert clock.refs == [1.0, 3.0, 5.0]   # the median of each sample
    assert clock.bracket(10.1, 10.4) == (1.0, 3.0)
    assert clock.bracket(10.6, 11.5) == (3.0, 5.0)   # none after: last
    assert clock.median_ref() == 3.0
    # 0.3 s is 30 % of the way from the end samples' mean to nominal
    ref = 0.7 * 2.0 + 0.3 * hostref.NOMINAL_REF_S
    assert clock.ref_for(10.1, 10.4) == pytest.approx(ref)
    assert clock.rescaled(10.1, 10.4) == pytest.approx(
        0.3 * hostref.NOMINAL_REF_S / ref)


def _clock_with(times, refs):
    clock = hostref.HostClock()
    clock.times, clock.refs = list(times), list(refs)
    return clock


def test_long_operations_stay_in_host_seconds():
    clock = _clock_with([0.0, 10.0], [2 * hostref.NOMINAL_REF_S] * 2)
    long_op = hostref.LONG_OP_S + 0.5
    assert clock.rescaled(1.0, 1.0 + long_op) == pytest.approx(long_op)
    assert clock.rescaled(1.0, 1.001) == pytest.approx(0.0005, rel=0.01)


def test_rescaled_time_grows_with_raw_time_across_long_op():
    nominal = hostref.NOMINAL_REF_S
    for around in (nominal / 4, 4 * nominal):   # a fast host, a slow one
        clock = _clock_with([0.0, 10.0], [around, around])
        raws = [hostref.LONG_OP_S * k / 100 for k in range(1, 301)]
        scaled = [clock.rescaled(1.0, 1.0 + raw) for raw in raws]
        assert all(b >= a for a, b in zip(scaled, scaled[1:]))
        # no jump where an operation reaches LONG_OP_S
        edge = hostref.LONG_OP_S
        assert clock.rescaled(1.0, 1.0 + edge - 1e-6) == pytest.approx(
            clock.rescaled(1.0, 1.0 + edge + 1e-6), rel=1e-4)


def test_reference_kernel_runs():
    assert hostref.reference_kernel() > 0


# -- traced boundaries -------------------------------------------------------

def test_a_boundary_without_callers_is_an_error(monkeypatch):
    from repro import api  # noqa: F401  (install patches loaded modules)
    from repro.core import traffic

    # move every caller's reference to compute_traffic out of sight, as
    # if the pricing path stopped importing it
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith(layers.CALLERS):
            for attr, value in list(vars(module).items()):
                if value is traffic.compute_traffic:
                    monkeypatch.delattr(module, attr)
    tracer = Tracer()
    try:
        errors = layers.install(tracer)
    finally:
        tracer.unpatch_all()
    assert [e for e in errors if "core.compute_traffic" in e]
    assert not [e for e in errors if "core.make_schedule" in e]


def test_missing_required_spans_are_errors():
    spans = [Span(name, 0.0, 1.0, -1)
             for name in layers.REQUIRED_SPANS["price-cold"]
             if name != "wavecore.simulate_step"]
    errors = layers.missing_spans(SpanSummary(spans), "price-cold")
    assert errors == ["traced run recorded no wavecore.simulate_step span"]


# -- BENCHMARK.json agrees with the code ---------------------------------------

def test_benchmark_json_matches_the_metrics_the_code_emits():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
