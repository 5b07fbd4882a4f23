"""The measured process of the price-cold and artifacts workloads.

Run as ``python -m mbsbench.child MODE IN.json OUT.json`` with the
program's ``src`` and ``perfbench`` on ``PYTHONPATH``.  It imports what
the workload's first operation needs, prints one ``ready`` line (the
parent's set-up clock stops there), runs the operations named in
``IN.json`` and writes its measurements to ``OUT.json``.  With
``"probe": true`` it exits right after ``ready``.
"""
from __future__ import annotations

import json
import math
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any

from mbsbench import layers
from mbsbench.hostref import NOMINAL_REF_S, HostClock
from mbsbench.spans import SpanSummary, Tracer

#: Calls the traced price-cold run re-prices layer by layer to check
#: that ``api.price`` reports exactly what its layers compute.
RECOMPUTE_SAMPLE = 24


def _ready() -> None:
    print(json.dumps({"ready": True}), flush=True)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- price-cold ---------------------------------------------------------------

def _check_price(call: dict[str, Any], wire: dict[str, Any]) -> str | None:
    """Why an answer is wrong, or None."""
    for key in ("network", "policy", "objective", "buffer_bytes"):
        if wire.get(key) != call[key]:
            return f"{key} {wire.get(key)!r} != requested {call[key]!r}"
    if wire.get("degraded") is not False:
        return "degraded answer"
    if not (isinstance(wire.get("traffic_bytes"), int)
            and wire["traffic_bytes"] > 0):
        return f"bad traffic_bytes {wire.get('traffic_bytes')!r}"
    for key in ("step_time_s", "step_energy_j"):
        value = wire.get(key)
        if not (isinstance(value, float) and math.isfinite(value)
                and value > 0):
            return f"bad {key} {value!r}"
    return None


def _price_pass(calls, api, clock: HostClock, tracer: Tracer | None):
    intervals, wires, errors = [], [], []
    for i, call in enumerate(calls):
        clock.sample()
        if tracer is not None:
            tracer.set_op(i)
        started = time.perf_counter()
        try:
            wire = api.price(
                call["network"], call["policy"],
                buffer_bytes=call["buffer_bytes"],
                objective=call["objective"],
            ).to_wire()
        except Exception as exc:  # counted as a failed operation
            wire, error = None, f"call {i}: {exc!r}"
        else:
            error = _check_price(call, wire)
            if error:
                error = f"call {i}: {error}"
        intervals.append((started, time.perf_counter()))
        wires.append(wire)
        if error:
            errors.append(error)
    clock.sample()
    return intervals, wires, errors


def _recompute(call: dict[str, Any], wire: dict[str, Any]) -> str | None:
    """Re-price one call through make_schedule → compute_traffic →
    simulate_step; None when it matches ``api.price`` exactly."""
    from repro.core.policies import HARDWARE_OBJECTIVES, make_schedule
    from repro.core.traffic import compute_traffic
    from repro.wavecore.config import config_for_policy
    from repro.wavecore.simulator import simulate_step
    from repro.zoo import build

    net = build(call["network"])
    cfg = config_for_policy(call["policy"], buffer_bytes=call["buffer_bytes"])
    sched = make_schedule(
        net, call["policy"], buffer_bytes=call["buffer_bytes"],
        objective=call["objective"],
        cfg=cfg if call["objective"] in HARDWARE_OBJECTIVES else None,
    )
    rep = compute_traffic(net, sched)
    step = simulate_step(net, sched, cfg, traffic=rep)
    got = (rep.total_bytes, step.time_s, step.energy.total_j)
    want = (wire["traffic_bytes"], wire["step_time_s"], wire["step_energy_j"])
    return None if got == want else f"layers give {got}, api.price {want}"


def _timing(intervals, clock: HostClock) -> dict[str, Any]:
    return {
        "raw_s": [e - s for s, e in intervals],
        "scaled_s": [clock.rescaled(s, e) for s, e in intervals],
        "ref_s": list(clock.refs),
    }


def run_price(spec: dict[str, Any]) -> dict[str, Any]:
    from repro import api

    calls = spec["calls"]
    clock = HostClock()
    intervals, wires, errors = _price_pass(calls, api, clock, None)
    ok = [w for w in wires if w is not None]
    out: dict[str, Any] = {
        "ops": len(calls),
        "errors": errors,
        "timing": _timing(intervals, clock),
        "sim_dram_gib": sum(w["traffic_bytes"] for w in ok) / 2**30,
        "sim_step_s": sum(w["step_time_s"] for w in ok),
        "sim_energy_j": sum(w["step_energy_j"] for w in ok),
    }
    if spec["trace"]:
        tracer = Tracer()
        errors.extend(layers.install(tracer))
        traced_clock = HostClock()
        try:
            t_intervals, _, t_errors = _price_pass(calls, api, traced_clock,
                                                   tracer)
        finally:
            tracer.unpatch_all()
        errors.extend(t_errors)
        rng = random.Random(f"recompute:{spec['seed']}")
        sample = rng.sample(range(len(calls)),
                            min(RECOMPUTE_SAMPLE, len(calls)))
        out["recomputed"] = len(sample)
        for i in sorted(sample):
            if wires[i] is None:
                continue
            mismatch = _recompute(calls[i], wires[i])
            if mismatch:
                errors.append(f"call {i}: {mismatch}")
        out["traced_timing"] = _timing(t_intervals, traced_clock)
        summary = SpanSummary(tracer.spans)
        errors.extend(layers.missing_spans(summary, "price-cold"))
        out["layers"] = layers.per_layer(
            summary, len(calls), NOMINAL_REF_S / traced_clock.median_ref())
        tracer.write(spec["spans_path"])
    out["peak_rss_mib"] = _peak_rss_mib()
    return out


# -- artifacts ----------------------------------------------------------------

def run_artifacts(spec: dict[str, Any]) -> dict[str, Any]:
    from repro.runtime import ResultCache, Task, get_spec, run_tasks, spec_names

    registered = sorted(spec_names())
    errors: list[str] = []
    if sorted(spec["order"]) != registered:
        errors.append(f"registry {registered} != benchmark's specs "
                      f"{sorted(spec['order'])}")
    tasks = [Task(get_spec(name), {}, quick=True)
             for name in spec["order"] if name in registered]
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        errors.extend(layers.install(tracer))
    clock = HostClock()
    ends: list[float] = []
    resumes: list[float] = []

    def between_tasks(task, result) -> None:
        ends.append(time.perf_counter())
        clock.sample()
        resumes.append(time.perf_counter())

    clock.sample()
    started = time.perf_counter()
    try:
        results = run_tasks(tasks, jobs=1,
                            cache=ResultCache(spec["cache_dir"]),
                            on_result=between_tasks)
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    intervals = list(zip([started] + resumes[:-1], ends))

    for result in results:
        if result.status != "ran":
            errors.append(f"{result.spec_name}: status {result.status} "
                          f"(expected a cold run): {result.error}")
            continue
        missing = get_spec(result.spec_name).missing_artifact_keys(
            result.artifact or {})
        if missing:
            errors.append(f"{result.spec_name}: artifact lacks {missing}")
        if result.spec_name == "fig6":
            diffs = result.artifact["gradient_equivalence"]
            if not diffs["GN"] <= 1e-9:
                errors.append(f"fig6: GN max|dgrad| {diffs['GN']} > 1e-9")
            if not diffs["BN"] >= 1e-3:
                errors.append(f"fig6: BN max|dgrad| {diffs['BN']} < 1e-3")
    out: dict[str, Any] = {
        "ops": len(tasks),
        "ran": sum(r.status == "ran" for r in results),
        "registered": len(registered),
        "errors": errors,
        "timing": _timing(intervals, clock),
        "task_seconds": {
            r.spec_name: clock.rescaled(*iv) * r.seconds / (iv[1] - iv[0])
            for r, iv in zip(results, intervals)
        },
        "peak_rss_mib": _peak_rss_mib(),
    }
    if tracer is not None:
        summary = SpanSummary(tracer.spans)
        errors.extend(layers.missing_spans(summary, "artifacts"))
        out["layers"] = layers.per_layer(
            summary, len(tasks), NOMINAL_REF_S / clock.median_ref())
        tracer.write(spec["spans_path"])
    return out


def main(argv: list[str]) -> int:
    mode, in_path, out_path = argv
    spec = json.loads(Path(in_path).read_text())
    if mode == "price":
        import repro.api  # noqa: F401  (the first call's imports)
    elif mode == "artifacts":
        import repro.experiments  # noqa: F401  (registers every spec)
        import repro.runtime  # noqa: F401
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    _ready()
    if spec.get("probe"):
        return 0
    result = run_price(spec) if mode == "price" else run_artifacts(spec)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
