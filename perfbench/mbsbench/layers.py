"""Which program functions the traced run wraps, and the per-layer metrics.

Spans are recorded at the boundary where one layer calls the next:
the module attributes ``repro.api`` calls through (so ``api.price``
splits into network build, schedule search, traffic walk and step
simulation), the experiment drivers' imports, ``repro.nn.functional``
(the conv kernels the numpy trainer calls), the runtime's fingerprint
and cache store, and the serve engine's pricing entry points.  Only
modules already imported are patched, so a workload never imports a
layer it does not use.
"""
from __future__ import annotations

import sys
from typing import Any

from mbsbench.inputs import SERVE_BLOCK
from mbsbench.spans import SpanSummary, Tracer
from mbsbench.stats import percentile_or_zero

#: The 15 registered experiment specs, one ``experiments.<spec>.busy_s``
#: metric each.
SPEC_NAMES = ("fig3", "fig4", "fig6", "fig10", "fig11", "fig12", "fig13",
              "fig14", "tab2", "ablation", "precision", "headline",
              "latency_sweep", "energy_sweep", "scaling")

#: Every per-layer metric (name -> unit) in BENCHMARK.json order.  A
#: traced run of any workload reports all of them; a layer that
#: workload never reaches reads 0.
METRICS: dict[str, str] = {
    "graph.build.ms_per_op": "ms",
    "graph.fingerprint.ms_per_req": "ms",
    "graph.resolve.calls_per_req": "count",
    "core.make_schedule.ms_per_op": "ms",
    "core.make_schedule.traffic.p50_ms": "ms",
    "core.make_schedule.latency.p50_ms": "ms",
    "core.make_schedule.energy.p50_ms": "ms",
    "core.make_schedule.lex.p50_ms": "ms",
    "core.make_schedule.inception_v4.p50_ms": "ms",
    "core.compute_traffic.ms_per_op": "ms",
    "wavecore.simulate_step.ms_per_op": "ms",
    "api.price.self_ms_per_op": "ms",
    "api.to_wire.ms_per_op": "ms",
    "core.sweep_schedules.busy_s": "s",
    "core.sweep_schedules.calls": "count",
    "experiments.evaluate_sweep.busy_s": "s",
    "experiments.evaluate_sweep.calls": "count",
    "nn.conv2d_forward.busy_s": "s",
    "nn.conv2d_forward.calls": "count",
    "nn.conv2d_backward.busy_s": "s",
    "nn.conv2d_backward.calls": "count",
    **{f"experiments.{spec}.busy_s": "s" for spec in SPEC_NAMES},
    "runtime.spec_fingerprint.busy_s": "s",
    "runtime.cache_store.busy_s": "s",
    "serve.parse.ms_per_req": "ms",
    "serve.key.ms_per_req": "ms",
    "serve.cache_lookup.ms_per_req": "ms",
    "serve.cache_store.ms_per_req": "ms",
    "serve.price.ms_per_exec": "ms",
    "serve.submit.p50_ms": "ms",
    "serve.http_self.ms_per_req": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.dedup_ratio": "ratio",
    "serve.batched_ratio": "ratio",
    "serve.executions": "count",
    "serve.degraded": "count",
    "untraced.op_p95_ms": "ms",
    "untraced.op_p99_ms": "ms",
    "untraced.hit_p50_ms": "ms",
    "untraced.miss_p50_ms": "ms",
    **{f"untraced.{kind}.step_ms": "ms" for kind, _ in SERVE_BLOCK},
    "sim.dram_gib": "GiB",
    "sim.step_s": "s",
    "sim.energy_j": "J",
    "host.ref_ms": "ms",
    "host.raw_wall_s": "s",
    "trace.overhead_pct": "%",
}

OBJECTIVE_LABELS = {"traffic": "traffic", "latency": "latency",
                    "energy": "energy", "latency+traffic": "lex"}

#: Modules whose calls into lower layers are traced (callers); the
#: lower layers' internal calls to one another stay untraced.
CALLERS = ("repro.api", "repro.experiments", "repro.serve")


def _schedule_tag(*args: Any, **kwargs: Any) -> str:
    """``policy|objective|network`` of a ``make_schedule`` call."""
    net = kwargs.get("net", args[0] if args else None)
    policy = kwargs.get("policy", args[1] if len(args) > 1 else "?")
    objective = kwargs.get("objective", args[5] if len(args) > 5
                           else "traffic")
    return f"{policy}|{objective}|{getattr(net, 'name', '?')}"


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced boundary of the modules loaded right now.

    Returns one error per boundary that no loaded caller module holds:
    it would record no spans and its metrics would read 0, as if the
    layer had become free, so the run counts each as a failure.
    """
    loaded = sys.modules
    errors: list[str] = []

    def callers(fn, name: str, prefixes=CALLERS, tag=None) -> None:
        if not tracer.patch_callers(fn, name, prefixes, tag=tag):
            errors.append(f"no loaded caller module holds {name}; "
                          f"its metrics would read 0")

    if "repro.api" in loaded:
        from repro import api
        from repro.core import policies, traffic
        from repro.graph import serialize
        from repro.wavecore import simulator
        from repro.zoo import build as zoo_build

        tracer.patch(api, "price", "api.price")
        tracer.patch(api.ScheduleResult, "to_wire", "api.to_wire")
        tracer.patch(api.ScheduleRequest, "resolve_network", "graph.resolve")
        tracer.patch(api.ScheduleRequest, "from_wire", "serve.parse")
        tracer.patch(api, "request_fingerprint", "serve.key")
        callers(zoo_build, "graph.build")
        callers(policies.make_schedule, "core.make_schedule",
                tag=_schedule_tag)
        callers(policies.sweep_schedules, "core.sweep_schedules")
        callers(traffic.compute_traffic, "core.compute_traffic")
        callers(simulator.simulate_step, "wavecore.simulate_step")
        # the serve engine imports the fingerprint lazily from its home
        callers(serialize.network_fingerprint, "graph.fingerprint",
                CALLERS + ("repro.graph.serialize",))
    if "repro.nn.functional" in loaded:
        from repro.nn import functional

        tracer.patch(functional, "conv2d_forward", "nn.conv2d_forward")
        tracer.patch(functional, "conv2d_backward", "nn.conv2d_backward")
    if "repro.experiments.common" in loaded:
        from repro.experiments import common

        tracer.patch(common, "evaluate_sweep", "experiments.evaluate_sweep")
    if "repro.runtime.pool" in loaded:
        from repro.runtime import cache, pool

        tracer.patch(pool, "spec_fingerprint", "runtime.spec_fingerprint")
        tracer.patch(cache.ResultCache, "store", "runtime.cache_store")
        tracer.patch(cache.ResultCache, "lookup", "runtime.cache_lookup")
    if "repro.serve.engine" in loaded:
        from repro.serve import engine

        tracer.patch(engine, "price_wire", "serve.price")
        tracer.patch(engine, "price_batch_wire", "serve.price")
        tracer.patch(engine.ScheduleEngine, "submit", "serve.submit")
    return errors


#: Spans each workload's traced run must record.  A span that is
#: missing means a wrapper no longer sits on the path the workload
#: takes (a call moved to another module), not that the layer got free.
REQUIRED_SPANS: dict[str, tuple[str, ...]] = {
    "price-cold": ("api.price", "api.to_wire", "graph.build",
                   "core.make_schedule", "core.compute_traffic",
                   "wavecore.simulate_step"),
    "artifacts": ("graph.build", "core.make_schedule",
                  "core.compute_traffic", "wavecore.simulate_step",
                  "experiments.evaluate_sweep", "nn.conv2d_forward",
                  "nn.conv2d_backward", "runtime.spec_fingerprint",
                  "runtime.cache_store"),
    "serve-mixed": ("api.price", "api.to_wire", "graph.resolve",
                    "graph.build", "graph.fingerprint", "core.make_schedule",
                    "core.sweep_schedules", "core.compute_traffic",
                    "wavecore.simulate_step", "serve.parse", "serve.key",
                    "serve.submit", "serve.price", "runtime.cache_lookup",
                    "runtime.cache_store"),
}


def missing_spans(summary: SpanSummary, workload: str) -> list[str]:
    """Errors for each span ``workload`` must reach but never did."""
    return [f"traced run recorded no {name} span"
            for name in REQUIRED_SPANS[workload] if not summary.calls(name)]


def per_layer(summary: SpanSummary, ops: int, scale: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass.

    ``ops`` is the workload's operation count (calls, tasks or
    requests); ``scale`` rescales host seconds to nominal host speed.
    Metrics of a layer the workload never reaches read 0, as do
    percentiles with too few samples for the tail rule.
    """
    ms = 1e3 * scale

    def per_op(name: str) -> float:
        return summary.busy_s(name) * ms / ops

    def p50_ms(name: str, keep=None) -> float:
        return percentile_or_zero(summary.durations(name, keep), 50) * ms

    def objective_is(label: str):
        return lambda tag: (tag.split("|")[0] == "mbs-auto" and
                            OBJECTIVE_LABELS.get(tag.split("|")[1]) == label)

    out = {
        "graph.build.ms_per_op": per_op("graph.build"),
        "graph.fingerprint.ms_per_req": per_op("graph.fingerprint"),
        "graph.resolve.calls_per_req": summary.calls("graph.resolve") / ops,
        "core.make_schedule.ms_per_op": per_op("core.make_schedule"),
    }
    for label in ("traffic", "latency", "energy", "lex"):
        out[f"core.make_schedule.{label}.p50_ms"] = p50_ms(
            "core.make_schedule", objective_is(label))
    out["core.make_schedule.inception_v4.p50_ms"] = p50_ms(
        "core.make_schedule", lambda tag: tag.endswith("|inception_v4"))
    out.update({
        "core.compute_traffic.ms_per_op": per_op("core.compute_traffic"),
        "wavecore.simulate_step.ms_per_op": per_op("wavecore.simulate_step"),
        "api.price.self_ms_per_op":
            summary.self_s_total("api.price") * ms / ops,
        "api.to_wire.ms_per_op": per_op("api.to_wire"),
        "core.sweep_schedules.busy_s":
            summary.busy_s("core.sweep_schedules") * scale,
        "core.sweep_schedules.calls":
            float(summary.calls("core.sweep_schedules")),
        "experiments.evaluate_sweep.busy_s":
            summary.busy_s("experiments.evaluate_sweep") * scale,
        "experiments.evaluate_sweep.calls":
            float(summary.calls("experiments.evaluate_sweep")),
    })
    for kind in ("forward", "backward"):
        name = f"nn.conv2d_{kind}"
        out[f"{name}.busy_s"] = summary.busy_s(name) * scale
        out[f"{name}.calls"] = float(summary.calls(name))
    out.update({
        "runtime.spec_fingerprint.busy_s":
            summary.busy_s("runtime.spec_fingerprint") * scale,
        "runtime.cache_store.busy_s":
            summary.busy_s("runtime.cache_store") * scale,
    })
    serving = summary.calls("serve.submit") > 0
    executions = summary.calls("serve.price")
    out.update({
        "serve.parse.ms_per_req": per_op("serve.parse"),
        "serve.key.ms_per_req": per_op("serve.key"),
        "serve.cache_lookup.ms_per_req":
            per_op("runtime.cache_lookup") if serving else 0.0,
        "serve.cache_store.ms_per_req":
            per_op("runtime.cache_store") if serving else 0.0,
        "serve.price.ms_per_exec":
            summary.busy_s("serve.price") * ms / executions
            if executions else 0.0,
        "serve.submit.p50_ms": p50_ms("serve.submit"),
    })
    return out
