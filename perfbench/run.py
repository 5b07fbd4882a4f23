#!/usr/bin/env python3
"""The mbs-repro benchmark: one command, three workloads.

    python3 perfbench/run.py --workload price-cold|artifacts|serve-mixed \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the workload's
inputs from ``--seed``, runs them against the program in ``src/``,
checks the answers and prints a summary followed, as the last line, by
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(rescaled to nominal host speed, see ``mbsbench/hostref.py``); with
``--trace 1`` a separate traced run gives the per-layer ones.
``--seconds`` sizes the run: the fixed operation count is chosen so
the run measures about that long on a host of nominal speed.  See
perfbench/README.md for the metrics and why each workload exists.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
# the load generator itself imports the program only to encode inline
# graph bodies before timing and to re-price answers after it
sys.path.insert(1, str(ROOT / "src"))

from mbsbench import inputs, layers  # noqa: E402
from mbsbench.hostref import NOMINAL_REF_S, HostClock  # noqa: E402
from mbsbench.stats import percentile, percentile_or_zero  # noqa: E402

#: name -> unit, in BENCHMARK.json order; every workload reports all.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Launches per run whose set-up time is measured; the reported
#: ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Answers of serve-mixed re-priced in-process after timing.
SERVE_SAMPLE = 12
#: Whole-run budget; every child is waited for within it.
RUN_TIMEOUT_S = 170.0
#: A reference launch on a quiet host (2-vCPU x86-64 cloud VM); set-up
#: times are rescaled to it.
NOMINAL_LAUNCH_S = 0.15


def reference_launch(env: dict[str, str]) -> float:
    """Seconds to start an interpreter that imports numpy and says ready.

    The fixed part of every measured process's set-up, timed between
    launches so ``setup_s`` can be rescaled to nominal host speed.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import numpy; print('ready', flush=True)"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
    )
    assert proc.stdout is not None
    proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.communicate(timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("the reference interpreter launch failed")
    return elapsed


class Run:
    """One benchmark run: its scratch directory, clock and results."""

    def __init__(self, args: argparse.Namespace):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.dir = ROOT / ".perfbench" / (
            f"{args.workload}-{args.seed}-{os.getpid()}")
        #: the traced run's spans, kept after the run directory is gone
        self.spans_path = ROOT / ".perfbench" / f"spans-{args.workload}.jsonl"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                                  str(BENCH)])
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.setups: list[float] = []
        self.ref_launches: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, float] = {}   # printed, not in the JSON line
        self._children = 0

    def path(self, name: str) -> Path:
        return self.dir / name

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        path.mkdir(parents=True)
        return path

    def timed_setup(self, start: Callable[[], Any]) -> Any:
        """Call ``start`` (launch until ready), recording its host seconds.

        Each launch follows one reference launch (:func:`reference_launch`):
        set-up is process start and imports, which the in-process kernel
        does not track but a bare interpreter start does.
        """
        self.ref_launches.append(reference_launch(self.env))
        started = time.perf_counter()
        handle = start()
        self.setups.append(time.perf_counter() - started)
        return handle

    def child(self, mode: str, spec: dict[str, Any],
              timed: bool = True) -> dict[str, Any] | None:
        """Run one measured child to completion; returns its OUT.json."""
        self._children += 1
        tag = f"{mode}-{self._children}"
        in_path, out_path = self.path(f"{tag}.in.json"), self.path(
            f"{tag}.out.json")
        in_path.write_text(json.dumps(spec))
        log = open(self.path(f"{tag}.log"), "wb")

        def launch() -> subprocess.Popen:
            proc = subprocess.Popen(
                [sys.executable, "-m", "mbsbench.child", mode, str(in_path),
                 str(out_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=log,
            )
            assert proc.stdout is not None
            line = proc.stdout.readline()
            if not line.startswith(b'{"ready"'):
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{tag} failed to start; see {log.name}")
            return proc

        try:
            proc = self.timed_setup(launch) if timed else launch()
            try:
                proc.communicate(timeout=max(1.0, self.deadline
                                             - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{tag} exceeded the run budget")
        finally:
            log.close()
        if proc.returncode != 0:
            raise RuntimeError(f"{tag} exited {proc.returncode}; "
                               f"see {log.name}")
        if spec.get("probe"):
            return None
        return json.loads(out_path.read_text())


# -- price-cold ---------------------------------------------------------------

def price_cold(run: Run) -> None:
    calls = inputs.price_cold_inputs(run.seed,
                                     inputs.price_rounds(run.seconds))
    spec = {"calls": calls, "trace": run.trace, "seed": run.seed,
            "spans_path": str(run.spans_path)}
    if not run.trace:
        for _ in range(SETUP_LAUNCHES - 1):
            run.child("price", {"probe": True})
    out = run.child("price", spec, timed=not run.trace)
    run.attempted += out["ops"]
    run.errors += out["errors"]
    scaled = out["timing"]["scaled_s"]
    run.metrics.update(_latency_metrics(scaled, out["peak_rss_mib"]))
    run.notes.update({
        "op_p95_ms": percentile(scaled, 95) * 1e3,
        "sim_dram_gib": out["sim_dram_gib"],
        "sim_step_s": out["sim_step_s"],
        "sim_energy_j": out["sim_energy_j"],
        "host.raw_wall_s": sum(out["timing"]["raw_s"]),
        "host.ref_ms": median(out["timing"]["ref_s"]) * 1e3,
    })
    if run.trace:
        run.attempted += out["ops"] + out["recomputed"]
        traced = sum(out["traced_timing"]["scaled_s"])
        run.metrics.update(out["layers"])
        run.metrics.update({
            "untraced.op_p95_ms": run.notes["op_p95_ms"],
            "sim.dram_gib": out["sim_dram_gib"],
            "sim.step_s": out["sim_step_s"],
            "sim.energy_j": out["sim_energy_j"],
            "trace.overhead_pct": 100.0 * (traced / sum(scaled) - 1.0),
        })


def _latency_metrics(scaled: list[float], rss_mib: float) -> dict[str, float]:
    wall = sum(scaled)
    return {"wall_s": wall, "ops_per_s": len(scaled) / wall,
            "op_p50_ms": percentile(scaled, 50) * 1e3,
            "peak_rss_mib": rss_mib}


# -- artifacts ----------------------------------------------------------------

def artifacts(run: Run) -> None:
    orders = inputs.artifact_orders(run.seed, list(layers.SPEC_NAMES))
    if not run.trace:
        for _ in range(SETUP_LAUNCHES - len(orders)):
            run.child("artifacts", {"probe": True})
    outs = []
    for i, order in enumerate(orders):
        traced = run.trace and i == len(orders) - 1
        outs.append(run.child("artifacts", {
            "order": order, "trace": traced,
            "cache_dir": str(run.fresh_dir(f"cache-{i}")),
            "spans_path": str(run.spans_path),
        }, timed=not run.trace))
    for out in outs:
        run.attempted += out["ops"]
        run.errors += out["errors"]
        if out["ran"] != out["registered"]:
            run.errors.append(f"{out['ran']} of {out['registered']} specs "
                              f"ran cold")
    untraced = outs[:-1] if run.trace else outs
    if not run.trace:
        scaled = [s for out in outs for s in out["timing"]["scaled_s"]]
        walls = [sum(out["timing"]["scaled_s"]) for out in outs]
        run.metrics.update({
            "wall_s": median(walls),
            "ops_per_s": len(scaled) / sum(walls),
            "op_p50_ms": percentile(scaled, 50) * 1e3,
            "peak_rss_mib": max(out["peak_rss_mib"] for out in outs),
        })
    run.notes["host.raw_wall_s"] = median(
        [sum(out["timing"]["raw_s"]) for out in untraced])
    run.notes["host.ref_ms"] = median(
        [r for out in untraced for r in out["timing"]["ref_s"]]) * 1e3
    if run.trace:
        first, last = outs[0], outs[-1]
        run.metrics.update(last["layers"])
        for spec in layers.SPEC_NAMES:
            run.metrics[f"experiments.{spec}.busy_s"] = \
                first["task_seconds"].get(spec, 0.0)
        run.metrics["trace.overhead_pct"] = 100.0 * (
            sum(last["timing"]["scaled_s"])
            / sum(first["timing"]["scaled_s"]) - 1.0)


# -- serve-mixed --------------------------------------------------------------

def serve_mixed(run: Run) -> None:
    from mbsbench import serve

    plan = inputs.serve_plan(run.seed, inputs.serve_blocks(run.seconds))
    bodies = serve.request_bodies(plan, _graphs(plan))
    real = _serve_real(run, plan, bodies,
                       1 if run.trace else SETUP_LAUNCHES)
    if run.trace:
        _serve_traced(run, plan, bodies, real)
        return
    run.metrics.update({k: real[k] for k in END_TO_END if k in real})
    run.notes.update({k: v for k, v in real.items() if k not in END_TO_END})


def _serve_real(run: Run, plan, bodies, launches: int) -> dict[str, float]:
    """Serve the plan from ``mbs-repro serve`` as users start it.

    ``launches`` timed start-ups, each with a fresh cache; the last
    server serves the plan.  Returns the pass's figures.
    """
    from mbsbench import serve

    servers = []
    try:
        for i in range(launches):
            cache_dir = run.fresh_dir(f"cache-{i}")

            def start(cache_dir=cache_dir, i=i):
                proc = serve.ServerProcess(ROOT, run.env, cache_dir,
                                           run.path(f"serve-{i}.log"))
                servers.append(proc)
                serve.warm_up(proc.port)
                return proc

            server = run.timed_setup(start)
            if i < launches - 1:
                server.stop()
        clock = HostClock()
        records = serve.drive(server.port, plan, bodies, clock)
        stats = serve.get_json(server.port, "/v1/stats")
        rss = server.peak_rss_mib()
    finally:
        for proc in servers:
            proc.stop()
    folded = _serve_fold(run, plan, records, stats, clock)
    folded["peak_rss_mib"] = rss
    _serve_sample(run, plan, records)
    return folded


def _graphs(plan) -> dict[str, str]:
    """Schema-1 JSON of every network a request sends inline."""
    from repro.graph.serialize import network_to_dict
    from repro.zoo import build

    names = {req["wire"]["network"] for step in plan
             for req in step["requests"] if req["graph"]}
    return {name: json.dumps(network_to_dict(build(name)))
            for name in sorted(names)}


def _serve_fold(run: Run, plan, records, stats,
                clock: HostClock) -> dict[str, float]:
    """Check one pass's answers and fold its records into figures."""
    from mbsbench import serve

    n = len(records)
    run.attempted += n
    run.errors += serve.check(plan, records)
    # the warm-up request is the one the server saw beyond the plan
    if stats.get("errors") or stats.get("degraded") \
            or stats.get("requests") != n + 1:
        run.errors.append(f"server stats disagree: {stats}")
    steps: dict[int, list[dict]] = {}
    for rec in records:
        steps.setdefault(rec["step"], []).append(rec)
    wall = raw = 0.0
    latency: list[float] = []
    hits: list[float] = []
    misses: list[float] = []
    by_kind: dict[str, list[float]] = {}
    for step, recs in steps.items():
        start = min(r["start"] for r in recs)
        end = max(r["end"] for r in recs)
        factor = clock.rescaled(start, end) / (end - start)
        wall += (end - start) * factor
        raw += end - start
        by_kind.setdefault(plan[step]["kind"], []).append(
            (end - start) * factor)
        for r in recs:
            seconds = (r["end"] - r["start"]) * factor
            latency.append(seconds)
            cached = isinstance(r["payload"], dict) and r["payload"].get(
                "cached")
            (hits if cached else misses).append(seconds)
    requests = stats.get("requests", n + 1) - 1
    return {
        "wall_s": wall,
        "ops_per_s": n / wall,
        "op_p50_ms": percentile(latency, 50) * 1e3,
        "op_p95_ms": percentile(latency, 95) * 1e3,
        "op_p99_ms": percentile(latency, 99) * 1e3,
        "hit_p50_ms": percentile_or_zero(hits, 50) * 1e3,
        "miss_p50_ms": percentile_or_zero(misses, 50) * 1e3,
        # mean step time per kind: recomputes wall_s for another mix
        **{f"{kind}.step_ms": 1e3 * sum(times) / len(times)
           for kind, times in by_kind.items()},
        "latency_sum_s": sum(latency),
        "host.raw_wall_s": raw,
        "host.ref_ms": clock.median_ref() * 1e3,
        "serve.cache_hit_ratio": stats.get("cache_hits", 0) / requests,
        "serve.dedup_ratio": stats.get("dedup_hits", 0) / requests,
        "serve.batched_ratio": stats.get("batched", 0) / requests,
        # less the warm-up's execution
        "serve.executions": float(stats.get("executions", 1) - 1),
        "serve.degraded": float(stats.get("degraded", 0)),
    }


def _serve_sample(run: Run, plan, records) -> None:
    """A seeded sample of served answers must equal in-process pricing."""
    from repro import api

    answered = {}
    for rec in records:
        if isinstance(rec["payload"], dict) and rec["payload"].get("result"):
            answered.setdefault(rec["key"], (rec, rec["payload"]["result"]))
    rng = random.Random(f"serve-sample:{run.seed}")
    keys = sorted(rng.sample(sorted(answered), min(SERVE_SAMPLE,
                                                   len(answered))))
    run.attempted += len(keys)
    for key in keys:
        rec, served = answered[key]
        wire = next(r["wire"] for r in plan[rec["step"]]["requests"]
                    if r["key"] == key)
        local = json.loads(json.dumps(
            api.price(api.ScheduleRequest.from_wire(wire)).to_wire()))
        if local != served:
            run.errors.append(f"key {key}: served answer differs from "
                              f"in-process repro.api.price")


def _serve_traced(run: Run, plan, bodies, real: dict[str, float]) -> None:
    """Per-layer figures of serve-mixed.

    ``real`` is the pass against ``mbs-repro serve`` with its default
    worker: the ``untraced.*`` latencies, the ``host.*`` figures and the
    ``/v1/stats`` counters come from it.  The wrappers cannot see into
    that server's pricing worker, so the layer timings come from the
    serve stack hosted in this process with inline pricing (workers=0),
    run on the same plan once untraced and once traced; those two
    passes give ``trace.overhead_pct``.
    """
    from mbsbench import serve
    from mbsbench.spans import SpanSummary, Tracer

    import repro.serve  # noqa: F401  (loaded before the wrappers go in)

    passes = []
    for traced in (False, True):
        tracer = Tracer() if traced else None
        if tracer is not None:
            run.errors += layers.install(tracer)
        server = serve.InProcessServer(run.fresh_dir(f"inline-{traced}"))
        try:
            serve.warm_up(server.port)
            if tracer is not None:
                tracer.spans.clear()
            clock = HostClock()
            records = serve.drive(server.port, plan, bodies, clock, tracer)
            stats = serve.get_json(server.port, "/v1/stats")
        finally:
            server.stop()
            if tracer is not None:
                tracer.unpatch_all()
        passes.append((_serve_fold(run, plan, records, stats, clock),
                       clock, tracer))
    (inline, _, _), (traced, clock, tracer) = passes
    n = len(records)
    scale = NOMINAL_REF_S / clock.median_ref()
    spans = SpanSummary(tracer.spans)
    run.errors += layers.missing_spans(spans, "serve-mixed")
    run.metrics.update(layers.per_layer(spans, n, scale))
    submit_s = spans.busy_s("serve.submit") * scale
    run.metrics.update({
        key: real[key] for key in real if key.startswith("serve.")})
    run.metrics.update({
        f"untraced.{key}": real[key] for key in
        ("op_p95_ms", "op_p99_ms", "hit_p50_ms", "miss_p50_ms",
         *(f"{kind}.step_ms" for kind, _ in inputs.SERVE_BLOCK))})
    run.metrics.update({
        "serve.http_self.ms_per_req":
            (traced["latency_sum_s"] - submit_s) * 1e3 / n,
        "host.raw_wall_s": real["host.raw_wall_s"],
        "host.ref_ms": real["host.ref_ms"],
        "trace.overhead_pct":
            100.0 * (traced["wall_s"] / inline["wall_s"] - 1.0),
    })
    tracer.write(run.spans_path)


WORKLOADS = {"price-cold": price_cold, "artifacts": artifacts,
             "serve-mixed": serve_mixed}


def _emit(run: Run) -> int:
    if run.trace:
        metrics = {name: {"value": float(run.metrics.get(
                              name, run.notes.get(name, 0.0))),
                          "unit": unit}
                   for name, unit in layers.METRICS.items()}
    else:
        run.metrics["setup_s"] = (median(run.setups) * NOMINAL_LAUNCH_S
                                  / median(run.ref_launches))
        run.notes["host.raw_setup_s"] = median(run.setups)
        run.notes["host.ref_launch_s"] = median(run.ref_launches)
        metrics = {name: {"value": float(run.metrics[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted = max(run.attempted, 1)
    failed = min(len(run.errors), attempted)
    for error in run.errors[:20]:
        print(f"FAILED: {error}")
    print(f"{run.workload} seed={run.seed} trace={int(run.trace)} "
          f"attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4f}")
    for name, value in sorted({**run.notes,
                               **{k: v["value"] for k, v in metrics.items()}
                               }.items()):
        print(f"  {name:44s} {value:.6g}")
    if not run.trace:
        print(f"  setup_s samples: "
              + " ".join(f"{s:.4f}" for s in run.setups))
    print(json.dumps({"correct": not run.errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from "
              f"the root of an mbs-repro checkout", file=sys.stderr)
        return 2
    run = Run(args)
    run.dir.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            run.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return _emit(run)


if __name__ == "__main__":
    sys.exit(main())
