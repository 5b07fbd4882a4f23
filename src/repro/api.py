"""The supported public API: schedule pricing as a library call.

Everything that prices a schedule — the CLI ``schedule`` /
``sweep-schedule`` subcommands, the ``mbs-repro serve`` HTTP server,
and direct Python callers — goes through this facade, so all three
surfaces return **bit-identical** costs by construction (one code
path, no parallel reimplementations).  The deeper entry points
(:func:`repro.core.policies.make_schedule`, the cost models, the
walkers) remain importable but are *not* covered by the stability
promise; this module is.

Quick start::

    from repro import api

    res = api.price("resnet50", "mbs-auto", buffer_bytes=api.MIB,
                    objective="energy")
    print(res.traffic_bytes, res.step_time_s, res.step_energy_j)

``price`` accepts a zoo name, a built
:class:`~repro.graph.network.Network`, or a schema-1 wire dict
(:mod:`repro.graph.serialize`) — the same three spellings the HTTP
request body takes.  :class:`ScheduleRequest` is the wire-level
request (what ``POST /v1/schedule`` carries), :class:`ScheduleResult`
the wire-level response (what ``--json`` prints); both are frozen
dataclasses with explicit ``to_wire``/``from_wire`` codecs.  Every
surface checks the scalar fields with the same validator, so a bad
buffer size or word width is the same ``ValueError`` from Python, an
exit 2 from the CLI, and a 400 from HTTP.

The facade spells ``make_schedule``'s ``net=`` as ``network=`` and
its ``cfg=`` as ``hardware=``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.policies import (
    DEFAULT_BUFFER_BYTES,
    HARDWARE_OBJECTIVES,
    OBJECTIVES,
    POLICIES,
    SweepCaches,
    make_schedule,
    sweep_schedules,
)
from repro.core.schedule import Schedule
from repro.core.traffic import TrafficOptions, compute_traffic
from repro.graph.network import Network
from repro.graph.serialize import (
    GraphSchemaError,
    network_fingerprint,
    network_from_dict,
)
from repro.types import MIB, WORD_BYTES
from repro.wavecore.config import WaveCoreConfig, config_for_policy
from repro.wavecore.simulator import simulate_step
from repro.zoo import build as build_zoo_network

__all__ = [
    "GroupSummary",
    "MIB",
    "ScheduleRequest",
    "ScheduleResult",
    "objectives",
    "policies",
    "price",
    "request_fingerprint",
    "sweep",
]

#: Wire-schema version shared by ScheduleRequest/ScheduleResult.
SCHEMA_VERSION = 1


def policies() -> tuple[str, ...]:
    """All scheduling policies (the paper's Tab. 3 rows + ``mbs-auto``)."""
    return tuple(POLICIES)


def objectives() -> tuple[str, ...]:
    """All objectives the adaptive policy can optimize."""
    return tuple(OBJECTIVES)


# ---------------------------------------------------------------------------
# request / response types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleRequest:
    """One pricing query, in wire-friendly form.

    Exactly one of ``network`` (zoo name) or ``graph`` (schema-1 wire
    dict) names the network.  Defaults mirror
    :func:`~repro.core.policies.make_schedule`.
    """

    network: str | None = None
    graph: Mapping[str, Any] | None = None
    policy: str = "mbs-auto"
    buffer_bytes: int = DEFAULT_BUFFER_BYTES
    mini_batch: int | None = None
    objective: str = "traffic"
    relu_mask: bool | str | None = None
    word_bytes: int = WORD_BYTES

    _WIRE_KEYS = ("network", "graph", "policy", "buffer_bytes",
                  "mini_batch", "objective", "relu_mask", "word_bytes")

    def __post_init__(self) -> None:
        if (self.network is None) == (self.graph is None):
            raise ValueError(
                "exactly one of 'network' (zoo name) or 'graph' "
                "(wire dict) must be given"
            )

    def resolve_network(self) -> Network:
        """Build the named zoo network or decode the inline graph."""
        if self.network is not None:
            if not isinstance(self.network, str):
                raise ValueError(
                    f"'network' must be a zoo name string, got "
                    f"{type(self.network).__name__}"
                )
            try:
                return build_zoo_network(self.network)
            except KeyError as exc:
                raise ValueError(str(exc).strip("'\"")) from exc
        return network_from_dict(self.graph)

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for key in self._WIRE_KEYS:
            value = getattr(self, key)
            if value is not None:
                wire[key] = dict(value) if key == "graph" else value
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "ScheduleRequest":
        """Decode and validate a request dict (HTTP body / CLI JSON)."""
        if not isinstance(wire, Mapping):
            raise ValueError(
                f"request must be a JSON object, got {type(wire).__name__}"
            )
        schema = wire.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported request schema {schema!r}; this build "
                f"speaks schema {SCHEMA_VERSION}"
            )
        unknown = set(wire) - set(cls._WIRE_KEYS) - {"schema"}
        if unknown:
            raise ValueError(
                f"unknown request key(s) {sorted(unknown)}; allowed: "
                f"{list(cls._WIRE_KEYS)}"
            )
        kwargs = {k: wire[k] for k in cls._WIRE_KEYS if k in wire}
        req = cls(**kwargs)
        req.validate()
        return req

    def validate(self) -> None:
        """Cheap field validation (full graph decoding happens later)."""
        _check_fields(self.policy, self.objective, (self.buffer_bytes,),
                      self.mini_batch, self.relu_mask, self.word_bytes)


def _is_positive_int(value: Any) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value > 0)


def _check_fields(
    policy: str,
    objective: str,
    buffer_sizes: Sequence[Any],
    mini_batch: Any,
    relu_mask: Any,
    word_bytes: Any,
) -> None:
    """The scalar-field checks every surface shares (raises ValueError)."""
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {POLICIES}"
        )
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )
    for buffer_bytes in buffer_sizes:
        if not _is_positive_int(buffer_bytes):
            raise ValueError(
                f"buffer_bytes must be a positive integer, got "
                f"{buffer_bytes!r}"
            )
    if mini_batch is not None and not _is_positive_int(mini_batch):
        raise ValueError(
            f"mini_batch must be a positive integer, got {mini_batch!r}"
        )
    if not (relu_mask is None or relu_mask == "auto"
            or isinstance(relu_mask, bool)):
        raise ValueError(
            f"relu_mask must be true, false, or 'auto', got {relu_mask!r}"
        )
    if not _is_positive_int(word_bytes):
        raise ValueError(
            f"word_bytes must be a positive integer, got {word_bytes!r}"
        )


@dataclass(frozen=True)
class GroupSummary:
    """Wire-friendly digest of one :class:`~repro.core.schedule.GroupPlan`."""

    first_block: int
    last_block: int
    sub_batch: int
    iterations: int
    #: "fused" | "partial" | "spilled" — the describe() vocabulary.
    fused: str
    branch_reuse: bool | None = None


@dataclass(frozen=True)
class ScheduleResult:
    """The priced schedule: what every surface returns.

    ``traffic_bytes`` / ``step_time_s`` / ``step_energy_j`` are the
    same numbers ``compute_traffic`` and ``simulate_step`` report for
    the schedule — bit-for-bit, because they *are* those calls'
    outputs.  ``schedule`` carries the full
    :class:`~repro.core.schedule.Schedule` for Python callers; it is
    not part of the wire encoding (``from_wire`` leaves it ``None``).
    """

    network: str
    policy: str
    objective: str
    buffer_bytes: int
    mini_batch: int
    word_bytes: int
    relu_mask: bool
    branch_reuse: bool
    groups: tuple[GroupSummary, ...]
    traffic_bytes: int
    traffic_by_category: Mapping[str, int]
    step_time_s: float
    step_energy_j: float
    energy_dram_share: float
    degraded: bool = False
    schedule: Schedule | None = field(default=None, compare=False)

    _WIRE_KEYS = ("network", "policy", "objective", "buffer_bytes",
                  "mini_batch", "word_bytes", "relu_mask", "branch_reuse",
                  "groups", "traffic_bytes", "traffic_by_category",
                  "step_time_s", "step_energy_j", "energy_dram_share",
                  "degraded")

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for key in self._WIRE_KEYS:
            value = getattr(self, key)
            if key == "groups":
                value = [
                    {"first_block": g.first_block,
                     "last_block": g.last_block,
                     "sub_batch": g.sub_batch,
                     "iterations": g.iterations,
                     "fused": g.fused,
                     "branch_reuse": g.branch_reuse}
                    for g in value
                ]
            elif key == "traffic_by_category":
                value = dict(value)
            wire[key] = value
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "ScheduleResult":
        if not isinstance(wire, Mapping):
            raise ValueError(
                f"result must be a JSON object, got {type(wire).__name__}"
            )
        missing = [k for k in cls._WIRE_KEYS if k not in wire]
        if missing:
            raise ValueError(f"result wire object missing key(s) {missing}")
        kwargs = {k: wire[k] for k in cls._WIRE_KEYS}
        kwargs["groups"] = tuple(
            GroupSummary(**g) for g in kwargs["groups"]
        )
        kwargs["traffic_by_category"] = dict(kwargs["traffic_by_category"])
        return cls(**kwargs)

    def describe(self) -> str:
        """The human-readable text block the CLI prints."""
        objective = (
            "" if self.objective == "traffic"
            else f", objective={self.objective}"
        )
        lines = [
            f"{self.policy} schedule for {self.network}: "
            f"N={self.mini_batch}, "
            f"buffer={self.buffer_bytes / MIB:.0f} MiB{objective}"
            + (" [degraded]" if self.degraded else "")
        ]
        for i, g in enumerate(self.groups, 1):
            lines.append(
                f"  group{i}: blocks {g.first_block}..{g.last_block} "
                f"sub-batch={g.sub_batch} iters={g.iterations} [{g.fused}]"
            )
        lines.append(
            f"\nDRAM traffic/step: {self.traffic_bytes / 2**30:.2f} GiB"
        )
        for cat, nbytes in sorted(self.traffic_by_category.items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {cat:18s} {nbytes / 2**20:10.1f} MiB")
        lines.append(
            f"\nsimulated step time: {self.step_time_s * 1e3:.3f} ms"
        )
        lines.append(
            f"simulated step energy: {self.step_energy_j * 1e3:.3f} mJ "
            f"(DRAM share {self.energy_dram_share * 100:.1f}%)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the facade calls
# ---------------------------------------------------------------------------

def _coerce_network(network: Network | str | Mapping | ScheduleRequest,
                    ) -> tuple[Network, str | None]:
    """Accept a Network, zoo name, or wire dict; return (net, zoo name)."""
    if isinstance(network, Network):
        return network, None
    if isinstance(network, str):
        try:
            return build_zoo_network(network), network
        except KeyError as exc:
            raise ValueError(str(exc).strip("'\"")) from exc
    if isinstance(network, Mapping):
        return network_from_dict(network), None
    raise TypeError(
        "network must be a zoo name, a repro.graph Network, or a "
        f"schema-1 wire dict, got {type(network).__name__}"
    )


def _evaluate(
    net: Network,
    sched: Schedule,
    cfg: WaveCoreConfig,
    word_bytes: int = WORD_BYTES,
    degraded: bool = False,
) -> ScheduleResult:
    """Price a finished schedule with the evaluators (exact numbers)."""
    rep = compute_traffic(net, sched, TrafficOptions(word_bytes=word_bytes))
    step = simulate_step(net, sched, cfg, traffic=rep)
    groups = tuple(
        GroupSummary(
            first_block=g.blocks[0],
            last_block=g.blocks[-1],
            sub_batch=g.sub_batch,
            iterations=g.iterations,
            fused="fused" if all(g.block_fused) else (
                "partial" if any(g.block_fused) else "spilled"
            ),
            branch_reuse=g.branch_reuse,
        )
        for g in sched.groups
    )
    by_cat = {
        cat.value: nbytes for cat, nbytes in rep.by_category().items()
    }
    return ScheduleResult(
        network=sched.network,
        policy=sched.policy,
        objective=sched.objective,
        buffer_bytes=sched.buffer_bytes,
        mini_batch=sched.mini_batch,
        word_bytes=word_bytes,
        relu_mask=sched.relu_mask,
        branch_reuse=sched.branch_reuse,
        groups=groups,
        traffic_bytes=rep.total_bytes,
        traffic_by_category=by_cat,
        step_time_s=step.time_s,
        step_energy_j=step.energy.total_j,
        energy_dram_share=step.energy.share("dram"),
        degraded=degraded,
        schedule=sched,
    )


def price(
    network: Network | str | Mapping | ScheduleRequest,
    policy: str = "mbs-auto",
    *,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    mini_batch: int | None = None,
    objective: str = "traffic",
    relu_mask: bool | str | None = None,
    word_bytes: int = WORD_BYTES,
    hardware: WaveCoreConfig | None = None,
) -> ScheduleResult:
    """Build and price one schedule; the single source of truth.

    ``network`` may be a zoo name, a built
    :class:`~repro.graph.network.Network`, a schema-1 wire dict, or a
    whole :class:`ScheduleRequest` (in which case the other arguments
    must stay at their defaults).  ``hardware`` pins the accelerator
    config used both by the hardware-priced objectives' DP and by the
    evaluation; it defaults to the policy's Tab. 3 configuration at
    ``buffer_bytes`` — exactly what ``mbs-repro schedule`` has always
    simulated, so the CLI, this facade, and the HTTP server agree
    bit-for-bit.  Invalid scalar fields raise the same ``ValueError``
    :meth:`ScheduleRequest.validate` does.
    """
    if isinstance(network, ScheduleRequest):
        req = network
        return price(
            req.graph if req.network is None else req.network,
            req.policy, buffer_bytes=req.buffer_bytes,
            mini_batch=req.mini_batch, objective=req.objective,
            relu_mask=req.relu_mask, word_bytes=req.word_bytes,
            hardware=hardware,
        )
    _check_fields(policy, objective, (buffer_bytes,), mini_batch,
                  relu_mask, word_bytes)
    net, _ = _coerce_network(network)
    cfg = hardware if hardware is not None else config_for_policy(
        policy, buffer_bytes=buffer_bytes
    )
    sched = make_schedule(
        net, policy, buffer_bytes=buffer_bytes, mini_batch=mini_batch,
        word_bytes=word_bytes, objective=objective,
        cfg=cfg if objective in HARDWARE_OBJECTIVES else None,
        relu_mask=relu_mask,
    )
    return _evaluate(net, sched, cfg, word_bytes)


def sweep(
    network: Network | str | Mapping,
    policy: str = "mbs-auto",
    buffer_sizes: Sequence[int] = (),
    *,
    mini_batch: int | None = None,
    objective: str = "traffic",
    relu_mask: bool | str | None = None,
    word_bytes: int = WORD_BYTES,
    hardware: WaveCoreConfig | None = None,
    caches: SweepCaches | None = None,
) -> list[ScheduleResult]:
    """Price one schedule per buffer size through the batch sweep engine.

    Returns exactly what ``[price(...) for b in buffer_sizes]`` would —
    the per-point searches just share the
    :class:`~repro.core.policies.SweepCaches` pricing state, which is
    an order of magnitude faster for dense ``mbs-auto`` sweeps.  Pass
    ``caches`` to read the memo hit/miss counters afterwards.
    """
    if not buffer_sizes:
        raise ValueError("sweep() needs at least one buffer size")
    _check_fields(policy, objective, buffer_sizes, mini_batch, relu_mask,
                  word_bytes)
    net, _ = _coerce_network(network)
    scheds = sweep_schedules(
        net, policy, buffer_sizes, mini_batch=mini_batch,
        word_bytes=word_bytes, objective=objective, cfg=hardware,
        relu_mask=relu_mask, caches=caches,
    )
    return [
        _evaluate(
            net, sched,
            hardware if hardware is not None
            else config_for_policy(policy, buffer_bytes=buffer_bytes),
            word_bytes,
        )
        for buffer_bytes, sched in zip(buffer_sizes, scheds)
    ]


def request_fingerprint(req: ScheduleRequest,
                        net: Network | None = None) -> str:
    """Content address of a pricing query: the serve-cache key.

    Keyed on the *graph fingerprint* (not the zoo name, so a name and
    its exported wire graph share cache entries), buffer size,
    objective, policy, mini-batch, relu mask, word width, and the
    hardware config family the policy pins.  ``net`` skips re-resolving
    when the caller already built the network.
    """
    import hashlib
    import json

    if net is None:
        net = req.resolve_network()
    cfg = config_for_policy(req.policy, buffer_bytes=req.buffer_bytes)
    blob = json.dumps(
        {
            "graph": network_fingerprint(net),
            "policy": req.policy,
            "buffer_bytes": req.buffer_bytes,
            "mini_batch": req.mini_batch,
            "objective": req.objective,
            "relu_mask": req.relu_mask,
            "word_bytes": req.word_bytes,
            "hardware": repr(cfg),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def degraded_result(req: ScheduleRequest,
                    net: Network | None = None) -> ScheduleResult:
    """The greedy fallback the server returns under load.

    Prices the request's network with the cheap greedy ``mbs2`` policy
    (closed-form proxy objective — no adaptive DP), flagged
    ``degraded: true``.  The hardware-priced objectives cannot ride a
    fixed policy, so the fallback always optimizes the paper's proxy;
    the returned costs are still the exact evaluator numbers for the
    greedy schedule.
    """
    if net is None:
        net = req.resolve_network()
    cfg = config_for_policy(req.policy, buffer_bytes=req.buffer_bytes)
    sched = make_schedule(
        net, "mbs2", buffer_bytes=req.buffer_bytes,
        mini_batch=req.mini_batch, word_bytes=req.word_bytes,
    )
    return _evaluate(net, sched, cfg, req.word_bytes, degraded=True)

