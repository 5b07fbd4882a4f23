"""Seeded input generation for the three workloads.

The program sees only what these functions return.  Inputs are drawn
stratified (every round holds the same mix of networks, objectives and
buffer-size octaves; only the pairing, the draw inside each octave and
the order change with the seed), so two seeds give different inputs of
near-equal total cost, and run-to-run spread measures the host and the
program rather than the luck of the draw.
"""
from __future__ import annotations

import math
import random
from typing import Any

KIB = 1024
MIB = 1024 * KIB

#: Buffer sizes are log-uniform over [16 KiB, 4 MiB): 8 octaves.
MIN_BUFFER = 16 * KIB
OCTAVES = 8

#: The paper's six evaluation networks (Sec. 5).
PAPER_NETWORKS = ("resnet50", "resnet101", "resnet152", "inception_v3",
                  "inception_v4", "alexnet")
#: Serve traffic adds the toy networks: cheap hits next to dear ones.
SERVE_NETWORKS = PAPER_NETWORKS + ("toy_chain", "toy_residual",
                                   "toy_inception")

#: The paper's fixed Tab. 3 policies.
FIXED_POLICIES = ("baseline", "archopt", "il", "mbs-fs", "mbs1", "mbs2")

#: One deck of call kinds: an ``mbs-auto`` objective, or a fixed policy.
#: Six of eight calls search with ``mbs-auto``; a minority are fixed.
KINDS = ("traffic", "latency", "energy", "latency+traffic",
         "traffic", "latency", "fixed", "fixed")

#: price-cold: one round prices every paper network once per octave.
ROUND_CALLS = len(PAPER_NETWORKS) * OCTAVES
MIN_PRICE_CALLS = 200
#: Host seconds one round takes at nominal speed (sizes a run).
ROUND_NOMINAL_S = 2.5

#: serve-mixed: the steps of one block of 50 requests.
SERVE_BLOCK = (("fresh", 6), ("fresh_graph", 2), ("dedup", 2),
               ("batch", 2), ("repeat", 28), ("repeat_graph", 6))
STEP_REQUESTS = {"dedup": 2, "batch": 2}
MIN_SERVE_REQUESTS = 1000
BLOCK_NOMINAL_S = 1.0

#: The warm-up request that spawns the serve worker; its buffer lies
#: outside the workload's range, so it never answers a workload key.
WARMUP_REQUEST = {"schema": 1, "network": "toy_chain", "policy": "baseline",
                  "buffer_bytes": 10 * MIB}

#: artifacts: cold regenerations per run.
REGENERATIONS = 2


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def buffer_in_octave(rng: random.Random, octave: int) -> int:
    """A log-uniform size in ``[16 KiB * 2**octave, 16 KiB * 2**(octave+1))``."""
    return int(MIN_BUFFER * 2.0 ** (octave + rng.random()))


def _call(kind: str, network: str, buffer_bytes: int,
          rng: random.Random) -> dict[str, Any]:
    if kind == "fixed":
        policy, objective = rng.choice(FIXED_POLICIES), "traffic"
    else:
        policy, objective = "mbs-auto", kind
    return {"network": network, "policy": policy, "objective": objective,
            "buffer_bytes": buffer_bytes}


def price_rounds(seconds: float) -> int:
    return max(math.ceil(MIN_PRICE_CALLS / ROUND_CALLS),
               round(seconds / ROUND_NOMINAL_S))


def price_cold_inputs(seed: int, rounds: int) -> list[dict[str, Any]]:
    """``rounds`` x 48 pricing calls for ``repro.api.price``."""
    rng = _rng("price-cold", seed)
    calls: list[dict[str, Any]] = []
    for _ in range(rounds):
        block = []
        for network in PAPER_NETWORKS:
            kinds = list(KINDS)
            rng.shuffle(kinds)
            for octave, kind in enumerate(kinds):
                block.append(_call(kind, network,
                                   buffer_in_octave(rng, octave), rng))
        rng.shuffle(block)
        calls.extend(block)
    return calls


def artifact_orders(seed: int, names: list[str]) -> list[list[str]]:
    """One seeded task order per cold regeneration of every spec."""
    rng = _rng("artifacts", seed)
    orders = []
    for _ in range(REGENERATIONS):
        order = sorted(names)
        rng.shuffle(order)
        orders.append(order)
    return orders


def serve_blocks(seconds: float) -> int:
    per_block = sum(n * STEP_REQUESTS.get(k, 1) for k, n in SERVE_BLOCK)
    return max(math.ceil(MIN_SERVE_REQUESTS / per_block),
               round(seconds / BLOCK_NOMINAL_S))


class _Deck:
    """Draw without replacement from a refilled, reshuffled deck."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.left = list(items), rng, []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def serve_plan(seed: int, blocks: int) -> list[dict[str, Any]]:
    """The closed-loop step sequence of serve-mixed.

    A step is one request, or a pair sent at once on both connections.
    Each request names a ``key`` (an integer, equal for equal queries)
    and whether its body carries the network as an inline ``graph``.
    ``wire`` holds the request with the network by zoo name; the load
    generator swaps in the schema-1 graph where ``graph`` is set.
    """
    rng = _rng("serve-mixed", seed)
    networks = _Deck(SERVE_NETWORKS, rng)
    kinds = _Deck(KINDS, rng)
    octaves = _Deck(range(OCTAVES), rng)
    seen: set[tuple] = set()
    wires: list[dict[str, Any]] = []   # by key

    def fresh(like: dict[str, Any] | None = None) -> int:
        """A new key; ``like`` fixes all but the buffer size."""
        if like is None:
            like = _call(kinds.draw(), networks.draw(), 0, rng)
        while True:
            call = {"network": like["network"], "policy": like["policy"],
                    "objective": like["objective"],
                    "buffer_bytes": buffer_in_octave(rng, octaves.draw())}
            ident = tuple(sorted(call.items()))
            if ident not in seen:
                seen.add(ident)
                wires.append({"schema": 1, **call})
                return len(wires) - 1

    repeats = _Deck(SERVE_NETWORKS, rng)

    def repeat() -> int:
        """An answered key, its network drawn from a deck so every
        block repeats the same mix of cheap and dear networks."""
        network = repeats.draw()
        keys = [k for k, w in enumerate(wires) if w["network"] == network]
        return rng.choice(keys) if keys else rng.randrange(len(wires))

    def req(key: int, graph: bool) -> dict[str, Any]:
        return {"key": key, "graph": graph, "wire": wires[key]}

    steps: list[dict[str, Any]] = []
    for b in range(blocks):
        kinds_of_block = [k for k, n in SERVE_BLOCK for _ in range(n)]
        rng.shuffle(kinds_of_block)
        if b == 0:  # the first step must create a key a repeat can hit
            kinds_of_block.remove("fresh")
            kinds_of_block.insert(0, "fresh")
        for kind in kinds_of_block:
            if kind in ("fresh", "fresh_graph"):
                requests = [req(fresh(), kind == "fresh_graph")]
            elif kind == "dedup":
                key = fresh()
                requests = [req(key, False), req(key, False)]
            elif kind == "batch":
                first = fresh()
                second = fresh(wires[first])
                requests = [req(first, False), req(second, False)]
            else:
                requests = [req(repeat(), kind == "repeat_graph")]
            steps.append({"kind": kind, "requests": requests})
    return steps
