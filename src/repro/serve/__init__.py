"""Scheduling-as-a-service: the async engine + HTTP shell.

``mbs-repro serve`` prices arbitrary user-submitted network graphs
over HTTP/JSON.  The split is deliberate:

- :mod:`repro.serve.engine` — :class:`ScheduleEngine`: request dedup,
  buffer-size batching, the persistent result cache, worker-pool
  dispatch, per-request timeouts, and greedy degradation.
- :mod:`repro.serve.server` — :class:`Server`: a stdlib-only
  ``asyncio.start_server`` HTTP/1.1 front end mapping routes onto the
  engine.

All layers speak the :mod:`repro.api` wire types, so an HTTP response
body is exactly ``ScheduleResult.to_wire()`` — the same costs, bit for
bit, as the Python facade and the CLI.
"""
from repro.serve.engine import (
    CACHE_SPEC,
    EngineStats,
    ScheduleEngine,
    price_batch_wire,
    price_wire,
)
from repro.serve.server import MAX_BODY_BYTES, Server, run_server

__all__ = [
    "CACHE_SPEC",
    "EngineStats",
    "MAX_BODY_BYTES",
    "ScheduleEngine",
    "Server",
    "price_batch_wire",
    "price_wire",
    "run_server",
]
