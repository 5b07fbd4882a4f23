"""The serve-mixed load generator: a server, two keep-alive connections.

:class:`ServerProcess` starts ``mbs-repro serve`` the way users start
it (default worker, ``--port 0``, a fresh ``--cache-dir``) in its own
process group, so stopping it stops its pricing worker too.
:class:`InProcessServer` hosts the same ``Server``/``ScheduleEngine``
on a thread of the benchmark process with inline pricing
(``workers=0``), which lets the traced run's wrappers see the pricing
calls.  :func:`drive` runs a closed-loop plan against either one.
"""
from __future__ import annotations

import asyncio
import concurrent.futures
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from mbsbench.hostref import HostClock
from mbsbench.inputs import WARMUP_REQUEST

START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


def _post(conn: http.client.HTTPConnection, body: bytes):
    """POST /v1/schedule; returns (status, payload bytes, start, end).

    A transport error is status 0 (a failed operation); the connection
    is closed so the next request reconnects.
    """
    started = time.perf_counter()
    try:
        conn.request("POST", "/v1/schedule", body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = resp.read()
        status = resp.status
    except (OSError, http.client.HTTPException):
        conn.close()
        status, payload = 0, b""
    return status, payload, started, time.perf_counter()


def get_json(port: int, path: str) -> dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {resp.status}")
        return json.loads(body)
    finally:
        conn.close()


def warm_up(port: int) -> None:
    """Wait for /healthz, then price one request outside the workload."""
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        try:
            if get_json(port, "/healthz").get("ok"):
                break
        except (OSError, RuntimeError, http.client.HTTPException):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server never answered /healthz")
        time.sleep(0.005)
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        status, payload, _, _ = _post(conn, json.dumps(WARMUP_REQUEST).encode())
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"warm-up request failed: HTTP {status} {payload!r}")


class ServerProcess:
    """``mbs-repro serve`` as a child process group."""

    def __init__(self, root: Path, env: dict[str, str], cache_dir: Path,
                 log_path: Path):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve",
             "--port", "0", "--cache-dir", str(cache_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("mbs-repro serve did not report its port")

    def _group(self) -> list[int]:
        """Live (non-zombie) processes of the server's process group."""
        pids = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            fields = stat[stat.rindex(")") + 2:].split()
            if int(fields[2]) == self.proc.pid and fields[0] != "Z":
                pids.append(int(entry.name))
        return pids

    def peak_rss_mib(self) -> float:
        """Sum of VmHWM over the server and its pricing worker."""
        total_kib = 0
        for pid in self._group():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
            if match:
                total_kib += int(match.group(1))
        return total_kib / 1024.0

    def stop(self) -> None:
        """Kill the whole group and wait until every member has ended."""
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                continue
            deadline = time.monotonic() + grace
            while self._group() and time.monotonic() < deadline:
                time.sleep(0.01)
            if not self._group():
                break
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class InProcessServer:
    """The serve stack on a background thread, pricing inline."""

    def __init__(self, cache_dir: Path):
        from repro.runtime.cache import ResultCache
        from repro.serve.engine import ScheduleEngine
        from repro.serve.server import Server

        self._loop = asyncio.new_event_loop()
        # the CLI's defaults, except pricing inline instead of a worker
        engine = ScheduleEngine(cache=ResultCache(cache_dir), workers=0,
                                cache_max_entries=4096)
        self._server = Server(engine, port=0)
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        daemon=True)
        self._thread.start()
        self._call(self._server.start())
        self.port = self._server.port

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=START_TIMEOUT_S)

    def stop(self) -> None:
        try:
            self._call(self._server.aclose())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=START_TIMEOUT_S)
            self._loop.close()


def request_bodies(plan: list[dict[str, Any]],
                   graphs: dict[str, str]) -> list[list[bytes]]:
    """Encode every request of the plan; ``graphs`` maps a network to
    its schema-1 JSON, spliced in where a request carries its graph."""
    bodies = []
    for step in plan:
        encoded = []
        for req in step["requests"]:
            wire = dict(req["wire"])
            if req["graph"]:
                name = wire.pop("network")
                text = json.dumps(wire)
                encoded.append(
                    (text[:-1] + ', "graph": ' + graphs[name] + "}").encode())
            else:
                encoded.append(json.dumps(wire).encode())
        bodies.append(encoded)
    return bodies


def drive(port: int, plan: list[dict[str, Any]], bodies: list[list[bytes]],
          clock: HostClock, tracer=None) -> list[dict[str, Any]]:
    """Run the plan closed-loop over two keep-alive connections.

    A one-request step goes out on the first connection; a pair goes
    out on both at once.  Returns one record per request: step index,
    key, HTTP status, parsed payload (or None), start and end.
    """
    conns = [http.client.HTTPConnection("127.0.0.1", port,
                                        timeout=REQUEST_TIMEOUT_S)
             for _ in range(2)]
    records: list[dict[str, Any]] = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as second:
        try:
            for i, (step, encoded) in enumerate(zip(plan, bodies)):
                clock.maybe_sample()
                if tracer is not None:
                    tracer.set_op(i)
                if len(encoded) == 2:
                    other = second.submit(_post, conns[1], encoded[1])
                    outcomes = [_post(conns[0], encoded[0]), other.result()]
                else:
                    outcomes = [_post(conns[0], encoded[0])]
                for req, (status, payload, start, end) in zip(
                        step["requests"], outcomes):
                    records.append({"step": i, "key": req["key"],
                                    "status": status, "payload": payload,
                                    "start": start, "end": end})
            clock.sample()
        finally:
            for conn in conns:
                conn.close()
    for rec in records:
        try:
            rec["payload"] = json.loads(rec["payload"])
        except (UnicodeDecodeError, json.JSONDecodeError):
            rec["payload"] = None
    return records


def check(plan: list[dict[str, Any]],
          records: list[dict[str, Any]]) -> list[str]:
    """Errors in the answers: non-200, degraded, a wrong echo, a first
    request for a key served from cache, or a repeat that differs."""
    errors = []
    first_step: dict[int, int] = {}
    canonical: dict[int, str] = {}
    for rec in records:
        key, payload = rec["key"], rec["payload"]
        where = f"step {rec['step']} key {key}"
        if rec["status"] != 200 or not isinstance(payload, dict):
            errors.append(f"{where}: HTTP {rec['status']}")
            continue
        result = payload.get("result") or {}
        if payload.get("degraded") or result.get("degraded"):
            errors.append(f"{where}: degraded answer")
            continue
        wire = next(r["wire"] for r in plan[rec["step"]]["requests"]
                    if r["key"] == key)
        if any(result.get(k) != wire[k] for k in
               ("network", "policy", "objective", "buffer_bytes")):
            errors.append(f"{where}: answer does not echo the request")
            continue
        first = first_step.setdefault(key, rec["step"])
        if first == rec["step"] and payload.get("cached"):
            errors.append(f"{where}: first request for a key hit the cache")
        text = json.dumps(result, sort_keys=True)
        if canonical.setdefault(key, text) != text:
            errors.append(f"{where}: repeat differs from the first answer")
    return errors
