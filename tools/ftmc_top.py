#!/usr/bin/env python3
"""Live monitor for one or many `ftmc serve` daemons.

Polls each daemon's `metrics` and `health` methods over the length-prefixed
JSONL protocol and renders a line per daemon with the windowed request rate,
per-method p50/p95 latency, inflight requests, session count, and cache hit
rate.  Rates and quantiles are computed CLIENT-side from deltas between
successive `ftmc.metrics.v1` snapshots, so the monitor works even against a
daemon running with --sample-interval=0 (serve-side sampling off).

Latency quantiles reimplement MetricsSnapshot::quantile (log-linear
interpolation within the registry's power-of-two histogram buckets; see
src/ftmc/obs/metrics.cpp), applied to the per-interval bucket increase of
each serve.latency.<method> histogram.

Targets are TCP endpoints: bare ports, host:port pairs, or --port-file
rendezvous files written by `ftmc serve --port-file` (repeatable; mix
freely).  --interval sets the poll cadence, --count bounds the number of
ticks (0 = run until interrupted) — CI smokes with --count 1.

    tools/ftmc_top.py 7070 otherhost:7070 --port-file /tmp/serve.port
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

METHODS = ("ping", "systems", "analyze", "evaluate", "simulate", "batch",
           "metrics", "health", "shutdown", "other")


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(str(len(payload)).encode() + b"\n" + payload)


def recv_frame(sock: socket.socket) -> bytes:
    length_line = b""
    while not length_line.endswith(b"\n"):
        byte = sock.recv(1)
        if not byte:
            raise ConnectionError("EOF while reading frame length")
        length_line += byte
    length = int(length_line.strip())
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        if not chunk:
            raise ConnectionError("EOF mid-frame")
        payload += chunk
    return payload


def call(sock: socket.socket, request: dict) -> dict:
    # The server speaks ftmc.rpc.v1 and rejects unversioned requests.
    request.setdefault("v", "ftmc.rpc.v1")
    send_frame(sock, json.dumps(request).encode())
    return json.loads(recv_frame(sock))


def quantile(buckets: list[int], count: int, q: float) -> float:
    """MetricsSnapshot::quantile in Python: rank q*(count-1) located in the
    log2 buckets, log-linearly interpolated inside the hit bucket (bucket b
    covers [2^(b-1), 2^b); bucket 0 is the literal sample 0)."""
    if count <= 0:
        return 0.0
    rank = max(0.0, min(1.0, q)) * (count - 1)
    below = 0.0
    for b, bucket_count in enumerate(buckets):
        if bucket_count == 0:
            continue
        if rank < below + bucket_count or b + 1 == len(buckets):
            if b == 0:
                return 0.0
            position = max(0.0, min(1.0, (rank - below) / bucket_count))
            return 2.0 ** (b - 1 + position)
        below += bucket_count
    return 0.0


def hist_delta(current: dict, previous: dict) -> tuple[int, list[int]]:
    """Per-bucket increase of one histogram between two snapshots."""
    cur_buckets = current.get("buckets", [])
    prev_buckets = previous.get("buckets", [])
    width = max(len(cur_buckets), len(prev_buckets))
    buckets = []
    for b in range(width):
        cur = cur_buckets[b] if b < len(cur_buckets) else 0
        prev = prev_buckets[b] if b < len(prev_buckets) else 0
        buckets.append(max(0, cur - prev))
    count = max(0, current.get("count", 0) - previous.get("count", 0))
    return count, buckets


class Daemon:
    """One monitored endpoint: a persistent connection plus the previous
    snapshot, so every tick reports the increase since the last one."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.sock: socket.socket | None = None
        self.prev: dict | None = None
        self.prev_at = 0.0

    @property
    def label(self) -> str:
        return f"{self.host}:{self.port}"

    def connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection((self.host, self.port),
                                                 timeout=10)
        return self.sock

    def drop(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None
        self.prev = None

    def tick(self) -> str:
        try:
            sock = self.connect()
            metrics = call(sock, {"id": "top", "method": "metrics"})
            health = call(sock, {"id": "top", "method": "health"})
        except (OSError, ConnectionError, ValueError) as error:
            self.drop()
            return f"{self.label}: unreachable ({error})"
        if metrics.get("ok") is not True or health.get("ok") is not True:
            return f"{self.label}: refused metrics/health"
        snapshot = metrics["result"]["metrics"]
        status = health["result"]
        now = time.monotonic()
        line = self.render(snapshot, status,
                           now - self.prev_at if self.prev else 0.0)
        self.prev = snapshot
        self.prev_at = now
        return line

    def render(self, snapshot: dict, status: dict, dt: float) -> str:
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})
        prev_counters = (self.prev or {}).get("counters", {})
        prev_histograms = (self.prev or {}).get("histograms", {})

        def rate(name: str) -> float:
            if dt <= 0:
                return 0.0
            return max(0, counters.get(name, 0)
                       - prev_counters.get(name, 0)) / dt

        hits = max(0, counters.get("cache.eval.hits", 0)
                   - prev_counters.get("cache.eval.hits", 0))
        misses = max(0, counters.get("cache.eval.misses", 0)
                     - prev_counters.get("cache.eval.misses", 0))
        hit_rate = hits / (hits + misses) if hits + misses else 0.0

        parts = [
            f"{self.label}: {status.get('status', '?')}",
            f"up {status.get('uptime_s', 0.0):.0f}s",
            f"{rate('serve.requests'):.1f} req/s",
            f"inflight {status.get('inflight', 0)}",
            f"conns {status.get('connections', 0)}",
            f"cache {hit_rate * 100.0:.0f}%",
        ]
        latencies = []
        for method in METHODS:
            name = f"serve.latency.{method}"
            if name not in histograms:
                continue
            count, buckets = hist_delta(histograms[name],
                                        prev_histograms.get(name, {}))
            if count == 0:
                continue
            p50 = quantile(buckets, count, 0.50)
            p95 = quantile(buckets, count, 0.95)
            latencies.append(
                f"{method} n={count} p50={p50 / 1e3:.2f}ms"
                f" p95={p95 / 1e3:.2f}ms")
        if latencies:
            parts.append("| " + "  ".join(latencies))
        return "  ".join(parts)


def parse_target(raw: str) -> tuple[str, int]:
    host, sep, port = raw.rpartition(":")
    if not sep:
        return "127.0.0.1", int(raw)
    return host, int(port)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("targets", nargs="*",
                        help="daemon endpoints: PORT or HOST:PORT")
    parser.add_argument("--port-file", action="append", default=[],
                        help="read a port from an `ftmc serve --port-file`"
                             " rendezvous file (repeatable)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls (default 2)")
    parser.add_argument("--count", type=int, default=0,
                        help="stop after N ticks (0 = run until ^C)")
    args = parser.parse_args()

    daemons: list[Daemon] = []
    try:
        for raw in args.targets:
            daemons.append(Daemon(*parse_target(raw)))
        for path in args.port_file:
            port = int(Path(path).read_text().strip())
            daemons.append(Daemon("127.0.0.1", port))
    except (OSError, ValueError) as error:
        print(f"ftmc_top: bad target: {error}", file=sys.stderr)
        return 2
    if not daemons:
        parser.error("no daemons; pass PORT/HOST:PORT targets or --port-file")

    ticks = 0
    unreachable = 0
    try:
        while True:
            unreachable = 0
            lines = [daemon.tick() for daemon in daemons]
            for line in lines:
                print(line, flush=True)
                if "unreachable" in line:
                    unreachable += 1
            ticks += 1
            if args.count and ticks >= args.count:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    # Non-zero when the final tick could not reach every daemon, so CI can
    # assert liveness with --count 1.
    return 1 if unreachable else 0


if __name__ == "__main__":
    sys.exit(main())
