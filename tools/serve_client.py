#!/usr/bin/env python3
"""Reference client for the `ftmc serve` protocol.

One frame = the payload's byte length as ASCII decimal, a single newline,
then exactly that many payload bytes (a JSON document).  The same framing
runs over TCP and stdio; this client speaks TCP.

Modes (one required):

  --request JSON        send one request to a running daemon (--port or
                        --port-file) and print the response JSON.
  --smoke N             spawn a daemon over --system (needs --ftmc), send N
                        mixed requests (ping / systems / health / analyze /
                        evaluate / simulate round-robin), require ok:true on
                        every one, then ask it to shut down and require exit
                        code 0.  With --diff, the analyze and simulate
                        rendered outputs are additionally byte-compared
                        against one-shot `ftmc analyze` / `ftmc simulate`
                        runs of the same binary — the serve responses must
                        be bitwise identical to the CLI.

With --watch (load mode), one extra connection polls the daemon's `metrics`
method while the load runs and prints a live windowed rate line (req/s and
cache hit rate from the serve-side sampler).  --access-log and
--sample-interval forward the matching daemon flags so CI can validate the
observability artifacts afterwards.

With --concurrency N (smoke mode), N client threads each open their own
connection and send the N_req mixed requests concurrently — including
periodic `batch` requests and `evaluate` calls carrying the system's own
candidate block inline via params.candidate (which must answer identically
to the resident-candidate evaluate).  Per-request latencies are aggregated
into p50/p95 and an overall request rate; --diff byte-compares exactly as
in the serial mode, so concurrency must not change a single output byte.

CI runs `--smoke 50 --diff` serially and `--smoke 16 --concurrency 8
--diff` against the shipped demo system (see .github/workflows/ci.yml);
tests/test_serve.cpp pins the same byte-identity in-process.
"""

from __future__ import annotations

import argparse
import json
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SIMULATE_PROFILES = 200
SIMULATE_FAULT_PROB = "0.25"
SIMULATE_SEED = 9


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


RPC_VERSION = "ftmc.rpc.v1"


def call(sock: socket.socket, request: dict) -> dict:
    # Every request carries the protocol version; the server rejects
    # unversioned frames with a structured version_mismatch error.
    request.setdefault("v", RPC_VERSION)
    send_frame(sock, json.dumps(request).encode())
    return json.loads(recv_frame(sock))


def error_text(response: dict) -> str:
    """Human-readable form of a structured {code, message, detail} error."""
    error = response.get("error")
    if not isinstance(error, dict):
        return str(error)
    text = f"{error.get('code', '?')}: {error.get('message', '')}"
    if error.get("detail"):
        text += f" ({error['detail']})"
    return text


def wait_for_port(port_file: Path, daemon: subprocess.Popen,
                  timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with code {daemon.returncode}"
            )
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise RuntimeError(f"daemon never wrote {port_file}")


def smoke_request(i: int, system: str) -> dict:
    method = ("ping", "systems", "health", "analyze", "evaluate",
              "simulate")[i % 6]
    request: dict = {"id": i, "method": method}
    if method == "simulate":
        # Pinned parameters so --diff can replay the identical CLI run.
        request["params"] = {
            "profiles": SIMULATE_PROFILES,
            "fault_prob": SIMULATE_FAULT_PROB,
            "seed": SIMULATE_SEED,
        }
    if method in ("analyze", "evaluate", "simulate"):
        request["system"] = system
    return request


def cli_reference(ftmc: str, system: str, method: str) -> str:
    if method == "analyze":
        argv = [ftmc, "analyze", system]
    else:
        argv = [
            ftmc, "simulate", system,
            f"--profiles={SIMULATE_PROFILES}",
            f"--fault-prob={SIMULATE_FAULT_PROB}",
            f"--seed={SIMULATE_SEED}",
        ]
    # analyze exits 1 on an infeasible candidate; that is still a valid
    # reference rendering, so don't check the exit code here.
    run = subprocess.run(argv, capture_output=True, text=True)
    return run.stdout


def extract_candidate_block(system: str) -> str | None:
    """The `candidate { ... }` block of a system file, verbatim (brace
    counting; the text format has no braces inside string literals)."""
    text = Path(system).read_text()
    start = text.find("candidate")
    if start < 0:
        return None
    depth = 0
    for pos in range(start, len(text)):
        if text[pos] == "{":
            depth += 1
        elif text[pos] == "}":
            depth -= 1
            if depth == 0:
                return text[start:pos + 1]
    return None


def check_response(request: dict, response: dict,
                   references: dict[str, str], errors: list[str]) -> None:
    if response.get("ok") is not True:
        errors.append(f"request {request['id']} ({request['method']})"
                      f" failed: {error_text(response)}")
        return
    if response.get("id") != request["id"]:
        errors.append(f"request {request['id']}: id echoed as"
                      f" {response.get('id')!r}")
    method = request["method"]
    if method in references and "candidate" not in request.get("params", {}):
        served = response["result"].get("output", "")
        if served != references[method]:
            errors.append(f"request {request['id']}: {method} output"
                          f" differs from one-shot CLI ({len(served)} vs"
                          f" {len(references[method])} bytes)")


def load_worker(worker: int, port: int, count: int, system: str,
                references: dict[str, str], candidate_block: str | None,
                resident_eval: dict | None, latencies: list[float],
                errors: list[str]) -> None:
    """One load connection: `count` mixed requests, some pipelined in pairs,
    every latency recorded.  Appends human-readable problems to `errors`."""
    try:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            for i in range(count):
                rid = f"w{worker}-{i}"
                kind = i % 8
                if kind == 6:
                    # Batch: three sub-requests fanned out server-side.
                    subs = [smoke_request(j, system) for j in range(3, 6)]
                    for j, sub in enumerate(subs):
                        sub["id"] = f"{rid}-b{j}"
                    request = {"id": rid, "method": "batch",
                               "params": {"requests": subs}}
                    begin = time.monotonic()
                    response = call(sock, request)
                    latencies.append(time.monotonic() - begin)
                    if response.get("ok") is not True:
                        errors.append(f"batch {rid} failed: {response}")
                        continue
                    results = response["result"].get("results", [])
                    if len(results) != len(subs):
                        errors.append(f"batch {rid}: {len(results)} results"
                                      f" for {len(subs)} requests")
                        continue
                    for sub, sub_response in zip(subs, results):
                        check_response(sub, sub_response, references, errors)
                elif kind == 7 and candidate_block is not None:
                    # Inline-candidate evaluate: must answer exactly like
                    # the resident-candidate evaluate (the candidate IS the
                    # resident one, re-sent as text).
                    request = {"id": rid, "method": "evaluate",
                               "system": system,
                               "params": {"candidate": candidate_block}}
                    begin = time.monotonic()
                    response = call(sock, request)
                    latencies.append(time.monotonic() - begin)
                    check_response(request, response, references, errors)
                    if response.get("ok") is True and resident_eval:
                        got = dict(response["result"])
                        got.pop("cache_hit", None)
                        if got != resident_eval:
                            errors.append(f"request {rid}: inline-candidate"
                                          " evaluate differs from resident"
                                          " evaluate")
                else:
                    request = smoke_request(i, system)
                    request["id"] = rid
                    begin = time.monotonic()
                    response = call(sock, request)
                    latencies.append(time.monotonic() - begin)
                    check_response(request, response, references, errors)
    except (OSError, ConnectionError, ValueError) as error:
        errors.append(f"worker {worker}: {error!r}")


def percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def watch_worker(port: int, stop: threading.Event) -> None:
    """Live rate line for load mode: polls the daemon's `metrics` method on
    its own connection and prints the windowed request rate the serve-side
    sampler reports (requires the daemon's sampler, on by default)."""
    try:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            while not stop.wait(0.5):
                response = call(sock, {"id": "watch", "method": "metrics"})
                if response.get("ok") is not True:
                    return
                window = response["result"].get("window")
                if not window or not window.get("samples"):
                    continue
                rates = window.get("rates", {})
                print(f"watch: {rates.get('requests_per_s', 0.0):.1f} req/s,"
                      f" cache hit rate"
                      f" {window.get('cache_hit_rate', 0.0):.2f} over"
                      f" {window.get('seconds', 0.0):.1f}s", flush=True)
    except (OSError, ConnectionError, ValueError):
        pass  # daemon draining mid-poll; the load result is what matters


def run_load(args: argparse.Namespace, port: int,
             references: dict[str, str]) -> int:
    candidate_block = extract_candidate_block(args.system)
    resident_eval = None
    with socket.create_connection(("127.0.0.1", port)) as sock:
        response = call(sock, {"id": "ref", "method": "evaluate",
                               "system": args.system})
        if response.get("ok") is True:
            resident_eval = dict(response["result"])
            resident_eval.pop("cache_hit", None)
    per_worker: list[tuple[list[float], list[str]]] = []
    threads = []
    watcher = None
    watch_stop = threading.Event()
    if args.watch:
        watcher = threading.Thread(target=watch_worker,
                                   args=(port, watch_stop))
        watcher.start()
    begin = time.monotonic()
    for worker in range(args.concurrency):
        latencies: list[float] = []
        errors: list[str] = []
        per_worker.append((latencies, errors))
        threads.append(threading.Thread(
            target=load_worker,
            args=(worker, port, args.smoke, args.system, references,
                  candidate_block, resident_eval, latencies, errors)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - begin
    if watcher is not None:
        watch_stop.set()
        watcher.join()
    failures = 0
    for _, errors in per_worker:
        for message in errors:
            print(message, file=sys.stderr)
            failures += 1
    all_latencies = sorted(
        value for latencies, _ in per_worker for value in latencies)
    if not all_latencies:
        print("load: no requests completed", file=sys.stderr)
        return failures + 1
    rate = len(all_latencies) / elapsed if elapsed > 0 else 0.0
    print(f"serve_client: {len(all_latencies)} requests over"
          f" {args.concurrency} connections in {elapsed:.2f}s"
          f" ({rate:.0f} req/s, p50"
          f" {percentile(all_latencies, 0.50) * 1e3:.1f}ms, p95"
          f" {percentile(all_latencies, 0.95) * 1e3:.1f}ms)"
          + (" — outputs byte-identical to CLI" if args.diff else ""))
    return failures


def run_smoke(args: argparse.Namespace) -> int:
    port_file = Path(tempfile.mkdtemp(prefix="ftmc_serve_")) / "port"
    argv = [args.ftmc, "serve", args.system, "--port=0",
            f"--port-file={port_file}",
            f"--max-connections={max(args.concurrency + 1, 8)}"]
    if args.cache_dir:
        argv.append(f"--cache-dir={args.cache_dir}")
    if args.metrics_json:
        argv.append(f"--metrics-json={args.metrics_json}")
    if args.access_log:
        argv.append(f"--access-log={args.access_log}")
    if args.sample_interval is not None:
        argv.append(f"--sample-interval={args.sample_interval}")
    daemon = subprocess.Popen(argv)
    try:
        port = wait_for_port(port_file, daemon)
        references = {
            method: cli_reference(args.ftmc, args.system, method)
            for method in ("analyze", "simulate")
        } if args.diff else {}
        if args.concurrency > 1:
            failures = run_load(args, port, references)
            with socket.create_connection(("127.0.0.1", port)) as sock:
                response = call(sock, {"id": "bye", "method": "shutdown"})
                if response.get("ok") is not True:
                    print(f"shutdown refused: {response}", file=sys.stderr)
                    failures += 1
            code = daemon.wait(timeout=30)
            if code != 0:
                print(f"daemon exited with code {code}", file=sys.stderr)
                failures += 1
            return 1 if failures else 0
        failures = 0
        with socket.create_connection(("127.0.0.1", port)) as sock:
            for i in range(args.smoke):
                request = smoke_request(i, args.system)
                response = call(sock, request)
                if response.get("ok") is not True:
                    print(f"request {i} ({request['method']}) failed:"
                          f" {error_text(response)}", file=sys.stderr)
                    failures += 1
                    continue
                if response.get("id") != i:
                    print(f"request {i}: id echoed as"
                          f" {response.get('id')!r}", file=sys.stderr)
                    failures += 1
                method = request["method"]
                if method in references:
                    served = response["result"].get("output", "")
                    if served != references[method]:
                        print(f"request {i}: {method} output differs from"
                              f" one-shot CLI ({len(served)} vs"
                              f" {len(references[method])} bytes)",
                              file=sys.stderr)
                        failures += 1
            response = call(sock, {"id": "bye", "method": "shutdown"})
            if response.get("ok") is not True:
                print(f"shutdown refused: {response}", file=sys.stderr)
                failures += 1
        code = daemon.wait(timeout=30)
        if code != 0:
            print(f"daemon exited with code {code}", file=sys.stderr)
            failures += 1
        if failures == 0:
            checked = " (analyze/simulate byte-identical to CLI)" \
                if args.diff else ""
            print(f"serve_client: {args.smoke} requests OK{checked}")
        return 1 if failures else 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def run_single(args: argparse.Namespace) -> int:
    port = args.port
    if port is None:
        if not args.port_file:
            print("--request needs --port or --port-file", file=sys.stderr)
            return 2
        port = int(Path(args.port_file).read_text().strip())
    with socket.create_connection(("127.0.0.1", port)) as sock:
        response = call(sock, json.loads(args.request))
    print(json.dumps(response, indent=2))
    return 0 if response.get("ok") is True else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--request", help="one JSON request to send")
    parser.add_argument("--port", type=int)
    parser.add_argument("--port-file")
    parser.add_argument("--smoke", type=int,
                        help="spawn a daemon and send N mixed requests")
    parser.add_argument("--concurrency", type=int, default=1,
                        help="client connections in smoke mode (each sends"
                             " N requests; reports req/s and p50/p95)")
    parser.add_argument("--diff", action="store_true",
                        help="byte-compare analyze/simulate vs the CLI")
    parser.add_argument("--ftmc", help="path to the ftmc binary (smoke)")
    parser.add_argument("--system", help="system file to serve (smoke)")
    parser.add_argument("--cache-dir", help="persistent store root (smoke)")
    parser.add_argument("--metrics-json",
                        help="daemon --metrics-json path (smoke)")
    parser.add_argument("--access-log",
                        help="daemon --access-log path (smoke)")
    parser.add_argument("--sample-interval", type=int,
                        help="daemon --sample-interval in ms (smoke)")
    parser.add_argument("--watch", action="store_true",
                        help="poll `metrics` during load mode and print a"
                             " live windowed rate line")
    args = parser.parse_args()
    if args.smoke is not None:
        if not args.ftmc or not args.system:
            parser.error("--smoke requires --ftmc and --system")
        return run_smoke(args)
    if args.request:
        return run_single(args)
    parser.error("pass --smoke N or --request JSON")
    return 2


if __name__ == "__main__":
    sys.exit(main())
