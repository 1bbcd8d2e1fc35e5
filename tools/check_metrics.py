#!/usr/bin/env python3
"""Validate ftmc telemetry artifacts.

Five kinds of input, all optional, each repeatable:

  --metrics FILE        a --metrics-json export; must be a valid
                        `ftmc.metrics.v1` document (schema marker, integer
                        counters/gauges, histograms whose bucket sums match
                        their counts).
  --trace FILE          a --chrome-trace export; must be valid JSON with a
                        `traceEvents` array of B/E duration events that are
                        balanced and properly nested per (pid, tid), with
                        per-thread non-decreasing timestamps.  Instant
                        events (ph "i", e.g. serve request-id annotations)
                        must carry thread scope and an args.id payload.
  --bench-output FILE   captured stdout of a bench binary; must contain
                        exactly one `JSON: {...}` summary line (see
                        bench/README.md) whose payload parses and carries a
                        string `bench` key.  The `serve` and `distributed`
                        summaries must also report identical responses and
                        meet their speedup floors on hosts with >= 4 cores.
  --access-log FILE     an `ftmc serve --access-log` JSONL stream; every
                        record must carry the full schema (ts_ms, id,
                        method, ok, byte counts, the five us.* latency
                        stages) with total_us equal to the stage sum, an
                        error code from the ftmc.rpc.v1 taxonomy only on
                        failures, and non-decreasing timestamps.
  --prom FILE           a Prometheus text exposition (the `metrics` method
                        with format=prometheus); every sample line must
                        parse, follow its # TYPE declaration, and histogram
                        series must be cumulative, ending in a `+Inf` bucket
                        equal to `_count`.

Cross-cutting checks:

  --expect-counter NAME>=N
                        require counter NAME in every --metrics document to
                        be present and >= N (e.g. `dse.resume.loads>=1`).
                        Repeatable.
  --compare-jsonl A B   require two optimizer JSONL telemetry streams to be
                        identical on their trajectory fields; the
                        nondeterministic timing/cache keys (evaluation
                        seconds, throughput, latency percentiles, cache
                        hits) are excluded, matching the resume guarantee.

Exits 0 when every artifact checks out; prints one line per violation and
exits 1 otherwise.  CI runs this over the artifacts of the bench-smoke,
kill-and-resume, serve-smoke and distributed-smoke jobs.

Checkpoints and evaluation stores are binary formats with C++ readers; they
are validated by those readers through `ftmc check PATH...`, not here.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

SCHEMA = "ftmc.metrics.v1"

# Telemetry keys that legitimately differ between an uninterrupted run and
# a resumed one (cold caches, different machine load).  Everything else in
# a JSONL line pins the trajectory and must match bitwise.
NONDETERMINISTIC_JSONL_KEYS = frozenset(
    {
        "evaluation_seconds",
        "scenarios_per_second",
        "eval_p50_us",
        "eval_p95_us",
        "eval_max_us",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
        "scenarios_analyzed",
        "scenario_solves",
    }
)

errors: list[str] = []


def fail(path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(path, f"not readable as JSON: {exc}")
        return None


def is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_metrics(path: str) -> None:
    doc = load_json(path)
    if doc is None:
        return
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        fail(path, f"missing schema marker {SCHEMA!r}")
        return
    for section in ("counters", "gauges"):
        values = doc.get(section, {})
        if not isinstance(values, dict):
            fail(path, f"{section} must be an object")
            continue
        for name, value in values.items():
            if not is_count(value):
                fail(path, f"{section}[{name}] = {value!r} is not a count")
    histograms = doc.get("histograms", {})
    if not isinstance(histograms, dict):
        fail(path, "histograms must be an object")
        return
    for name, hist in histograms.items():
        if not isinstance(hist, dict):
            fail(path, f"histograms[{name}] must be an object")
            continue
        count, total = hist.get("count"), hist.get("sum")
        buckets = hist.get("buckets")
        if not is_count(count) or not is_count(total):
            fail(path, f"histograms[{name}] needs integer count and sum")
            continue
        if not isinstance(buckets, list) or not all(is_count(b) for b in buckets):
            fail(path, f"histograms[{name}].buckets must be counts")
            continue
        if sum(buckets) != count:
            fail(
                path,
                f"histograms[{name}]: bucket sum {sum(buckets)}"
                f" != count {count}",
            )


def check_trace(path: str) -> None:
    doc = load_json(path)
    if doc is None:
        return
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        fail(path, "missing traceEvents array")
        return
    stacks: dict[tuple, list[str]] = {}
    last_ts: dict[tuple, float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(path, f"traceEvents[{index}] is not an object")
            return
        phase = event.get("ph")
        if phase == "M":  # metadata (thread names)
            continue
        if phase not in ("B", "E", "i"):
            fail(path, f"traceEvents[{index}]: unexpected phase {phase!r}")
            return
        key = (event.get("pid"), event.get("tid"))
        name = event.get("name")
        ts = event.get("ts")
        if not isinstance(name, str) or not isinstance(ts, (int, float)):
            fail(path, f"traceEvents[{index}]: needs string name + numeric ts")
            return
        if key in last_ts and ts < last_ts[key]:
            fail(path, f"traceEvents[{index}]: ts goes backwards on {key}")
            return
        last_ts[key] = ts
        if phase == "i":
            # Instant annotations (request ids): no stack effect, but the
            # scope and payload must be present for chrome://tracing.
            if event.get("s") != "t":
                fail(path, f"traceEvents[{index}]: instant needs s='t'")
                return
            if not isinstance(event.get("args"), dict) or not isinstance(
                event["args"].get("id"), str
            ):
                fail(path, f"traceEvents[{index}]: instant needs args.id")
                return
            continue
        stack = stacks.setdefault(key, [])
        if phase == "B":
            stack.append(name)
        else:
            if not stack:
                fail(path, f"traceEvents[{index}]: E {name!r} without open B")
                return
            if stack[-1] != name:
                fail(
                    path,
                    f"traceEvents[{index}]: E {name!r} closes"
                    f" open B {stack[-1]!r}",
                )
                return
            stack.pop()
    for key, stack in stacks.items():
        if stack:
            fail(path, f"unclosed spans {stack} on thread {key}")


def check_bench_output(path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [
                line[len("JSON: "):]
                for line in handle
                if line.startswith("JSON: ")
            ]
    except OSError as exc:
        fail(path, f"not readable: {exc}")
        return
    if len(lines) != 1:
        fail(path, f"expected exactly one 'JSON: ' line, found {len(lines)}")
        return
    try:
        summary = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        fail(path, f"summary line is not valid JSON: {exc}")
        return
    if not isinstance(summary, dict) or not isinstance(
        summary.get("bench"), str
    ):
        fail(path, "summary must be an object with a string 'bench' key")
        return
    if summary["bench"] == "serve":
        check_serve_summary(path, summary)
    elif summary["bench"] == "distributed":
        check_distributed_summary(path, summary)


def gated_speedup(path: str, summary: dict, key: str, floor: float) -> None:
    """Concurrency speedups only show on hosts with enough cores, so the
    summary must report hardware_concurrency and the floor applies only
    when >= 4 cores are available."""
    cores = summary.get("hardware_concurrency")
    if not is_count(cores) or cores == 0:
        fail(path, "summary must report hardware_concurrency")
        return
    speedup = summary.get(key)
    if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
        fail(path, f"summary key {key!r} missing or not numeric")
        return
    if cores >= 4 and speedup < floor:
        fail(path, f"{key} = {speedup} < {floor} on a"
                   f" {cores}-core host")


def check_serve_summary(path: str, summary: dict) -> None:
    if summary.get("identical") is not True:
        fail(path, "serve responses are not byte-identical across arms")
    gated_speedup(path, summary, "speedup_8x", 2.0)


def check_distributed_summary(path: str, summary: dict) -> None:
    if summary.get("identical") is not True:
        fail(path, "distributed fronts are not byte-identical across arms")
    gated_speedup(path, summary, "speedup", 2.0)


ACCESS_LOG_STAGES = ("read", "parse", "dispatch", "render", "write")

# The ftmc.rpc.v1 structured error taxonomy (docs/PROTOCOL.md); the access
# log's `error` field carries exactly the code the response did.
ACCESS_LOG_ERROR_CODES = (
    "bad_request",
    "unknown_method",
    "version_mismatch",
    "shutting_down",
    "internal",
)


def check_access_log(path: str) -> None:
    lines = load_jsonl(path)
    if lines is None:
        return
    if not lines:
        fail(path, "access log is empty")
        return
    last_ts = 0
    for index, record in enumerate(lines):
        label = f"record {index + 1}"
        ts = record.get("ts_ms")
        if not is_count(ts) or ts == 0:
            fail(path, f"{label}: ts_ms missing or not a positive integer")
            continue
        if ts < last_ts:
            fail(path, f"{label}: ts_ms goes backwards")
        last_ts = ts
        rid = record.get("id")
        if not isinstance(rid, str) or not rid:
            fail(path, f"{label}: id must be a non-empty string")
        ok = record.get("ok")
        if not isinstance(ok, bool):
            fail(path, f"{label}: ok must be a boolean")
            continue
        error = record.get("error")
        if ok and error is not None:
            fail(path, f"{label}: error code on a successful request")
        if not ok and error not in ACCESS_LOG_ERROR_CODES:
            fail(path, f"{label}: error code {error!r} not in the"
                       " ftmc.rpc.v1 taxonomy")
        method = record.get("method")
        if not isinstance(method, str) or (
            not method and error != "bad_request"
        ):
            fail(path, f"{label}: method missing (and not a bad_request)")
        cache = record.get("cache")
        if cache is not None and cache not in ("hit", "miss"):
            fail(path, f"{label}: cache outcome {cache!r} not hit/miss")
        for key in ("bytes_in", "bytes_out"):
            if not is_count(record.get(key)):
                fail(path, f"{label}: {key} missing or not a count")
        stages = record.get("us")
        if not isinstance(stages, dict):
            fail(path, f"{label}: us stage breakdown missing")
            continue
        total = 0
        complete = True
        for stage in ACCESS_LOG_STAGES:
            value = stages.get(stage)
            if not is_count(value):
                fail(path, f"{label}: us.{stage} missing or not a count")
                complete = False
            else:
                total += value
        if complete and record.get("total_us") != total:
            fail(
                path,
                f"{label}: total_us {record.get('total_us')} != stage sum"
                f" {total}",
            )


PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)


def check_prom(path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        fail(path, f"not readable: {exc}")
        return
    types: dict[str, str] = {}
    # histogram base name -> list of (le, cumulative count), plus _count
    buckets: dict[str, list[tuple[str, float]]] = {}
    counts: dict[str, float] = {}
    for index, line in enumerate(raw.splitlines()):
        label = f"line {index + 1}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
            ):
                fail(path, f"{label}: malformed TYPE declaration")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = PROM_SAMPLE.match(line)
        if match is None:
            fail(path, f"{label}: unparseable sample line {line!r}")
            continue
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        if base not in types and name not in types:
            fail(path, f"{label}: sample {name!r} precedes its TYPE line")
            continue
        declared = types.get(base, types.get(name))
        try:
            value = float(match.group("value").replace("+Inf", "inf"))
        except ValueError:
            fail(path, f"{label}: bad sample value {match.group('value')!r}")
            continue
        if declared == "histogram":
            if name.endswith("_bucket"):
                labels = match.group("labels") or ""
                le = None
                for part in labels.split(","):
                    key, _, bound = part.partition("=")
                    if key == "le":
                        le = bound.strip('"')
                if le is None:
                    fail(path, f"{label}: histogram bucket without le label")
                    continue
                buckets.setdefault(base, []).append((le, value))
            elif name.endswith("_count"):
                counts[base] = value
    for base, series in buckets.items():
        cumulative = [value for _, value in series]
        if cumulative != sorted(cumulative):
            fail(path, f"histogram {base}: buckets are not cumulative")
        if not series or series[-1][0] != "+Inf":
            fail(path, f"histogram {base}: last bucket must be le='+Inf'")
            continue
        if base in counts and series[-1][1] != counts[base]:
            fail(
                path,
                f"histogram {base}: +Inf bucket {series[-1][1]}"
                f" != _count {counts[base]}",
            )


def parse_counter_expectation(spec: str) -> tuple[str, int] | None:
    name, sep, bound = spec.partition(">=")
    if not sep or not name or not bound.isdigit():
        fail(spec, "expectation must look like 'counter.name>=N'")
        return None
    return name, int(bound)


def check_expected_counters(path: str, expectations: list[tuple[str, int]]):
    doc = load_json(path)
    if doc is None or not isinstance(doc, dict):
        return
    counters = doc.get("counters", {})
    if not isinstance(counters, dict):
        return  # shape violations already reported by check_metrics
    for name, bound in expectations:
        value = counters.get(name)
        if not is_count(value):
            fail(path, f"counter {name!r} missing (expected >= {bound})")
        elif value < bound:
            fail(path, f"counter {name} = {value}, expected >= {bound}")


def load_jsonl(path: str) -> list[dict] | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = [line for line in handle if line.strip()]
    except OSError as exc:
        fail(path, f"not readable: {exc}")
        return None
    lines: list[dict] = []
    for index, line in enumerate(raw):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(path, f"line {index + 1} is not valid JSON: {exc}")
            return None
        if not isinstance(doc, dict):
            fail(path, f"line {index + 1} is not an object")
            return None
        lines.append(doc)
    return lines


def compare_jsonl(path_a: str, path_b: str) -> None:
    a, b = load_jsonl(path_a), load_jsonl(path_b)
    if a is None or b is None:
        return
    label = f"{path_a} vs {path_b}"
    if len(a) != len(b):
        fail(label, f"line counts differ: {len(a)} vs {len(b)}")
        return
    for index, (line_a, line_b) in enumerate(zip(a, b)):
        trimmed_a = {
            k: v
            for k, v in line_a.items()
            if k not in NONDETERMINISTIC_JSONL_KEYS
        }
        trimmed_b = {
            k: v
            for k, v in line_b.items()
            if k not in NONDETERMINISTIC_JSONL_KEYS
        }
        if trimmed_a != trimmed_b:
            diff = sorted(
                k
                for k in set(trimmed_a) | set(trimmed_b)
                if trimmed_a.get(k) != trimmed_b.get(k)
            )
            fail(
                label,
                f"line {index + 1}: trajectory fields differ: {diff}",
            )
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", action="append", default=[])
    parser.add_argument("--trace", action="append", default=[])
    parser.add_argument("--bench-output", action="append", default=[])
    parser.add_argument("--access-log", action="append", default=[])
    parser.add_argument("--prom", action="append", default=[])
    parser.add_argument("--expect-counter", action="append", default=[])
    parser.add_argument(
        "--compare-jsonl", nargs=2, action="append", default=[]
    )
    args = parser.parse_args()
    if not (
        args.metrics
        or args.trace
        or args.bench_output
        or args.access_log
        or args.prom
        or args.compare_jsonl
    ):
        parser.error(
            "nothing to check; pass --metrics/--trace/--bench-output/"
            "--access-log/--prom/--compare-jsonl"
        )
    if args.expect_counter and not args.metrics:
        parser.error("--expect-counter requires at least one --metrics")
    expectations = [
        parsed
        for spec in args.expect_counter
        if (parsed := parse_counter_expectation(spec)) is not None
    ]
    for path in args.metrics:
        check_metrics(path)
        if expectations:
            check_expected_counters(path, expectations)
    for path in args.trace:
        check_trace(path)
    for path in args.bench_output:
        check_bench_output(path)
    for path in args.access_log:
        check_access_log(path)
    for path in args.prom:
        check_prom(path)
    for pair in args.compare_jsonl:
        compare_jsonl(pair[0], pair[1])
    for error in errors:
        print(error, file=sys.stderr)
    checked = (
        len(args.metrics)
        + len(args.trace)
        + len(args.bench_output)
        + len(args.access_log)
        + len(args.prom)
        + len(args.compare_jsonl)
    )
    if not errors:
        print(f"check_metrics: {checked} artifact(s) OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
