#!/usr/bin/env python3
"""Validates BENCH_*.json perf-trajectory documents (docs/PERF.md).

Usage: validate_bench_json.py FILE [FILE...]

Checks every file against the versioned header schema emitted by
bench/bench_common.{h,cc} (schema_version 1) plus the per-benchmark
result shape, and exits non-zero on the first violation — the CI
bench-trajectory step runs this before committing the artifacts, so a
malformed or header-less document can never land in bench/trajectory/.
"""

import json
import re
import sys

SCHEMA_VERSION = 1
PROBE_BACKENDS = {"scalar", "sse2", "avx2"}
# Gate: bench_speed's TopK(100) against one CloneAtBarrier of the same
# 256 KB table (docs/PERF.md).
TOPK_CLONE_RATIO = 20
TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def require(doc, path, field, kind):
    if field not in doc:
        fail(path, f"missing header field '{field}'")
    if not isinstance(doc[field], kind):
        fail(path, f"header field '{field}' is not {kind.__name__}")
    return doc[field]


def check_header(doc, path):
    version = require(doc, path, "schema_version", int)
    if version != SCHEMA_VERSION:
        fail(path, f"schema_version {version} != expected {SCHEMA_VERSION}")
    require(doc, path, "benchmark", str)
    if not require(doc, path, "git_sha", str):
        fail(path, "git_sha is empty")
    stamp = require(doc, path, "timestamp_utc", str)
    if not TIMESTAMP_RE.match(stamp):
        fail(path, f"timestamp_utc '{stamp}' is not ISO 8601 UTC")
    if require(doc, path, "hardware_threads", int) < 1:
        fail(path, "hardware_threads < 1")
    if not require(doc, path, "build_flags", str):
        fail(path, "build_flags is empty")
    backend = require(doc, path, "probe_backend", str)
    if backend not in PROBE_BACKENDS:
        fail(path, f"unknown probe_backend '{backend}'")


def check_bench_speed(doc, path):
    probe = require(doc, path, "probe_throughput", list)
    if not probe:
        fail(path, "probe_throughput is empty")
    backends = set()
    for entry in probe:
        if not isinstance(entry, dict):
            fail(path, "probe_throughput entry is not an object")
        backend = entry.get("backend")
        if backend not in PROBE_BACKENDS:
            fail(path, f"probe_throughput backend '{backend}' unknown")
        if not isinstance(entry.get("insert_mops"), (int, float)):
            fail(path, f"probe_throughput[{backend}] missing insert_mops")
        backends.add(backend)
    if "scalar" not in backends:
        fail(path, "probe_throughput lacks the scalar baseline")
    guard = require(doc, path, "sink_guard", dict)
    for field in ("sink_off_mops", "sink_on_mops", "overhead_pct"):
        if not isinstance(guard.get(field), (int, float)):
            fail(path, f"sink_guard missing numeric '{field}'")
    if not isinstance(guard.get("sink_compiled"), bool):
        fail(path, "sink_guard missing boolean 'sink_compiled'")
    topk = require(doc, path, "topk", dict)
    for field in ("table_bytes", "k", "occupied_cells", "topk_us",
                  "clone_us"):
        if not isinstance(topk.get(field), (int, float)):
            fail(path, f"topk missing numeric '{field}'")
    if topk["table_bytes"] != 262144 or topk["k"] != 100:
        fail(path, "topk must time k=100 on the 262144-byte serve table")
    # One TopK is one pass over the table plus O(k log k); a clone is one
    # copy of it. A full sort of the table measured 175-310x.
    if topk["clone_us"] <= 0 or topk["topk_us"] > TOPK_CLONE_RATIO * topk[
            "clone_us"]:
        fail(path, f"topk_us {topk['topk_us']} > {TOPK_CLONE_RATIO} x "
             f"clone_us {topk['clone_us']}")


def check_bench_ingest(doc, path):
    results = require(doc, path, "results", list)
    if not results:
        fail(path, "results is empty")
    modes = set()
    for entry in results:
        if not isinstance(entry, dict):
            fail(path, "results entry is not an object")
        for field, kind in (("mode", str), ("shards", int)):
            if not isinstance(entry.get(field), kind):
                fail(path, f"results entry missing {kind.__name__} '{field}'")
        if not isinstance(entry.get("mops"), (int, float)):
            fail(path, "results entry missing numeric 'mops'")
        modes.add(entry["mode"])
    for mode in ("single_ltc_batch", "sharded_sequential", "pipeline"):
        if mode not in modes:
            fail(path, f"results lack mode '{mode}'")
    # The incremental-vs-monolithic checkpoint section is optional
    # (older trajectory files predate it) but, when present, must carry
    # both modes with numeric byte/time fields.
    if "checkpoint" in doc:
        rows = doc["checkpoint"]
        if not isinstance(rows, list) or not rows:
            fail(path, "'checkpoint' is not a non-empty list")
        ckpt_modes = set()
        for entry in rows:
            if not isinstance(entry, dict):
                fail(path, "checkpoint entry is not an object")
            if not isinstance(entry.get("mode"), str):
                fail(path, "checkpoint entry missing str 'mode'")
            for field in ("checkpoints", "bytes_written", "wall_usec",
                          "bytes_per_checkpoint"):
                if not isinstance(entry.get(field), (int, float)):
                    fail(path, f"checkpoint entry missing numeric '{field}'")
            ckpt_modes.add(entry["mode"])
        for mode in ("monolithic_snapshot", "paged_incremental"):
            if mode not in ckpt_modes:
                fail(path, f"checkpoint section lacks mode '{mode}'")


CHECKS = {
    "bench_speed": check_bench_speed,
    "bench_ingest": check_bench_ingest,
}


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            fail(path, f"unreadable or invalid JSON: {err}")
        check_header(doc, path)
        benchmark = doc["benchmark"]
        if benchmark not in CHECKS:
            fail(path, f"unknown benchmark '{benchmark}'")
        CHECKS[benchmark](doc, path)
        print(f"{path}: ok ({benchmark}, schema v{doc['schema_version']}, "
              f"probe {doc['probe_backend']}, sha {doc['git_sha']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
