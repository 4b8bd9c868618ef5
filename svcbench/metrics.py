"""Turns the driver's raw run record into the benchmark's metrics.

Pure functions only, so test_metrics.py can check the maths without a
daemon: percentile selection, metric-name validation, self time from
nested (possibly overlapping) spans, and the before/after diff of the
daemon's `stats` registry.
"""

import math
import re

MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it
TAIL_PERCENTILE = 90
MIN_OPS = 100  # = the least n for which p90 has MIN_BEYOND samples beyond

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# (name, unit, better).  The JSON result line of an untraced run carries
# exactly END_TO_END; error_rate and false_hit_rate are printed with them
# but are 0 on a healthy build, so no relative bound can be set on them
# (failures also reach the driver through `failed` and `correct`).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
REPORTED_ONLY = [
    ("error_rate", "ratio", "lower"),
    ("false_hit_rate", "ratio", "lower"),
]

REQUEST_TYPES = ["load_design", "load_schedule", "embed", "detect", "pc", "evict"]

# Per-layer metrics of a traced run.  Times and counts are per operation
# (live operations for client and daemon figures, replayed operations for
# replay figures), so runs of different lengths compare.
PER_LAYER = (
    [(f"serve.{t}_ms_p50", "ms", "lower") for t in REQUEST_TYPES]
    + [
        ("serve.handler_ms", "ms", "lower"),
        ("serve.transport_ms", "ms", "lower"),
        ("serve.frame_encode_ms", "ms", "lower"),
        ("serve.frame_decode_ms", "ms", "lower"),
        ("serve.request_bytes", "bytes", "lower"),
        ("serve.response_bytes", "bytes", "lower"),
        ("serve.store_hits", "count", "higher"),
        ("serve.store_misses", "count", "lower"),
        ("serve.store_evictions", "count", "lower"),
        ("serve.store_build_ms", "ms", "lower"),
        ("cdfg.parse_ms", "ms", "lower"),
        ("cdfg.parse_mb_per_s", "MB/s", "higher"),
        ("cdfg.timing_build_ms", "ms", "lower"),
        ("cdfg.timing_pushes", "count", "lower"),
        ("sched.parse_ms", "ms", "lower"),
        ("sched.parse_lines_per_s", "lines/s", "higher"),
        ("sched.witness_ms", "ms", "lower"),
        ("sched.serialize_ms", "ms", "lower"),
        ("wm.records_parse_ms", "ms", "lower"),
        ("wm.detect_ms", "ms", "lower"),
        ("wm.roots_scanned", "count", "lower"),
        ("wm.domains_carved", "count", "lower"),
        ("wm.prefilter_skips", "count", "higher"),
        ("wm.prefilter_skip_ratio", "ratio", "higher"),
        ("wm.hits_per_carve", "ratio", "higher"),
        ("wm.domain_size_mean", "count", "lower"),
        ("wm.embed_ms", "ms", "lower"),
        ("wm.plan_ms", "ms", "lower"),
        ("wm.plan_accept_ratio", "ratio", "higher"),
        ("wm.pc_ms", "ms", "lower"),
        ("wm.pc_poisson_calls", "count", "lower"),
        ("wm.pc_exact_calls", "count", "lower"),
        ("wm.records_serialize_ms", "ms", "lower"),
        ("exec.tasks_run", "count", "lower"),
        ("exec.tasks_stolen", "count", "lower"),
        ("exec.idle_share", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
)


def valid_name(name):
    """A metric name: a letter or digit, then letters, digits, _ . -; <= 64."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def tail_percentile(n, beyond=MIN_BEYOND):
    """Highest whole percentile p whose nearest-rank sample has at least
    `beyond` samples after it among n; None when n leaves no such p."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list (p in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered_time(spans):
    """Per span id, the part of its interval its children cover.  Children
    may overlap each other (parallel lanes) and are clipped to the parent."""
    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        lo = max(s["start"], parent["start"])
        hi = min(s["start"] + s["dur"], parent["start"] + parent["dur"])
        if hi > lo:
            kids.setdefault(parent["id"], []).append((lo, hi))
    return {sid: union_length(kids.get(sid, [])) for sid in by_id}


def self_times(spans):
    """Self time summed per span name: duration minus child-covered time."""
    covered = covered_time(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + s["dur"] - covered[s["id"]]
    return out


def coverage(spans, prefix="replay."):
    """Share of the time of spans named `prefix*` that their children cover."""
    covered = covered_time(spans)
    total = sum(s["dur"] for s in spans if s["name"].startswith(prefix))
    inside = sum(covered[s["id"]] for s in spans if s["name"].startswith(prefix))
    return inside / total if total else 0.0


def stats_diff(before, after):
    """Difference of two `stats` frames of the daemon.

    Returns {"store": {...}, "counters": {...}, "histograms": {name:
    {"count", "sum"}}, "spans": {name: {"count", "total_ms"}}}; a name that
    first appears in `after` counts from 0.  Histogram max is not
    diffable and is dropped.
    """
    def sub(a, b, key):
        return a.get(key, 0) - b.get(key, 0)

    out = {"store": {}, "counters": {}, "histograms": {}, "spans": {}}
    for key, value in after.items():
        if isinstance(value, (int, float)):
            out["store"][key] = value - before.get(key, 0)
    obs_a = after.get("obs") or {}
    obs_b = before.get("obs") or {}
    for name, value in obs_a.get("counters", {}).items():
        out["counters"][name] = value - obs_b.get("counters", {}).get(name, 0)
    for name, h in obs_a.get("histograms", {}).items():
        hb = obs_b.get("histograms", {}).get(name, {})
        out["histograms"][name] = {"count": sub(h, hb, "count"), "sum": sub(h, hb, "sum")}
    for name, sp in obs_a.get("spans", {}).items():
        sb = obs_b.get("spans", {}).get(name, {})
        out["spans"][name] = {"count": sub(sp, sb, "count"),
                              "total_ms": sub(sp, sb, "total_ms")}
    return out


def span_dicts(raw_spans):
    keys = ("name", "id", "parent", "lane", "op", "start", "dur", "a", "b")
    return [dict(zip(keys, s)) for s in raw_spans]


class TooFewOps(Exception):
    pass


def end_to_end(record):
    """End-to-end metrics of an untraced run: name -> (value, unit)."""
    ops = record["ops"]
    n = len(ops)
    if n < MIN_OPS:
        raise TooFewOps(f"{record['workload']}: {n} operations completed, "
                        f"p{TAIL_PERCENTILE} needs at least {MIN_OPS}")
    # A failed operation misses every latency limit.
    lat_ms = [op[4] / 1e6 if op[5] else math.inf for op in ops]
    setup = sorted(record["setup_s"])
    trials = record["false_trials"]
    values = {
        "setup_s": setup[len(setup) // 2],
        "ops_per_s": sum(op[5] for op in ops) / (record["phase_ns"] / 1e9),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, TAIL_PERCENTILE),
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
        "error_rate": record["failed"] / n,
        "false_hit_rate": record["false_hits"] / trials if trials else 0.0,
    }
    return {name: (values[name], unit) for name, unit, _ in END_TO_END + REPORTED_ONLY}


def per_layer(record):
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    spans = span_dicts(record["spans"])
    live_ops = max(1, len(record["ops"]))
    replayed = max(1, record["replayed_ops"])
    diff = stats_diff(record["stats_before"], record["stats_after"])
    ctr = diff["counters"]
    dspan = diff["spans"]

    def total_ns(name):
        return sum(s["dur"] for s in spans if s["name"] == name)

    def replay_ms(name):
        return total_ns(name) / 1e6 / replayed

    def per_op(value):
        return value / live_ops

    def ratio(num, den):
        return num / den if den else 0.0

    calls = [s for s in spans if s["name"].startswith("call.")]
    v = {}
    for t in REQUEST_TYPES:
        rtts = [s["dur"] / 1e6 for s in calls if s["name"] == "call." + t]
        v[f"serve.{t}_ms_p50"] = percentile(rtts, 50) if rtts else 0.0
    handler_ms = dspan.get("serve/request", {}).get("total_ms", 0.0)
    rtt_ms = sum(s["dur"] for s in calls) / 1e6
    v["serve.handler_ms"] = per_op(handler_ms)
    v["serve.transport_ms"] = per_op(rtt_ms - handler_ms)
    v["serve.frame_encode_ms"] = replay_ms("serve.frame_encode")
    v["serve.frame_decode_ms"] = replay_ms("serve.frame_decode")
    v["serve.request_bytes"] = per_op(sum(s["a"] for s in calls))
    v["serve.response_bytes"] = per_op(sum(s["b"] for s in calls))
    v["serve.store_hits"] = per_op(ctr.get("serve/store_hits", 0))
    v["serve.store_misses"] = per_op(ctr.get("serve/store_misses", 0))
    v["serve.store_evictions"] = per_op(ctr.get("serve/store_evictions", 0))
    v["serve.store_build_ms"] = replay_ms("serve.store_load") - replay_ms("cdfg.parse")

    parse_ns = total_ns("cdfg.parse")
    parse_bytes = sum(s["a"] for s in spans if s["name"] == "cdfg.parse")
    v["cdfg.parse_ms"] = replay_ms("cdfg.parse")
    v["cdfg.parse_mb_per_s"] = ratio(parse_bytes / 1e6, parse_ns / 1e9)
    v["cdfg.timing_build_ms"] = per_op(dspan.get("cdfg/timing_build", {}).get("total_ms", 0.0))
    v["cdfg.timing_pushes"] = per_op(ctr.get("cdfg/timing_pushes", 0))

    sparse_ns = total_ns("sched.parse")
    lines = sum(s["a"] for s in spans if s["name"] == "sched.parse")
    v["sched.parse_ms"] = replay_ms("sched.parse")
    v["sched.parse_lines_per_s"] = ratio(lines, sparse_ns / 1e9)
    v["sched.witness_ms"] = replay_ms("sched.witness")
    v["sched.serialize_ms"] = replay_ms("sched.serialize")

    roots = ctr.get("wm/roots_scanned", 0)
    skips = ctr.get("wm/detect_prefilter_skips", 0)
    carved = ctr.get("wm/domains_carved", 0)
    dom = diff["histograms"].get("wm/domain_size", {})
    v["wm.records_parse_ms"] = replay_ms("wm.records_parse")
    v["wm.detect_ms"] = replay_ms("wm.detect")
    v["wm.roots_scanned"] = per_op(roots)
    v["wm.domains_carved"] = per_op(carved)
    v["wm.prefilter_skips"] = per_op(skips)
    v["wm.prefilter_skip_ratio"] = ratio(skips, roots)
    v["wm.hits_per_carve"] = ratio(record["full_hits"], carved)
    v["wm.domain_size_mean"] = ratio(dom.get("sum", 0), dom.get("count", 0))
    v["wm.embed_ms"] = replay_ms("wm.embed")
    v["wm.plan_ms"] = per_op(dspan.get("wm/plan", {}).get("total_ms", 0.0))
    v["wm.plan_accept_ratio"] = ratio(ctr.get("wm/localities_planned", 0),
                                      ctr.get("wm/embed_plan_candidates", 0))
    v["wm.pc_ms"] = per_op(sum(sp["total_ms"] for name, sp in dspan.items()
                               if name.startswith("wm/pc_")))
    v["wm.pc_poisson_calls"] = per_op(ctr.get("wm/pc_auto_poisson", 0))
    v["wm.pc_exact_calls"] = per_op(ctr.get("wm/pc_auto_exact", 0))
    v["wm.records_serialize_ms"] = replay_ms("wm.records_serialize")

    # The pool's worker threads are the ones that can idle: a pool of
    # concurrency c has c - 1 of them (the caller is the c-th lane).
    workers = max(1, record["serve_threads"] - 1)
    v["exec.tasks_run"] = per_op(ctr.get("exec/tasks_run", 0))
    v["exec.tasks_stolen"] = per_op(ctr.get("exec/tasks_stolen", 0))
    v["exec.idle_share"] = ratio(ctr.get("exec/idle_ns", 0), workers * record["phase_ns"])
    v["trace.coverage"] = coverage(spans)
    return {name: (v[name], unit) for name, unit, _ in PER_LAYER}


def result_line(record, metrics, names):
    """The benchmark's final JSON object."""
    return {
        "correct": record["failed"] == 0,
        "attempted": len(record["ops"]),
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
