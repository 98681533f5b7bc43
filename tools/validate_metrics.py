#!/usr/bin/env python3
"""Validate xmodel observability artifacts.

Checks every file argument and exits nonzero on the first problem:

- Metrics snapshots (schema "xmodel.metrics.v1"): the `metrics` object must
  hold counter/gauge entries with a numeric `value`, and histogram entries
  whose bucket counts line up with their edges and total `count`.
- Bench reports (same schema plus a `bench` member, as written by
  bench/bench_util.h): additionally require `quick`, `exit_code`,
  `wall_seconds`, and a `results` object.
- Chrome trace files (a `traceEvents` member, as written by
  SpanTracer::WriteChromeJson): every event needs name/ph/ts/dur/pid/tid,
  with ph == "X" and non-negative ts/dur.
- Checker-family sanity (any snapshot containing checker.* metrics):
  `checker.fingerprint.load` must be a finite gauge in [0, 0.875] (the
  sharded fingerprint table's records per slot, which growth keeps at or
  below 7/8) and
  `checker.workers.used` at least 1; `checker.worker<N>.expansions`
  per-worker counters must carry a well-formed worker index.
- Value-family sanity (any snapshot containing value.intern.* metrics):
  the intern-table gauges `value.intern.{hits,misses,live,bytes}` must all
  be present together, finite, and non-negative, with `live` never
  exceeding `misses` (every live rep was a miss once); when present,
  `checker.alloc.values_per_state` must be a finite non-negative gauge.
- Graph-family sanity (any snapshot containing checker.graph.* metrics):
  the recorded-graph gauges `checker.graph.{nodes,edges,dup_edges}` must
  all be present together, finite, and non-negative, with `dup_edges`
  never exceeding `edges` (a duplicate edge is still an edge).
- MBTCG-family sanity (any snapshot containing mbtcg.extract.* metrics):
  the extraction gauges `mbtcg.extract.{roots,cases,seconds}` must all be
  present together, finite, and non-negative.
- Worker-profile sanity (any snapshot containing the idle-time profiler's
  checker.worker<N>.{busy_ms,barrier_wait_ms,steal_ms,starve_ms} gauges):
  each worker index must be well-formed, every gauge finite and
  non-negative, and every profiled worker must carry busy_ms. A worker
  without barrier_wait_ms is only legal for a relaxed run — checker.policy
  must be present as 1 and the worker must carry the steal_ms/starve_ms
  pair instead. `checker.barrier.settle_ms` must be a finite non-negative
  gauge and `checker.barrier.idle_fraction` / `checker.idle_fraction`
  finite gauges in [0, 1].
- Exploration-policy sanity (any snapshot containing checker.policy or
  checker.worker<N>.steals): `checker.policy` must be a gauge valued 0
  (level) or 1 (relaxed); steal counters must carry well-formed, dense
  worker indexes and be finite and non-negative; a nonzero steal count
  requires checker.policy == 1 (level-sync never steals — a zero-valued
  steals family with policy 0 is legal, it is a relaxed registration left
  behind by a registry reset).
- Obs-HTTP sanity (any snapshot containing obs.http.* metrics): the
  `obs.http.{requests,bytes}` counters are published together and
  non-negative.
- Prometheus scrape bodies (non-JSON files, e.g. a saved `curl /metrics`):
  every sample line must parse as `name value`, every name must carry a
  preceding `# TYPE` declaration (histogram samples may use the
  `_bucket`/`_sum`/`_count` suffixes and a `{le="..."}` label), and the
  same per-family sanity checks run on the flattened counter/gauge values.
- Spill-family sanity (any snapshot containing checker.spill.* metrics):
  the out-of-core tier's core family `checker.spill.{bytes,
  frontier_segments,runs,probe_ms,merge_ms}` is flushed in one call, so
  the five must appear together — `bytes`/`frontier_segments` as
  counters, the rest as gauges, all finite and non-negative.
  The compaction family `checker.spill.compact.{count,ms,backlog}`
  (count counter, ms/backlog gauges) is all-or-nothing and requires the
  core family — the same flush publishes both. `checker.spill.generations`
  (end-of-run only) and the checkpoint pair `checker.checkpoint.{writes,
  ms}` additionally require the core family: checkpointing implies
  spilling. When one invocation validates several Prometheus scrape
  bodies of the SAME serving process (pass them in scrape order, as the
  obs-live CI job does), the monotone spill counters
  `checker_spill_bytes` / `checker_spill_frontier_segments` /
  `checker_spill_compact_count` / `checker_checkpoint_writes` must
  never move backwards between scrapes.
- Domain-family sanity (any snapshot containing analysis.domain.* metrics):
  per spec, the gauges `analysis.domain.<spec>.{state_bound,
  observed_distinct, unbounded_vars, exhaustive}` must appear together,
  finite and non-negative, with `exhaustive` boolean; `unbounded_vars > 0`
  forces `state_bound == 0` (the "unbounded" encoding), and an exhaustive
  probe with no unbounded variables must report a budget that is >= 1 and
  covers the observed distinct count.

Usage: tools/validate_metrics.py FILE [FILE...]
"""

import math

import json
import re
import sys

# FingerprintSet doubles a shard's slot array before its load passes 7/8.
MAX_FINGERPRINT_LOAD = 0.875


def fail(path, message):
    print(f"validate_metrics: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def require(cond, path, message):
    if not cond:
        fail(path, message)


def validate_metric(path, name, entry):
    require(isinstance(entry, dict), path, f"metric {name!r} is not an object")
    kind = entry.get("kind")
    if kind in ("counter", "gauge"):
        require(isinstance(entry.get("value"), (int, float)), path,
                f"metric {name!r} has no numeric 'value'")
        if kind == "counter":
            require(entry["value"] >= 0, path,
                    f"counter {name!r} is negative: {entry['value']}")
    elif kind == "histogram":
        count = entry.get("count")
        buckets = entry.get("buckets")
        le = entry.get("le")
        require(isinstance(count, int) and count >= 0, path,
                f"histogram {name!r} has no non-negative 'count'")
        require(isinstance(entry.get("sum"), (int, float)), path,
                f"histogram {name!r} has no numeric 'sum'")
        require(isinstance(buckets, list) and isinstance(le, list), path,
                f"histogram {name!r} needs 'buckets' and 'le' arrays")
        require(len(buckets) == len(le) + 1, path,
                f"histogram {name!r}: {len(buckets)} buckets for "
                f"{len(le)} edges (want edges + 1 for +Inf)")
        require(le == sorted(le), path,
                f"histogram {name!r}: 'le' edges are not ascending")
        require(all(isinstance(b, int) and b >= 0 for b in buckets), path,
                f"histogram {name!r}: bucket counts must be non-negative ints")
        require(sum(buckets) == count, path,
                f"histogram {name!r}: buckets sum to {sum(buckets)}, "
                f"count says {count}")
    else:
        fail(path, f"metric {name!r} has unknown kind {kind!r}")


def validate_checker_family(path, metrics):
    """Cross-metric sanity for the parallel checker's checker.* family."""
    load = metrics.get("checker.fingerprint.load")
    if load is not None:
        require(load.get("kind") == "gauge", path,
                "checker.fingerprint.load must be a gauge")
        value = load.get("value")
        require(isinstance(value, (int, float)) and math.isfinite(value)
                and 0 <= value <= MAX_FINGERPRINT_LOAD, path,
                f"checker.fingerprint.load must be finite and in "
                f"[0, {MAX_FINGERPRINT_LOAD}], got {value!r}")
    workers = metrics.get("checker.workers.used")
    if workers is not None:
        require(workers.get("kind") == "gauge", path,
                "checker.workers.used must be a gauge")
        require(workers.get("value", 0) >= 1, path,
                f"checker.workers.used must be >= 1, "
                f"got {workers.get('value')!r}")
    for name, entry in metrics.items():
        if name.startswith("checker.worker") and \
                name.endswith(".expansions"):
            index = name[len("checker.worker"):-len(".expansions")]
            require(index.isdigit(), path,
                    f"per-worker counter {name!r} has a malformed "
                    f"worker index {index!r}")
            require(entry.get("kind") == "counter", path,
                    f"{name!r} must be a counter")


def validate_value_family(path, metrics):
    """Cross-metric sanity for the interned value layer's value.* family."""
    intern_names = [f"value.intern.{leaf}"
                    for leaf in ("hits", "misses", "live", "bytes")]
    present = [name for name in intern_names if name in metrics]
    if present:
        missing = [name for name in intern_names if name not in metrics]
        require(not missing, path,
                f"intern gauges are published together; missing {missing}")
        for name in intern_names:
            entry = metrics[name]
            require(entry.get("kind") == "gauge", path,
                    f"{name!r} must be a gauge")
            value = entry.get("value")
            require(isinstance(value, (int, float)) and math.isfinite(value)
                    and value >= 0, path,
                    f"{name!r} must be finite and >= 0, got {value!r}")
        require(metrics["value.intern.live"]["value"] <=
                metrics["value.intern.misses"]["value"], path,
                "value.intern.live exceeds value.intern.misses — every "
                "live rep must have been interned by a miss")
    per_state = metrics.get("checker.alloc.values_per_state")
    if per_state is not None:
        require(per_state.get("kind") == "gauge", path,
                "checker.alloc.values_per_state must be a gauge")
        value = per_state.get("value")
        require(isinstance(value, (int, float)) and math.isfinite(value)
                and value >= 0, path,
                f"checker.alloc.values_per_state must be finite and >= 0, "
                f"got {value!r}")


def _policy_value(metrics):
    """checker.policy's value, or None when the gauge is absent."""
    policy = metrics.get("checker.policy")
    return policy.get("value") if policy is not None else None


def validate_worker_profile_family(path, metrics):
    """Cross-metric sanity for the worker idle-time profiler's gauges."""
    leaves = (".busy_ms", ".barrier_wait_ms", ".steal_ms", ".starve_ms")
    profiled = {}
    for name, entry in metrics.items():
        if not name.startswith("checker.worker"):
            continue
        for leaf in leaves:
            if name.endswith(leaf):
                index = name[len("checker.worker"):-len(leaf)]
                require(index.isdigit(), path,
                        f"per-worker gauge {name!r} has a malformed "
                        f"worker index {index!r}")
                require(entry.get("kind") == "gauge", path,
                        f"{name!r} must be a gauge")
                value = entry.get("value")
                require(isinstance(value, (int, float))
                        and math.isfinite(value) and value >= 0, path,
                        f"{name!r} must be finite and >= 0, got {value!r}")
                profiled.setdefault(int(index), set()).add(leaf)
    for index, worker_leaves in sorted(profiled.items()):
        require(".busy_ms" in worker_leaves, path,
                f"worker {index} publishes {sorted(worker_leaves)} without "
                f"busy_ms; every profiled worker is timed")
        require((".steal_ms" in worker_leaves) ==
                (".starve_ms" in worker_leaves), path,
                f"worker {index} publishes only one of steal_ms/starve_ms; "
                f"the relaxed profile publishes them together")
        if ".barrier_wait_ms" not in worker_leaves:
            # Only a relaxed run profiles without barriers, and it must
            # say so via checker.policy and the steal/starve pair.
            require(_policy_value(metrics) == 1, path,
                    f"worker {index} has busy_ms but no barrier_wait_ms "
                    f"and checker.policy is not 1 — only a relaxed run "
                    f"may omit the barrier profile")
            require(".steal_ms" in worker_leaves, path,
                    f"worker {index} omits barrier_wait_ms (relaxed) but "
                    f"publishes no steal_ms/starve_ms pair")
    if profiled:
        require(sorted(profiled) == list(range(len(profiled))), path,
                f"worker profile indexes are not dense from 0: "
                f"{sorted(profiled)}")
    settle = metrics.get("checker.barrier.settle_ms")
    if settle is not None:
        value = settle.get("value")
        require(settle.get("kind") == "gauge" and
                isinstance(value, (int, float)) and math.isfinite(value)
                and value >= 0, path,
                f"checker.barrier.settle_ms must be a finite non-negative "
                f"gauge, got {value!r}")
    for name in ("checker.barrier.idle_fraction", "checker.idle_fraction"):
        idle = metrics.get(name)
        if idle is not None:
            require(idle.get("kind") == "gauge", path,
                    f"{name} must be a gauge")
            value = idle.get("value")
            require(isinstance(value, (int, float)) and math.isfinite(value)
                    and 0 <= value <= 1, path,
                    f"{name} must be finite in [0, 1], got {value!r}")


def validate_policy_family(path, metrics):
    """Exploration-policy sanity: checker.policy + the steal counters."""
    policy_value = _policy_value(metrics)
    if "checker.policy" in metrics:
        require(metrics["checker.policy"].get("kind") == "gauge", path,
                "checker.policy must be a gauge")
        require(policy_value in (0, 1), path,
                f"checker.policy must be 0 (level) or 1 (relaxed), "
                f"got {policy_value!r}")
    steals = {}
    for name, entry in metrics.items():
        if name.startswith("checker.worker") and name.endswith(".steals"):
            index = name[len("checker.worker"):-len(".steals")]
            require(index.isdigit(), path,
                    f"steal counter {name!r} has a malformed worker "
                    f"index {index!r}")
            require(entry.get("kind") == "counter", path,
                    f"{name!r} must be a counter")
            value = entry.get("value")
            require(isinstance(value, (int, float)) and math.isfinite(value)
                    and value >= 0, path,
                    f"{name!r} must be finite and >= 0, got {value!r}")
            steals[int(index)] = value
    if steals:
        require(sorted(steals) == list(range(len(steals))), path,
                f"steal counter indexes are not dense from 0: "
                f"{sorted(steals)}")
        require("checker.policy" in metrics, path,
                "checker.worker<N>.steals without checker.policy — the "
                "relaxed engine publishes both")
        if any(value > 0 for value in steals.values()):
            require(policy_value == 1, path,
                    f"nonzero steal counts with checker.policy == "
                    f"{policy_value!r} — level-sync never steals")


def validate_obs_http_family(path, metrics):
    """Cross-metric sanity for the HTTP scrape endpoint's obs.http.*."""
    names = ["obs.http.requests", "obs.http.bytes"]
    present = [name for name in names if name in metrics]
    if not present:
        return
    missing = [name for name in names if name not in metrics]
    require(not missing, path,
            f"obs.http.* counters are published together; missing {missing}")
    for name in names:
        entry = metrics[name]
        require(entry.get("kind") == "counter", path,
                f"{name!r} must be a counter")
        value = entry.get("value")
        require(isinstance(value, (int, float)) and math.isfinite(value)
                and value >= 0, path,
                f"{name!r} must be finite and >= 0, got {value!r}")


def require_gauge_family(path, metrics, names):
    """Asserts `names` appear all-or-nothing as finite non-negative gauges."""
    present = [name for name in names if name in metrics]
    if not present:
        return False
    missing = [name for name in names if name not in metrics]
    require(not missing, path,
            f"{present[0].rsplit('.', 1)[0]}.* gauges are published "
            f"together; missing {missing}")
    for name in names:
        entry = metrics[name]
        require(entry.get("kind") == "gauge", path, f"{name!r} must be a gauge")
        value = entry.get("value")
        require(isinstance(value, (int, float)) and math.isfinite(value)
                and value >= 0, path,
                f"{name!r} must be finite and >= 0, got {value!r}")
    return True


def validate_graph_family(path, metrics):
    """Cross-metric sanity for the state graph's checker.graph.* family."""
    names = [f"checker.graph.{leaf}"
             for leaf in ("nodes", "edges", "dup_edges")]
    if require_gauge_family(path, metrics, names):
        require(metrics["checker.graph.dup_edges"]["value"] <=
                metrics["checker.graph.edges"]["value"], path,
                "checker.graph.dup_edges exceeds checker.graph.edges — a "
                "duplicate edge is still an edge")


def validate_mbtcg_family(path, metrics):
    """Cross-metric sanity for test-case extraction's mbtcg.extract.*."""
    names = [f"mbtcg.extract.{leaf}"
             for leaf in ("roots", "cases", "seconds")]
    require_gauge_family(path, metrics, names)


_SPILL_CORE = {
    "checker.spill.bytes": "counter",
    "checker.spill.frontier_segments": "counter",
    "checker.spill.runs": "gauge",
    "checker.spill.probe_ms": "gauge",
    "checker.spill.merge_ms": "gauge",
}

# Published by the same flush as the core family, but validated as its
# own all-or-nothing group so older snapshots (pre background
# compaction) stay valid.
_SPILL_COMPACT = {
    "checker.spill.compact.count": "counter",
    "checker.spill.compact.ms": "gauge",
    "checker.spill.compact.backlog": "gauge",
}


def validate_spill_family(path, metrics):
    """Cross-metric sanity for the out-of-core checker.spill.* family.

    FlushSpillMetrics publishes the five core metrics in one call, so
    they are all-or-nothing; checker.spill.generations only lands in the
    final end-of-run flush, and the checker.checkpoint.* pair only when a
    checkpoint directory was configured — both imply the core family.
    """
    present = [name for name in _SPILL_CORE if name in metrics]
    core = bool(present)
    if core:
        missing = [name for name in _SPILL_CORE if name not in metrics]
        require(not missing, path,
                f"checker.spill.* core metrics are flushed together; "
                f"missing {missing}")
        for name, kind in _SPILL_CORE.items():
            entry = metrics[name]
            require(entry.get("kind") == kind, path,
                    f"{name!r} must be a {kind}")
            value = entry.get("value")
            require(isinstance(value, (int, float)) and math.isfinite(value)
                    and value >= 0, path,
                    f"{name!r} must be finite and >= 0, got {value!r}")
    if any(name in metrics for name in _SPILL_COMPACT):
        missing = [name for name in _SPILL_COMPACT if name not in metrics]
        require(not missing, path,
                f"checker.spill.compact.* metrics are published together; "
                f"missing {missing}")
        require(core, path,
                "checker.spill.compact.* without the core checker.spill.* "
                "family — the same flush publishes both")
        for name, kind in _SPILL_COMPACT.items():
            entry = metrics[name]
            require(entry.get("kind") == kind, path,
                    f"{name!r} must be a {kind}")
            value = entry.get("value")
            require(isinstance(value, (int, float)) and math.isfinite(value)
                    and value >= 0, path,
                    f"{name!r} must be finite and >= 0, got {value!r}")
    generations = metrics.get("checker.spill.generations")
    if generations is not None:
        require(core, path,
                "checker.spill.generations without the core checker.spill.* "
                "family — the final flush publishes both")
        require(generations.get("kind") == "gauge", path,
                "checker.spill.generations must be a gauge")
        value = generations.get("value")
        require(isinstance(value, (int, float)) and math.isfinite(value)
                and value >= 0, path,
                f"checker.spill.generations must be finite and >= 0, "
                f"got {value!r}")
    ckpt_kinds = {"checker.checkpoint.writes": "counter",
                  "checker.checkpoint.ms": "gauge"}
    ckpt_present = [name for name in ckpt_kinds if name in metrics]
    if ckpt_present:
        missing = [name for name in ckpt_kinds if name not in metrics]
        require(not missing, path,
                f"checker.checkpoint.* metrics are published together; "
                f"missing {missing}")
        require(core, path,
                "checker.checkpoint.* without the core checker.spill.* "
                "family — checkpointing implies spilling")
        for name, kind in ckpt_kinds.items():
            entry = metrics[name]
            require(entry.get("kind") == kind, path,
                    f"{name!r} must be a {kind}")
            value = entry.get("value")
            require(isinstance(value, (int, float)) and math.isfinite(value)
                    and value >= 0, path,
                    f"{name!r} must be finite and >= 0, got {value!r}")


def validate_domain_family(path, metrics):
    """Cross-metric sanity for the abstract-domain analysis.domain.*."""
    leaves = ("state_bound", "observed_distinct", "unbounded_vars",
              "exhaustive")
    specs = set()
    for name in metrics:
        if not name.startswith("analysis.domain."):
            continue
        rest = name[len("analysis.domain."):]
        spec, _, leaf = rest.rpartition(".")
        require(spec and leaf in leaves, path,
                f"unknown analysis.domain gauge {name!r}")
        specs.add(spec)
    for spec in sorted(specs):
        names = [f"analysis.domain.{spec}.{leaf}" for leaf in leaves]
        require_gauge_family(path, metrics, names)
        bound = metrics[names[0]]["value"]
        observed = metrics[names[1]]["value"]
        unbounded = metrics[names[2]]["value"]
        exhaustive = metrics[names[3]]["value"]
        require(exhaustive in (0, 1), path,
                f"{names[3]!r} must be 0 or 1, got {exhaustive!r}")
        if unbounded > 0:
            require(bound == 0, path,
                    f"{spec}: {unbounded} unbounded variable(s) but "
                    f"state_bound is {bound}, want the 0 'unbounded' "
                    f"encoding")
        elif exhaustive == 1:
            require(bound >= 1, path,
                    f"{spec}: exhaustive probe with no unbounded variables "
                    f"must report a budget >= 1, got {bound}")
            require(bound >= observed, path,
                    f"{spec}: static budget {bound} is below the observed "
                    f"distinct count {observed} — the bound is unsound")


def validate_metrics_doc(path, doc):
    require(doc.get("schema") == "xmodel.metrics.v1", path,
            f"unexpected schema {doc.get('schema')!r}")
    metrics = doc.get("metrics")
    require(isinstance(metrics, dict), path, "'metrics' is not an object")
    for name, entry in metrics.items():
        validate_metric(path, name, entry)
    validate_families(path, metrics)
    return len(metrics)


def validate_families(path, metrics):
    """Runs every cross-metric family check over a name -> entry dict."""
    validate_checker_family(path, metrics)
    validate_worker_profile_family(path, metrics)
    validate_policy_family(path, metrics)
    validate_obs_http_family(path, metrics)
    validate_value_family(path, metrics)
    validate_graph_family(path, metrics)
    validate_mbtcg_family(path, metrics)
    validate_spill_family(path, metrics)
    validate_domain_family(path, metrics)


def validate_bench_doc(path, doc):
    n = validate_metrics_doc(path, doc)
    require(isinstance(doc.get("bench"), str) and doc["bench"], path,
            "'bench' must be a non-empty string")
    require(isinstance(doc.get("quick"), bool), path, "'quick' must be a bool")
    require(isinstance(doc.get("exit_code"), int), path,
            "'exit_code' must be an int")
    require(isinstance(doc.get("wall_seconds"), (int, float)), path,
            "'wall_seconds' must be numeric")
    require(isinstance(doc.get("results"), dict), path,
            "'results' must be an object")
    return f"bench {doc['bench']}: {n} metrics, {len(doc['results'])} results"


def validate_trace_doc(path, doc):
    events = doc.get("traceEvents")
    require(isinstance(events, list), path, "'traceEvents' is not an array")
    for i, event in enumerate(events):
        require(isinstance(event, dict), path, f"event {i} is not an object")
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            require(key in event, path, f"event {i} is missing {key!r}")
        require(event["ph"] == "X", path,
                f"event {i}: ph is {event['ph']!r}, want 'X'")
        require(event["ts"] >= 0 and event["dur"] >= 0, path,
                f"event {i}: negative ts or dur")
    return f"trace: {len(events)} spans"


# Monotone spill counters remembered across the Prometheus scrape bodies
# of one invocation: name -> (value, path of the scrape that set it).
# Callers pass same-process scrapes in scrape order (the obs-live job's
# usage), so a backwards step means a counter regressed live.
_SCRAPE_MONOTONE_STATE = {}
_SCRAPE_MONOTONE_NAMES = ("checker_spill_bytes",
                          "checker_spill_frontier_segments",
                          "checker_spill_compact_count",
                          "checker_checkpoint_writes")


_PROM_SAMPLE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{le="[^"]*"\})?\s+(\S+)$')
_PROM_TYPE = re.compile(r"^# TYPE ([A-Za-z_:][A-Za-z0-9_:]*) "
                        r"(counter|gauge|histogram)$")


def validate_prometheus_text(path, text):
    """Validates a /metrics scrape body (Prometheus text exposition).

    Structure first — every sample must follow a `# TYPE` declaration and
    parse as `name value` (histograms via the `_bucket`/`_sum`/`_count`
    suffixes, `le`-labelled buckets only) — then the same targeted family
    sanity as the JSON path, on the underscore-flattened names.
    """
    declared = {}
    samples = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = _PROM_TYPE.match(line)
            require(m, path,
                    f"line {lineno}: malformed comment {line!r} (the "
                    f"exporter only writes '# TYPE name kind' lines)")
            declared[m.group(1)] = m.group(2)
            continue
        m = _PROM_SAMPLE.match(line)
        require(m, path, f"line {lineno}: malformed sample {line!r}")
        name, label, raw = m.groups()
        try:
            value = float(raw)
        except ValueError:
            fail(path, f"line {lineno}: sample {name!r} has a non-numeric "
                 f"value {raw!r}")
        base = name
        if name not in declared:
            for suffix in ("_bucket", "_sum", "_count"):
                stem = name[:-len(suffix)] if name.endswith(suffix) else None
                if stem and declared.get(stem) == "histogram":
                    base = stem
                    break
            else:
                fail(path, f"line {lineno}: sample {name!r} has no "
                     f"preceding # TYPE declaration")
        require(label is None or name.endswith("_bucket"), path,
                f"line {lineno}: only _bucket samples carry an le label")
        if declared[base] == "counter":
            require(math.isfinite(value) and value >= 0, path,
                    f"line {lineno}: counter {name!r} must be finite and "
                    f">= 0, got {raw}")
        if name in declared:
            samples[name] = value
    for name in declared:
        require(name in samples or declared[name] == "histogram", path,
                f"{name!r} is TYPE-declared but has no sample")

    def sample(name):
        return samples.get(name)

    for name in ("checker_barrier_idle_fraction", "checker_idle_fraction"):
        idle = sample(name)
        if idle is not None:
            require(math.isfinite(idle) and 0 <= idle <= 1, path,
                    f"{name} must be finite in [0, 1], got {idle!r}")
    policy = sample("checker_policy")
    if policy is not None:
        require(policy in (0, 1), path,
                f"checker_policy must be 0 (level) or 1 (relaxed), "
                f"got {policy!r}")
    settle = sample("checker_barrier_settle_ms")
    if settle is not None:
        require(math.isfinite(settle) and settle >= 0, path,
                f"checker_barrier_settle_ms must be finite and >= 0, "
                f"got {settle!r}")
    workers_used = sample("checker_workers_used")
    if workers_used is not None:
        require(workers_used >= 1, path,
                f"checker_workers_used must be >= 1, got {workers_used!r}")
    http = [name for name in ("obs_http_requests", "obs_http_bytes")
            if name in samples]
    if http:
        require(len(http) == 2, path,
                f"obs_http_* counters are published together; found "
                f"only {http}")
    profiled = {}
    steals = {}
    for name, value in samples.items():
        m = re.match(r"^checker_worker(\d+)_"
                     r"(busy_ms|barrier_wait_ms|steal_ms|starve_ms|steals)$",
                     name)
        if m is None:
            continue
        require(math.isfinite(value) and value >= 0, path,
                f"{name!r} must be finite and >= 0, got {value!r}")
        if m.group(2) == "steals":
            steals[int(m.group(1))] = value
        else:
            profiled.setdefault(int(m.group(1)), set()).add(m.group(2))
    for index, leaves in sorted(profiled.items()):
        require("busy_ms" in leaves, path,
                f"worker {index} publishes {sorted(leaves)} without "
                f"busy_ms; every profiled worker is timed")
        require(("steal_ms" in leaves) == ("starve_ms" in leaves), path,
                f"worker {index} publishes only one of steal_ms/starve_ms")
        if "barrier_wait_ms" not in leaves:
            require(policy == 1, path,
                    f"worker {index} has busy_ms but no barrier_wait_ms "
                    f"and checker_policy is not 1 — only a relaxed run "
                    f"may omit the barrier profile")
            require("steal_ms" in leaves, path,
                    f"worker {index} omits barrier_wait_ms (relaxed) but "
                    f"publishes no steal_ms/starve_ms pair")
    if profiled:
        require(sorted(profiled) == list(range(len(profiled))), path,
                f"worker profile indexes are not dense from 0: "
                f"{sorted(profiled)}")
    if steals:
        require(sorted(steals) == list(range(len(steals))), path,
                f"steal counter indexes are not dense from 0: "
                f"{sorted(steals)}")
        require(policy is not None, path,
                "checker_worker<N>_steals without checker_policy — the "
                "relaxed engine publishes both")
        if any(value > 0 for value in steals.values()):
            require(policy == 1, path,
                    f"nonzero steal counts with checker_policy == "
                    f"{policy!r} — level-sync never steals")
    spill_core = ("checker_spill_bytes", "checker_spill_frontier_segments",
                  "checker_spill_runs", "checker_spill_probe_ms",
                  "checker_spill_merge_ms")
    spill_present = [name for name in spill_core if name in samples]
    if spill_present:
        missing = [name for name in spill_core if name not in samples]
        require(not missing, path,
                f"checker_spill_* core metrics are flushed together; "
                f"missing {missing}")
        for name in spill_core:
            require(math.isfinite(samples[name]) and samples[name] >= 0,
                    path, f"{name!r} must be finite and >= 0, "
                    f"got {samples[name]!r}")
    compact = ("checker_spill_compact_count", "checker_spill_compact_ms",
               "checker_spill_compact_backlog")
    if any(name in samples for name in compact):
        missing = [name for name in compact if name not in samples]
        require(not missing, path,
                f"checker_spill_compact_* metrics are published together; "
                f"missing {missing}")
        require(bool(spill_present), path,
                "checker_spill_compact_* without the core checker_spill_* "
                "family")
        for name in compact:
            require(math.isfinite(samples[name]) and samples[name] >= 0,
                    path, f"{name!r} must be finite and >= 0, "
                    f"got {samples[name]!r}")
    for name in ("checker_spill_generations", "checker_checkpoint_writes",
                 "checker_checkpoint_ms"):
        if name in samples:
            require(bool(spill_present), path,
                    f"{name!r} without the core checker_spill_* family")
            require(math.isfinite(samples[name]) and samples[name] >= 0,
                    path, f"{name!r} must be finite and >= 0, "
                    f"got {samples[name]!r}")
    require(("checker_checkpoint_writes" in samples) ==
            ("checker_checkpoint_ms" in samples), path,
            "checker_checkpoint_* metrics are published together")
    for name in _SCRAPE_MONOTONE_NAMES:
        if name not in samples:
            continue
        previous = _SCRAPE_MONOTONE_STATE.get(name)
        if previous is not None:
            prev_value, prev_path = previous
            require(samples[name] >= prev_value, path,
                    f"monotone counter {name!r} moved backwards across "
                    f"scrapes: {prev_value} ({prev_path}) -> "
                    f"{samples[name]}")
        _SCRAPE_MONOTONE_STATE[name] = (samples[name], path)
    return f"prometheus: {len(declared)} metrics"


def validate_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail(path, f"cannot read: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        # Not JSON: a saved /metrics scrape body is the other artifact
        # shape CI captures ("# TYPE name kind" declarations give it away).
        if "# TYPE " in text:
            summary = validate_prometheus_text(path, text)
            print(f"validate_metrics: {path}: OK ({summary})")
            return
        fail(path, f"invalid JSON: {e}")
    require(isinstance(doc, dict), path, "top level is not an object")

    if "traceEvents" in doc:
        summary = validate_trace_doc(path, doc)
    elif "bench" in doc:
        summary = validate_bench_doc(path, doc)
    elif doc.get("schema") == "xmodel.metrics.v1":
        summary = f"{validate_metrics_doc(path, doc)} metrics"
    else:
        fail(path, "not a metrics snapshot, bench report, or trace file")
    print(f"validate_metrics: {path}: OK ({summary})")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        validate_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
