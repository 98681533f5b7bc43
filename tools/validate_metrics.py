#!/usr/bin/env python3
"""Validate xmodel observability artifacts against the declared metrics.

    tools/validate_metrics.py FILE [FILE...]

Each FILE is a metrics snapshot or bench report (JSON, schema
xmodel.metrics.v1), a Chrome trace (`traceEvents`), or a saved `/metrics`
scrape body. Metric rules come from src/obs/metric_defs.inc. Scrape bodies
of one process, given in scrape order, must never move a counter backwards.
Exits 1 naming the first problem, 0 when every file passes.
"""

import json
import math
import os
import re
import sys

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "src", "obs", "metric_defs.inc")
KINDS = {"kCounter": "counter", "kGauge": "gauge", "kHistogram": "histogram"}
_ROW = re.compile(r'^XMODEL_METRIC\(\s*"([^"]*)",\s*(\w+),\s*"([^"]*)",'
                  r'\s*([\w.]+),\s*([\w.]+),\s*"([^"]*)",\s*"([^"]*)",'
                  r'\s*(\{\}|\w+),\s*"([^"]*)"\)$', re.M)
_BUCKETS = re.compile(r"^XMODEL_BUCKETS\((\w+),([^)]*)\)$", re.M)
_PROM_COMMENT = re.compile(r"^# (HELP|TYPE) ([A-Za-z_:][A-Za-z0-9_:]*) (.*)$")
_PROM_SAMPLE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{le="([^"]*)"\})?\s+(\S+)$')
# Counter values seen in earlier scrape bodies: name -> (value, path).
_SCRAPED = {}


def fail(path, message):
    print(f"validate_metrics: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def require(cond, path, message):
    if not cond:
        fail(path, message)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def pattern_regex(pattern, dot):
    """`<N>` matches digits and other `<word>`s identifiers; `dot` is how a
    literal dot is spelled (`\\.` in snapshots, `_` in scrapes)."""
    out = ""
    for i, part in enumerate(re.split(r"<(\w+)>", pattern)):
        if i % 2:
            word = "[0-9]+" if part == "N" else "[A-Za-z0-9_]+"
            out += f"(?P<{part}>{word})"
        else:
            out += re.escape(part).replace(r"\.", dot)
    return re.compile(out + "$")


def expand(pattern, bind):
    return re.sub(r"<(\w+)>", lambda m: bind[m.group(1)], pattern)


class Row:
    """One XMODEL_METRIC row of the declaration table."""

    def __init__(self, fields, buckets):
        (self.name, kind, self.unit, lo, hi, self.group, self.needs, edges,
         self.help) = fields
        self.kind = KINDS[kind]
        self.lo, self.hi = (math.inf if v == "kInf" else float(v)
                            for v in (lo, hi))
        self.buckets = buckets.get(edges, [])
        self.dotted = pattern_regex(self.name, r"\.")
        self.flat = pattern_regex(self.name, "_")


def load_table():
    with open(TABLE, encoding="utf-8") as f:
        text = f.read()
    buckets = {name: [float(edge) for edge in edges.split(",")]
               for name, edges in _BUCKETS.findall(text)}
    rows = [Row(fields, buckets) for fields in _ROW.findall(text)]
    require(len(rows) == len(re.findall(r"^XMODEL_METRIC\(", text, re.M)),
            TABLE, "a XMODEL_METRIC row has an argument this parser cannot "
            "read")
    return rows


def check_histogram(path, name, entry, row):
    count, buckets, le = (entry.get(key) for key in ("count", "buckets", "le"))
    require(isinstance(count, int) and count >= 0, path,
            f"histogram {name!r} has no non-negative 'count'")
    require(is_number(entry.get("sum")), path,
            f"histogram {name!r} has no numeric 'sum'")
    require(isinstance(buckets, list) and isinstance(le, list), path,
            f"histogram {name!r} needs 'buckets' and 'le' arrays")
    require(le == sorted(le) and len(set(le)) == len(le), path,
            f"histogram {name!r}: 'le' edges are not ascending")
    require(le == row.buckets, path,
            f"histogram {name!r}: edges {le} are not the declared "
            f"{row.buckets}")
    require(len(buckets) == len(le) + 1, path,
            f"histogram {name!r}: {len(buckets)} buckets for {len(le)} edges "
            f"(want edges + 1 for +Inf)")
    require(all(isinstance(b, int) and b >= 0 for b in buckets), path,
            f"histogram {name!r}: bucket counts must be non-negative ints")
    require(sum(buckets) == count, path,
            f"histogram {name!r}: buckets sum to {sum(buckets)}, count says "
            f"{count}")


def check_metrics(path, metrics, rows, helps=None):
    """The generic pass, driven only by the table. `helps` (flattened name
    -> `# HELP` text) marks a scrape, whose names are flattened."""
    resolved = {}
    for name, entry in metrics.items():
        matches = [(r, m) for r in rows if (m := (
            r.flat if helps is not None else r.dotted).match(name))]
        require(matches, path, f"metric {name!r} is not declared in "
                f"src/obs/metric_defs.inc")
        require(len(matches) == 1, path, f"metric {name!r} matches "
                f"{len(matches)} declared rows")
        row, bind = matches[0][0], matches[0][1].groupdict()
        dotted = expand(row.name, bind)
        require(isinstance(entry, dict), path,
                f"metric {dotted!r} is not an object")
        kind = entry.get("kind")
        require(kind in KINDS.values(), path,
                f"metric {dotted!r} has unknown kind {kind!r}")
        require(kind == row.kind, path,
                f"{dotted!r} is a {kind}; it is declared as a {row.kind}")
        if helps is not None and name in helps:
            want = f"{row.help} [{row.unit}]"
            require(helps[name] == want, path,
                    f"# HELP of {name!r} is {helps[name]!r}, want {want!r}")
        if kind == "histogram":
            check_histogram(path, dotted, entry, row)
        else:
            value = entry.get("value")
            require(is_number(value), path,
                    f"metric {dotted!r} has no numeric 'value'")
            require(math.isfinite(value) and row.lo <= value <= row.hi, path,
                    f"{dotted!r} = {value!r} is outside its declared range "
                    f"[{row.lo:g}, {row.hi:g}]")
            require(row.unit != "bool" or value in (0, 1), path,
                    f"{dotted!r} must be 0 or 1, got {value!r}")
        resolved[dotted] = (entry, row, bind)
    groups = {n: r.group for n, (_, r, _) in resolved.items()}
    for dotted, (_, row, bind) in resolved.items():
        if row.group:
            missing = [expand(r.name, bind) for r in rows
                       if r.group == row.group
                       and expand(r.name, bind) not in resolved]
            require(not missing, path,
                    f"{dotted!r} is published without the rest of group "
                    f"{expand(row.group, bind)}: missing {missing}")
        require(not row.needs or row.needs in resolved
                or row.needs in groups.values(), path,
                f"{dotted!r} needs {row.needs}, which is absent")
    return resolved


def check_relations(path, resolved):
    """The rules that tie two metrics together."""
    def value(name):
        return resolved[name][0]["value"] if name in resolved else None

    for small, big in (("value.intern.live", "value.intern.misses"),
                       ("checker.graph.dup_edges", "checker.graph.edges")):
        if small in resolved and big in resolved:
            require(value(small) <= value(big), path,
                    f"{small} ({value(small)}) exceeds {big} ({value(big)})")
    profiled = {}
    for entry, row, bind in resolved.values():
        if (row.name.startswith("checker.worker<N>.")
                and not row.name.endswith(".expansions")):
            profiled.setdefault(int(bind["N"]), set()).add(
                row.name.rpartition(".")[2])
    for index, leaves in sorted(profiled.items()):
        require(leaves == {"busy_ms", "barrier_wait_ms"}, path,
                f"checker.worker{index} publishes {sorted(leaves)}; every "
                f"profiled worker has busy_ms and barrier_wait_ms")
    require(sorted(profiled) == list(range(len(profiled))), path,
            f"checker.worker<N> worker profile indexes are not dense from "
            f"0: {sorted(profiled)}")
    for name, (_, row, bind) in resolved.items():
        if row.name != "analysis.domain.<spec>.state_bound":
            continue
        spec = name.rpartition(".")[0]
        bound, observed, unbounded, exhaustive = (
            value(f"{spec}.{leaf}") for leaf in
            ("state_bound", "observed_distinct", "unbounded_vars",
             "exhaustive"))
        if unbounded > 0:
            require(bound == 0, path,
                    f"{spec}: {unbounded} unbounded variable(s) but "
                    f"state_bound is {bound}, want the 0 'unbounded' encoding")
        elif exhaustive == 1:
            require(bound >= 1, path,
                    f"{spec}: exhaustive probe with no unbounded variables "
                    f"must report a state_bound >= 1, got {bound}")
            require(bound >= observed, path,
                    f"{spec}: state_bound {bound} is below observed_distinct "
                    f"{observed}; the bound is unsound")


def validate_metrics_doc(path, doc, rows):
    require(doc.get("schema") == "xmodel.metrics.v1", path,
            f"unexpected schema {doc.get('schema')!r}")
    metrics = doc.get("metrics")
    require(isinstance(metrics, dict), path, "'metrics' is not an object")
    check_relations(path, check_metrics(path, metrics, rows))
    return len(metrics)


def validate_bench_doc(path, doc, rows):
    n = validate_metrics_doc(path, doc, rows)
    require(isinstance(doc.get("bench"), str) and doc["bench"], path,
            "'bench' must be a non-empty string")
    require(isinstance(doc.get("quick"), bool), path, "'quick' must be a bool")
    require(isinstance(doc.get("exit_code"), int), path,
            "'exit_code' must be an int")
    require(is_number(doc.get("wall_seconds")), path,
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


def parse_scrape(path, text):
    """Reduces a Prometheus text body to the snapshot shape: flattened name
    -> entry (histograms with `le` edges and non-cumulative `buckets`),
    plus the `# HELP` texts."""
    types, helps, samples = {}, {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        if line.startswith("#"):
            m = _PROM_COMMENT.match(line)
            require(m and (m.group(1) == "HELP" or m.group(3) in
                           ("counter", "gauge", "histogram")), path,
                    f"{where}: malformed comment {line!r} (the exporter "
                    f"writes '# HELP name text' and '# TYPE name kind')")
            word, name, rest = m.groups()
            require(word == "TYPE" or name not in types, path,
                    f"{where}: # HELP for {name!r} follows its # TYPE")
            (types if word == "TYPE" else helps)[name] = rest
            continue
        m = _PROM_SAMPLE.match(line)
        require(m, path, f"{where}: malformed sample {line!r}")
        name, label, le, raw = m.groups()
        try:
            value, edge = float(raw), float(le or 0)
        except ValueError:
            fail(path, f"{where}: sample {name!r} has a non-numeric value "
                 f"or le label")
        base = name if name in types else next(
            (name[:-len(s)] for s in ("_bucket", "_sum", "_count")
             if name.endswith(s) and types.get(name[:-len(s)]) == "histogram"),
            None)
        require(base, path,
                f"{where}: sample {name!r} has no preceding # TYPE")
        suffix = name[len(base):]
        require((label is None) == (suffix != "_bucket"), path,
                f"{where}: {name!r}: only _bucket samples carry an le label")
        series = samples.setdefault(base, {"buckets": []})
        if suffix == "_bucket":
            series["buckets"].append((edge, value))
        else:
            series[suffix or "value"] = value
    metrics = {}
    for name, kind in types.items():
        series = samples.get(name, {})
        if kind != "histogram":
            require("value" in series, path,
                    f"{name!r} is TYPE-declared but has no sample")
            metrics[name] = {"kind": kind, "value": series["value"]}
            continue
        cumulative = [count for _, count in series.get("buckets", [])]
        require(cumulative and series["buckets"][-1][0] == math.inf and
                "_count" in series and "_sum" in series, path,
                f"histogram {name!r} needs an le=\"+Inf\" bucket, _sum and "
                f"_count")
        require(cumulative == sorted(cumulative), path,
                f"histogram {name!r}: cumulative buckets decrease")
        require(cumulative[-1] == series["_count"], path,
                f"histogram {name!r}: +Inf bucket {cumulative[-1]:g} != "
                f"_count {series['_count']:g}")
        as_int = [int(c) if c.is_integer() else c
                  for c in [series["_count"]] + cumulative]
        metrics[name] = {
            "kind": kind, "count": as_int[0], "sum": series["_sum"],
            "le": [edge for edge, _ in series["buckets"][:-1]],
            "buckets": [b - a for a, b in zip([0] + as_int[1:], as_int[1:])]}
    return metrics, helps


def validate_scrape(path, text, rows):
    metrics, helps = parse_scrape(path, text)
    resolved = check_metrics(path, metrics, rows, helps)
    check_relations(path, resolved)
    for name, (entry, row, _) in resolved.items():
        if row.kind == "counter":
            before = _SCRAPED.get(name)
            require(before is None or entry["value"] >= before[0], path,
                    f"counter {name!r} moved backwards across scrapes: "
                    f"{before and before[0]} ({before and before[1]}) -> "
                    f"{entry['value']}")
            _SCRAPED[name] = (entry["value"], path)
    return f"prometheus: {len(metrics)} metrics"


def validate_file(path, rows):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail(path, f"cannot read: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        # Not JSON: a saved /metrics body ("# TYPE name kind" gives it away).
        require("# TYPE " in text, path, f"invalid JSON: {e}")
        summary = validate_scrape(path, text, rows)
        print(f"validate_metrics: {path}: OK ({summary})")
        return
    require(isinstance(doc, dict), path, "top level is not an object")
    if "traceEvents" in doc:
        summary = validate_trace_doc(path, doc)
    elif "bench" in doc:
        summary = validate_bench_doc(path, doc, rows)
    elif doc.get("schema") == "xmodel.metrics.v1":
        summary = f"{validate_metrics_doc(path, doc, rows)} metrics"
    else:
        fail(path, "not a metrics snapshot, bench report, or trace file")
    print(f"validate_metrics: {path}: OK ({summary})")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = load_table()
    for path in argv[1:]:
        validate_file(path, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
