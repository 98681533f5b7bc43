"""Self-test for tools/validate_metrics.py.

    python3 tests/validate_metrics_test.py VALIDATOR [XMODEL_LINT MBTC_CHECK]

Each row breaks one rule in a small good snapshot or scrape and must make
VALIDATOR exit 1 with the offending metric named on stderr. Rows marked
new cover checks an earlier validator lacked. Given the two binaries, the
test also generates real artifacts (a lint snapshot, a trace-check
snapshot and two live /metrics scrapes), which must exit 0.
"""
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import urllib.request

LEVEL_EDGES = [1, 10, 100, 1000, 10000, 100000, 1000000]


def base():
    """A level-sync run with every family present, valid under all rules."""
    def c(v):
        return {"kind": "counter", "value": v}

    def g(v):
        return {"kind": "gauge", "value": v}
    m = {
        "checker.states.generated": c(100), "checker.states.distinct": c(40),
        "checker.workers.used": g(2),
        "checker.fingerprint.load": g(0.5), "checker.idle_fraction": g(0.25),
        "checker.fingerprint.collision_probability": g(1.3e-16),
        "checker.barrier.settle_ms": g(1.5),
        "checker.barrier.assemble_ms": g(0.5),
        "checker.barrier.graph_ms": g(0.25),
        "checker.barrier.evict_ms": g(0.5),
        "checker.barrier.spool_ms": g(0.25),
        "checker.alloc.values_per_state": g(0.75),
        "checker.frontier.level_size": {
            "kind": "histogram", "count": 5, "sum": 42.0,
            "le": [float(e) for e in LEVEL_EDGES],
            "buckets": [2, 2, 1, 0, 0, 0, 0, 0]},
        "checker.graph.nodes": g(40), "checker.graph.edges": g(60),
        "checker.graph.dup_edges": g(20),
        "value.intern.hits": g(50), "value.intern.misses": g(30),
        "value.intern.live": g(25), "value.intern.bytes": g(1000),
        "mbtcg.extract.roots": g(1), "mbtcg.extract.cases": g(3),
        "mbtcg.extract.seconds": g(0.5),
        "obs.http.requests": c(2), "obs.http.bytes": c(300),
        "checker.spill.bytes": c(4096),
        "checker.spill.frontier_segments": c(2),
        "checker.spill.runs": g(1), "checker.spill.probe_ms": g(0.5),
        "checker.spill.merge_ms": g(0.25), "checker.spill.generations": g(3),
        "checker.checkpoint.writes": c(1), "checker.checkpoint.ms": g(2.0),
    }
    for w in (0, 1):
        m[f"checker.worker{w}.expansions"] = c(20)
        m[f"checker.worker{w}.busy_ms"] = g(10 - w)
        m[f"checker.worker{w}.barrier_wait_ms"] = g(1 + w)
    for spec, leaves in (("Counter", (8, 5, 0, 1)), ("Queue", (0, 7, 1, 0))):
        for leaf, v in zip(("state_bound", "observed_distinct",
                            "unbounded_vars", "exhaustive"), leaves):
            m[f"analysis.domain.{spec}.{leaf}"] = g(v)
    return m


def number(v):
    return "+Inf" if v == math.inf else f"{v:.9g}"


def as_prom(metrics):
    """Renders a snapshot's metrics the way ToPrometheusText does."""
    out = []
    for name, e in sorted(metrics.items()):
        flat = name.replace(".", "_")
        out.append(f"# TYPE {flat} {e['kind']}")
        if e["kind"] != "histogram":
            out.append(f"{flat} {number(e['value'])}")
            continue
        total = 0
        for edge, count in zip(e["le"] + [math.inf], e["buckets"]):
            total += count
            out.append(f'{flat}_bucket{{le="{number(edge)}"}} {total}')
        out += [f"{flat}_sum {number(e['sum'])}", f"{flat}_count {e['count']}"]
    return "\n".join(out) + "\n"


def as_json(snapshot, **extra):
    return json.dumps({"schema": "xmodel.metrics.v1", "metrics": snapshot,
                       **extra})


def edited(edits):
    m = base()
    for edit in edits:
        edit(m)
    return m


# Edits of a snapshot's metrics.
def setv(name, value, key="value"):
    return lambda m: m[name].__setitem__(key, value)


def drop(*names):
    return lambda m: [m.pop(name) for name in names]


def add(name, kind, value):
    return lambda m: m.__setitem__(name, {"kind": kind, "value": value})


def rename(old, new):
    return lambda m: m.__setitem__(new, m.pop(old))


SPILL_CORE = ("checker.spill.bytes", "checker.spill.frontier_segments",
              "checker.spill.runs", "checker.spill.probe_ms",
              "checker.spill.merge_ms")
CHECKPOINT = ("checker.checkpoint.writes", "checker.checkpoint.ms")


# Row makers: each returns a function that writes the row's file bodies.
def snap(*edits):
    return lambda: [as_json(edited(edits))]


def scrape(*edits):
    return lambda: [as_prom(edited(edits))]


def doc(**fields):
    return lambda: [as_json(base(), **fields)]


def text(old, new):
    def make():
        body = as_prom(base())
        assert old in body, old
        return [body.replace(old, new, 1)]
    return make


def bench(**fields):
    report = {"bench": "demo", "quick": True, "exit_code": 0,
              "wall_seconds": 1.5, "results": {}}
    return lambda: [as_json(base(), **{**report, **fields})]


def trace(events):
    return lambda: [json.dumps({"traceEvents": events})]


GOOD_EVENT = {"name": "mbtc.run", "ph": "X", "ts": 0, "dur": 5, "pid": 1,
              "tid": 1}

# (label, files, substrings stderr must name, new). Family rules come in
# twins, one per artifact shape; see FAMILY below.
ROWS = [
    ("invalid JSON", lambda: ["{not json"], "invalid JSON", False),
    ("top level not an object", lambda: ["[1, 2]"], "top level", False),
    ("unknown document", lambda: ['{"foo": 1}'], "not a metrics", False),
    ("wrong schema", bench(schema="xmodel.metrics.v0"), "schema", False),
    ("metrics not an object", doc(metrics=[]), "'metrics'", False),
    ("entry not an object", snap(lambda m: m.__setitem__(
        "checker.states.generated", 5)), "checker.states.generated", False),
    ("unknown kind", snap(setv("checker.states.generated", "summary", "kind")),
     "checker.states.generated", False),
    ("non-numeric value", snap(setv("checker.states.generated", "ten")),
     "checker.states.generated", False),
    ("histogram count", snap(setv("checker.frontier.level_size", -1, "count")),
     "checker.frontier.level_size", False),
    ("histogram sum", snap(setv("checker.frontier.level_size", "x", "sum")),
     "checker.frontier.level_size", False),
    ("histogram arrays", snap(setv("checker.frontier.level_size", None, "le")),
     "checker.frontier.level_size", False),
    ("histogram bucket count", snap(setv("checker.frontier.level_size",
                                         [2, 2, 1], "buckets")),
     "checker.frontier.level_size", False),
    ("histogram edges ascend", snap(setv("checker.frontier.level_size",
                                         [10.0, 1.0] + LEVEL_EDGES[2:], "le")),
     "checker.frontier.level_size", False),
    ("histogram negative bucket", snap(setv(
        "checker.frontier.level_size", [3, 2, 1, -1, 0, 0, 0, 0], "buckets")),
     "checker.frontier.level_size", False),
    ("histogram buckets sum to count", snap(setv(
        "checker.frontier.level_size", 6, "count")),
     "checker.frontier.level_size", False),
    ("histogram declared edges", snap(setv(
        "checker.frontier.level_size", [1.0, 10.0] + LEVEL_EDGES[3:], "le"),
        setv("checker.frontier.level_size", [2, 2, 1, 0, 0, 0, 0], "buckets")),
     "checker.frontier.level_size", True),
    ("undeclared metric", snap(add("checker.states.invented", "counter", 1)),
     "checker.states.invented", True),
    ("bench name", bench(bench=""), "'bench'", False),
    ("bench quick", bench(quick="yes"), "'quick'", False),
    ("bench exit_code", bench(exit_code=0.5), "'exit_code'", False),
    ("bench wall_seconds", bench(wall_seconds="x"), "'wall_seconds'", False),
    ("bench results", bench(results=[]), "'results'", False),
    ("trace events array", trace({}), "'traceEvents'", False),
    ("trace event object", trace([1]), "event 0", False),
    ("trace event keys", trace([{k: v for k, v in GOOD_EVENT.items()
                                 if k != "dur"}]), "'dur'", False),
    ("trace ph", trace([{**GOOD_EVENT, "ph": "B"}]), "ph", False),
    ("trace ts", trace([{**GOOD_EVENT, "ts": -1}]), "negative ts", False),
    # Prometheus grammar.
    ("scrape comment", text("# TYPE checker_workers_used", "# EOF\n# TYPE "
                            "checker_workers_used"), "malformed comment",
     False),
    ("scrape sample", text("checker_workers_used 2\n",
                           "checker_workers_used\n"),
     "malformed sample", False),
    ("scrape value", text("checker_workers_used 2\n",
                          "checker_workers_used two\n"),
     "checker_workers_used", False),
    ("scrape TYPE first", text("# TYPE checker_workers_used gauge\n", ""),
     "checker_workers_used", False),
    ("scrape le label", text("checker_workers_used 2\n",
                             'checker_workers_used{le="1"} 2\n'),
     "le label", False),
    ("scrape TYPE without sample", text("checker_workers_used 2\n", ""),
     "checker_workers_used", False),
    ("scrape HELP text", text("# TYPE checker_workers_used",
                              "# HELP checker_workers_used made up\n"
                              "# TYPE checker_workers_used"),
     "checker_workers_used", True),
    ("scrape HELP after TYPE", text("checker_workers_used 2\n", "# HELP "
                                    "checker_workers_used x\n"
                                    "checker_workers_used 2\n"),
     "checker_workers_used", True),
    ("scrape cumulative buckets", text(
        'checker_frontier_level_size_bucket{le="10"} 4',
        'checker_frontier_level_size_bucket{le="10"} 1'),
     "checker_frontier_level_size", True),
    ("scrape +Inf is _count", text("checker_frontier_level_size_count 5",
                                   "checker_frontier_level_size_count 6"),
     "checker_frontier_level_size", True),
    ("scrape +Inf bucket", text(
        'checker_frontier_level_size_bucket{le="+Inf"} 5\n', ""),
     "checker_frontier_level_size", True),
    ("scrape undeclared metric", text("# TYPE checker_workers_used",
                                      "# TYPE made_up_total counter\n"
                                      "made_up_total 1\n"
                                      "# TYPE checker_workers_used"),
     "made_up_total", True),
    ("spill counter monotone", lambda: [
        as_prom(base()), as_prom(edited([setv("checker.spill.bytes", 10)]))],
     "checker.spill.bytes", False),
    ("every counter monotone", lambda: [
        as_prom(base()),
        as_prom(edited([setv("checker.states.generated", 10)]))],
     "checker.states.generated", True),
]

# (label, edits, named, new on snapshots, new on scrapes).
FAMILY = [
    ("counter sign", [setv("checker.states.generated", -1)],
     "checker.states.generated", False, False),
    ("counter finite", [setv("checker.states.generated", math.inf)],
     "checker.states.generated", True, False),
    ("fingerprint load bound", [setv("checker.fingerprint.load", 0.9)],
     "checker.fingerprint.load", False, True),
    ("fingerprint load kind", [setv("checker.fingerprint.load", "counter",
                                    "kind")],
     "checker.fingerprint.load", False, True),
    ("collision probability sign",
     [setv("checker.fingerprint.collision_probability", -1e-16)],
     "checker.fingerprint.collision_probability", False, False),
    ("workers used", [setv("checker.workers.used", 0)],
     "checker.workers.used", False, False),
    ("worker index", [rename("checker.worker1.expansions",
                             "checker.workerX.expansions")],
     "checker.workerX.expansions", False, True),
    ("intern group", [drop("value.intern.bytes")], "value.intern.bytes",
     False, True),
    ("intern sign", [setv("value.intern.hits", -1)], "value.intern.hits",
     False, True),
    ("intern live <= misses", [setv("value.intern.live", 31)],
     "value.intern.live", False, True),
    ("values per state", [setv("checker.alloc.values_per_state", -1)],
     "checker.alloc.values_per_state", False, True),
    ("profile sign", [setv("checker.worker1.busy_ms", -1)],
     "checker.worker1.busy_ms", False, False),
    ("profile busy_ms", [drop("checker.worker1.busy_ms")], "busy_ms",
     False, False),
    ("profile barrier_wait_ms", [drop("checker.worker1.barrier_wait_ms")],
     "barrier_wait_ms", False, False),
    ("profile dense", [rename("checker.worker1.busy_ms",
                              "checker.worker2.busy_ms"),
                       rename("checker.worker1.barrier_wait_ms",
                              "checker.worker2.barrier_wait_ms")],
     "[0, 2]", False, False),
    ("settle sign", [setv("checker.barrier.settle_ms", -1)],
     "checker.barrier.settle_ms", False, False),
    ("barrier step sign", [setv("checker.barrier.evict_ms", -1)],
     "checker.barrier.evict_ms", True, True),
    ("barrier step group", [drop("checker.barrier.spool_ms")],
     "checker.barrier.spool_ms", True, True),
    ("barrier steps need settle", [drop("checker.barrier.settle_ms")],
     "checker.barrier.settle_ms", True, True),
    ("idle fraction bound", [setv("checker.idle_fraction", 1.5)],
     "checker.idle_fraction", False, False),
    ("http group", [drop("obs.http.bytes")], "obs.http", False, False),
    ("http sign", [setv("obs.http.requests", -1)], "obs.http.requests",
     False, False),
    ("graph group", [drop("checker.graph.dup_edges")],
     "checker.graph.dup_edges", False, True),
    ("graph sign", [setv("checker.graph.nodes", -1)], "checker.graph.nodes",
     False, True),
    ("graph dup_edges <= edges", [setv("checker.graph.dup_edges", 61)],
     "checker.graph.dup_edges", False, True),
    ("mbtcg group", [drop("mbtcg.extract.seconds")], "mbtcg.extract.seconds",
     False, True),
    ("spill group", [drop("checker.spill.runs")], "checker.spill.runs",
     False, False),
    ("spill kind", [setv("checker.spill.runs", "counter", "kind")],
     "checker.spill.runs", False, True),
    ("spill sign", [setv("checker.spill.probe_ms", -1)],
     "checker.spill.probe_ms", False, False),
    ("compaction needs spill", [drop(*SPILL_CORE, *CHECKPOINT,
                                     "checker.spill.generations"),
                                add("checker.spill.compact.count", "counter",
                                    1)],
     "checker.spill.compact", False, False),
    ("generations need spill", [drop(*SPILL_CORE, *CHECKPOINT)],
     "checker.spill.generations", False, False),
    ("generations sign", [setv("checker.spill.generations", -1)],
     "checker.spill.generations", False, False),
    ("checkpoint group", [drop("checker.checkpoint.ms")],
     "checker.checkpoint", False, False),
    ("checkpoint needs spill", [drop(*SPILL_CORE,
                                     "checker.spill.generations")],
     "checker.checkpoint", False, False),
    ("domain leaf", [add("analysis.domain.Counter.bogus", "gauge", 1)],
     "analysis.domain.Counter.bogus", False, True),
    ("domain group", [drop("analysis.domain.Counter.exhaustive")],
     "analysis.domain.Counter.exhaustive", False, True),
    ("domain exhaustive boolean", [setv("analysis.domain.Counter.exhaustive",
                                        2)],
     "analysis.domain.Counter.exhaustive", False, True),
    ("bool unit is 0 or 1", [setv("analysis.domain.Counter.exhaustive",
                                  0.5)],
     "analysis.domain.Counter.exhaustive", False, False),
    ("domain unbounded encoding", [setv("analysis.domain.Queue.state_bound",
                                        5)],
     ("Queue", "unbounded"), False, True),
    ("domain bound >= 1", [setv("analysis.domain.Counter.state_bound", 0)],
     ("Counter", ">= 1"), False, True),
    ("domain bound covers observed", [setv(
        "analysis.domain.Counter.state_bound", 4)], ("Counter", "below"),
     False, True),
]
for label, edits, named, new_snap, new_scrape in FAMILY:
    ROWS.append((label, snap(*edits), named, new_snap))
    ROWS.append((label + " (scrape)", scrape(*edits), named, new_scrape))


def run(validator, directory, bodies):
    directory = tempfile.mkdtemp(dir=directory)
    paths = []
    for i, body in enumerate(bodies):
        paths.append(os.path.join(directory, f"input{i}"))
        with open(paths[-1], "w", encoding="utf-8") as f:
            f.write(body)
    return subprocess.run([sys.executable, validator] + paths,
                          capture_output=True, text=True)


def names(err, named):
    wanted = (named,) if isinstance(named, str) else named
    return all(w in err or w.replace(".", "_") in err for w in wanted)


def serve_and_scrape(mbtc_check, directory):
    """Two /metrics bodies from a live mbtc_check, in scrape order."""
    proc = subprocess.Popen(
        [mbtc_check, "--scenario=elect_and_write/n3_w1_b1", "--serve=0",
         "--serve-linger-ms=60000"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        for line in proc.stderr:
            url = re.search(r"http://127\.0\.0\.1:\d+/", line)
            if url:
                break
        else:
            raise RuntimeError("mbtc_check printed no URL")
        bodies = []
        for i in range(2):
            with urllib.request.urlopen(url.group(0) + "metrics",
                                        timeout=10) as r:
                bodies.append(r.read().decode())
            with open(os.path.join(directory, f"scrape{i}.txt"), "w",
                      encoding="utf-8") as f:
                f.write(bodies[-1])
        urllib.request.urlopen(url.group(0) + "quitquitquit", timeout=10)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return [os.path.join(directory, f"scrape{i}.txt") for i in range(2)]


def main(argv):
    validator, binaries = argv[1], argv[2:]
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        for label, make in (("good snapshot", lambda: [as_json(base())]),
                            ("good scrape", lambda: [as_prom(base())])):
            result = run(validator, directory, make())
            if result.returncode != 0:
                failures.append(f"{label}: exit {result.returncode}: "
                                f"{result.stderr.strip()}")
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            results = pool.map(lambda row: run(validator, directory, row[1]()),
                               ROWS)
        for (label, _, named, new), result in zip(ROWS, results):
            if result.returncode != 1 or not names(result.stderr, named):
                failures.append(
                    f"{label}{' (new)' if new else ''}: exit "
                    f"{result.returncode}, want 1 naming {named!r}: "
                    f"{result.stderr.strip()}")
        if binaries:
            xmodel_lint, mbtc_check = binaries
            lint = os.path.join(directory, "lint.json")
            mbtc = os.path.join(directory, "mbtc.json")
            subprocess.run([xmodel_lint, f"--metrics-out={lint}"], check=True,
                           stdout=subprocess.DEVNULL)
            subprocess.run([mbtc_check, "--scenario=elect_and_write/n3_w1_b1",
                            f"--metrics-out={mbtc}"],
                           check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            scrapes = serve_and_scrape(mbtc_check, directory)
            result = subprocess.run(
                [sys.executable, validator, lint, mbtc] + scrapes,
                capture_output=True, text=True)
            if result.returncode != 0:
                failures.append(f"generated artifacts: exit "
                                f"{result.returncode}: "
                                f"{result.stderr.strip()}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(ROWS)} rows, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
