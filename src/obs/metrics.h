#ifndef XMODEL_OBS_METRICS_H_
#define XMODEL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace xmodel::obs {

// The observability layer's metric model: three instrument kinds behind a
// process-wide registry. Hot paths hold a Counter&/Gauge&/Histogram&
// obtained once (a mutex-guarded map lookup) and then update it with
// relaxed atomics — cheap enough for per-event instrumentation in the
// checker, the repl simulation, and the MBTC pipeline.
//
// Every metric is declared once, in obs/metric_defs.inc: name (the
// `subsystem.noun.verb` scheme, e.g. `checker.states.generated`, with
// per-entity patterns such as `repl.node<N>.events.logged`), kind, unit,
// range, group, histogram edges and help text. The registry aborts on a
// name that no row declares. See DESIGN.md "Observability".

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that goes up and down (queue depth, load factor, ratio).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram: `upper_bounds` are the inclusive upper edges of
/// each bucket, ascending; an implicit +Inf bucket catches the rest
/// (Prometheus semantics, non-cumulative storage).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (last = +Inf).
  std::vector<uint64_t> bucket_counts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/// The fields of one obs/metric_defs.inc row that the C++ side uses; the
/// range, group and needs columns are read by tools/validate_metrics.py.
struct MetricDef {
  std::string_view name;  // Exact name, or a pattern with <N>/<word>.
  MetricKind kind;
  std::string_view unit;
  std::span<const double> buckets;  // Histogram edges; empty otherwise.
  std::string_view help;
};

/// Every declared metric, in file order.
std::span<const MetricDef> MetricDefs();

/// The row declaring `name`, where a row's `<N>` matches one or more
/// digits and any other `<word>` one or more of [A-Za-z0-9_]; nullptr when
/// no row declares it.
const MetricDef* FindMetricDef(std::string_view name);

/// One metric's value frozen at snapshot time.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;                  // Counter (as double) or gauge value.
  uint64_t count = 0;                // Histogram observation count.
  double sum = 0;                    // Histogram observation sum.
  std::vector<double> upper_bounds;  // Histogram bucket edges.
  std::vector<uint64_t> buckets;     // Histogram counts (+Inf last).
};

/// A consistent-enough view of every registered metric, sorted by name.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// Lookup by full metric name; nullptr when absent.
  const MetricSnapshot* Find(std::string_view name) const;
  /// True when any metric name starts with `prefix` (family presence).
  bool HasFamily(std::string_view prefix) const;
};

/// Registry of named instruments. Registration (Get*) takes a mutex;
/// returned references are stable for the registry's lifetime, so callers
/// cache them. Reset() zeroes values but keeps registrations, preserving
/// cached handles — the snapshot/reset cycle benches and tests rely on.
/// The first Get* of a name looks it up in MetricDefs() and aborts, naming
/// the metric, when no row declares it with that kind.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry all built-in instrumentation publishes to.
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// Registers (or fetches) a histogram with its declared bucket edges.
  Histogram& GetHistogram(std::string_view name);

  RegistrySnapshot Snapshot() const;
  /// Zeroes every instrument; handles stay valid.
  void Reset();
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace xmodel::obs

#endif  // XMODEL_OBS_METRICS_H_
