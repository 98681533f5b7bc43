#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace xmodel::obs {

namespace {

#define XMODEL_BUCKETS(id, ...) constexpr double id[] = {__VA_ARGS__};
#define XMODEL_METRIC(...)
#include "obs/metric_defs.inc"
#undef XMODEL_BUCKETS
#undef XMODEL_METRIC

constexpr MetricDef kMetricDefs[] = {
#define XMODEL_BUCKETS(...)
#define XMODEL_METRIC(name, kind, unit, min, max, group, needs, buckets, \
                      help)                                             \
  {name, MetricKind::kind, unit, buckets, help},
#include "obs/metric_defs.inc"
#undef XMODEL_BUCKETS
#undef XMODEL_METRIC
};

bool IsIdentifierChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool MatchesMetricPattern(std::string_view pattern, std::string_view name) {
  size_t i = 0;
  for (size_t p = 0; p < pattern.size();) {
    if (pattern[p] != '<') {
      if (i == name.size() || name[i] != pattern[p]) return false;
      ++i;
      ++p;
      continue;
    }
    const size_t close = pattern.find('>', p);
    if (close == std::string_view::npos) return false;
    const bool digits = pattern.substr(p, close - p + 1) == "<N>";
    const size_t start = i;
    while (i < name.size() && (digits ? name[i] >= '0' && name[i] <= '9'
                                      : IsIdentifierChar(name[i]))) {
      ++i;
    }
    if (i == start) return false;
    p = close + 1;
  }
  return i == name.size();
}

// The row declaring `name` as `kind`; aborts naming the metric otherwise.
// Runs only when a registry first creates `name`.
const MetricDef& DeclaredOrDie(std::string_view name, MetricKind kind) {
  const MetricDef* def = FindMetricDef(name);
  if (def == nullptr) {
    std::fprintf(stderr,
                 "metrics: '%.*s' is not declared in obs/metric_defs.inc\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  if (def->kind != kind) {
    std::fprintf(stderr, "metrics: '%.*s' is declared as a %s, not a %s\n",
                 static_cast<int>(name.size()), name.data(),
                 MetricKindName(def->kind), MetricKindName(kind));
    std::abort();
  }
  return *def;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bucket edges must be ascending");
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  // First bucket whose upper edge admits v; +Inf bucket otherwise.
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool RegistrySnapshot::HasFamily(std::string_view prefix) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name.size() >= prefix.size() &&
        std::string_view(m.name).substr(0, prefix.size()) == prefix) {
      return true;
    }
  }
  return false;
}

std::span<const MetricDef> MetricDefs() { return kMetricDefs; }

const MetricDef* FindMetricDef(std::string_view name) {
  for (const MetricDef& def : kMetricDefs) {
    if (MatchesMetricPattern(def.name, name)) return &def;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never dies.
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    DeclaredOrDie(name, MetricKind::kCounter);
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    DeclaredOrDie(name, MetricKind::kGauge);
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    const MetricDef& def = DeclaredOrDie(name, MetricKind::kHistogram);
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::vector<double>(
                          def.buckets.begin(), def.buckets.end())))
             .first;
  }
  return *it->second;
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.metrics.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kCounter;
    m.value = static_cast<double>(counter->value());
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kGauge;
    m.value = gauge->value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kHistogram;
    m.count = histogram->count();
    m.sum = histogram->sum();
    m.upper_bounds = histogram->upper_bounds();
    m.buckets = histogram->bucket_counts();
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace xmodel::obs
