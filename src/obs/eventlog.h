#ifndef XMODEL_OBS_EVENTLOG_H_
#define XMODEL_OBS_EVENTLOG_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/status.h"

namespace xmodel::obs {

/// Event severities, ascending. kDebug is the per-level-barrier firehose;
/// kInfo marks lifecycle transitions (run started/completed, election won);
/// kWarn marks spill-worthy anomalies (budget overruns, aborted runs,
/// watchdog stalls); kError marks verdicts (violation found,
/// trace mismatch).
enum class EventSeverity { kDebug = 0, kInfo, kWarn, kError };

/// Stable lowercase name ("debug", "info", "warn", "error").
const char* EventSeverityName(EventSeverity severity);

/// One structured log event — the `xmodel.events.v1` record. `fields` are
/// pre-stringified key/value pairs (callers StrCat numeric values), kept
/// flat so emission never recurses into a JSON tree on the hot path.
struct Event {
  uint64_t seq = 0;    // Global emission order, dense from 0.
  int64_t ts_us = 0;   // Monotonic-clock microseconds at emission.
  EventSeverity severity = EventSeverity::kInfo;
  std::string subsystem;  // "checker", "repl", "mbtc", "obs".
  std::string name;       // "level.completed", "election.won", ...
  std::vector<std::pair<std::string, std::string>> fields;

  /// {"seq":N,"ts_us":N,"severity":"...","subsystem":"...","event":"...",
  ///  "fields":{...}} — one line of the JSONL sink.
  common::Json ToJson() const;
};

/// A bounded MPMC ring buffer of structured events plus an optional JSONL
/// file sink. Designed for many concurrent emitters (checker workers, the
/// repl simulation, pipeline phases) and occasional readers (the /events
/// HTTP endpoint, tests):
///
/// - The ring slot claim is a single relaxed fetch_add — emitters never
///   contend on a global lock. Publication into the claimed slot takes a
///   per-slot latch, so two emitters only ever block each other when the
///   ring has wrapped all the way around between them, and readers copy a
///   consistent record or skip a slot mid-overwrite (the stamp tells them
///   which).
/// - Overflow keeps the newest `capacity` events; older ones are silently
///   overwritten. `total_emitted()` still counts everything.
/// - The JSONL sink, when attached, serializes each event as one JSON line
///   under its own mutex — the durable channel for long runs; the ring
///   stays the cheap in-memory tail.
class EventLog {
 public:
  /// `capacity` is the ring size (floored at 1). `clock` timestamps events;
  /// null means the process steady clock (tests inject a fake).
  explicit EventLog(size_t capacity = kDefaultCapacity,
                    common::MonotonicClock* clock = nullptr);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The process-wide log all built-in instrumentation emits to.
  static EventLog& Global();

  /// Emits one event. Thread-safe; cheap when no sink is attached (one
  /// fetch_add, one uncontended per-slot latch, the field copies).
  void Emit(EventSeverity severity, std::string_view subsystem,
            std::string_view name,
            std::initializer_list<std::pair<std::string_view, std::string>>
                fields = {});

  /// The newest min(n, capacity, total_emitted) events, oldest first.
  /// Slots being overwritten concurrently are skipped, so a tail taken
  /// during a write storm can be momentarily shorter than requested.
  std::vector<Event> Tail(size_t n) const;

  /// Serializes `events` as JSONL (one Event::ToJson() line each).
  static std::string ToJsonl(const std::vector<Event>& events);

  /// Attaches a JSONL file sink; every subsequent Emit appends one line.
  /// Replaces any previous sink.
  common::Status OpenJsonlSink(const std::string& path);
  /// Flushes and closes the sink (no-op when none is attached).
  void CloseJsonlSink();

  uint64_t total_emitted() const {
    return next_.load(std::memory_order_acquire);
  }
  size_t capacity() const { return capacity_; }

  /// Kill switch for hot loops that must not pay even the slot claim.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Tests: swap the timestamp source (not thread-safe vs. active emits).
  void set_clock(common::MonotonicClock* clock);
  /// Tests: drop every buffered event and reset the sequence to 0.
  void Clear();

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  struct Slot;

  const size_t capacity_;
  common::MonotonicClock* clock_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<bool> enabled_{true};

  std::atomic<bool> has_sink_{false};
  std::mutex sink_mu_;
  std::ofstream sink_;
};

}  // namespace xmodel::obs

#endif  // XMODEL_OBS_EVENTLOG_H_
