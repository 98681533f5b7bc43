#include "trace/mbtc_pipeline.h"

#include "common/strings.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tlax/tla_text.h"

namespace xmodel::trace {

namespace {

/// Phase timer: records elapsed milliseconds into a latency histogram on
/// destruction. Phases are the paper's Figure 1 stages — parse (merge +
/// post-process the per-node logs), map (state sequence → Trace module),
/// check (trace check against the spec).
class PhaseTimer {
 public:
  PhaseTimer(common::MonotonicClock* clock, const char* histogram_name)
      : clock_(clock),
        start_ns_(clock->NowNanos()),
        histogram_(obs::MetricsRegistry::Global().GetHistogram(
            histogram_name)) {}
  ~PhaseTimer() {
    histogram_.Observe(
        static_cast<double>(clock_->NowNanos() - start_ns_) * 1e-6);
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  common::MonotonicClock* clock_;
  int64_t start_ns_;
  obs::Histogram& histogram_;
};

}  // namespace

std::vector<tlax::TraceState> MbtcPipeline::ToTraceStates(
    const std::vector<tlax::State>& states) {
  std::vector<tlax::TraceState> out;
  out.reserve(states.size());
  for (const tlax::State& s : states) {
    out.push_back(specs::RaftMongoSpec::ToObservableTraceState(s));
  }
  return out;
}

MbtcReport MbtcPipeline::Run(
    const std::vector<std::vector<std::string>>& log_files) const {
  XMODEL_SPAN("mbtc.run");
  common::MonotonicClock* clock = options_.clock != nullptr
                                      ? options_.clock
                                      : common::MonotonicClock::Real();
  auto& registry = obs::MetricsRegistry::Global();
  const int64_t run_start_ns = clock->NowNanos();

  MbtcReport report;
  obs::EventLog& events = obs::EventLog::Global();

  // Phase boundaries double as liveness heartbeats and debug events:
  // the watchdog re-arms whenever a phase starts, so a wedge inside any
  // one phase eventually degrades /healthz.
  auto enter_phase = [&](const char* phase) {
    if (options_.watchdog != nullptr) options_.watchdog->Heartbeat();
    if (events.enabled()) {
      events.Emit(obs::EventSeverity::kDebug, "mbtc", "phase.started",
                  {{"phase", phase}});
    }
  };

  auto fail = [&](MbtcReport&& r) {
    registry.GetCounter("mbtc.runs.failed").Increment();
    if (events.enabled()) {
      events.Emit(obs::EventSeverity::kWarn, "mbtc", "run.failed",
                  {{"status", r.status.ToString()}});
    }
    return std::move(r);
  };

  ProcessedTrace processed;
  {
    XMODEL_SPAN("mbtc.parse");
    enter_phase("parse");
    PhaseTimer timer(clock, "mbtc.phase.parse.ms");
    auto merged = MergeLogs(log_files);
    if (!merged.ok()) {
      report.status = merged.status();
      return fail(std::move(report));
    }
    report.num_events = merged->size();

    EventProcessor processor(options_.processor);
    processed = processor.Process(*merged);
    if (!processed.ok()) {
      report.status = processed.status;
      return fail(std::move(report));
    }
    report.num_states = processed.states.size();
  }

  std::vector<tlax::TraceState> trace;
  {
    XMODEL_SPAN("mbtc.map");
    enter_phase("map");
    PhaseTimer timer(clock, "mbtc.phase.map.ms");
    trace = ToTraceStates(processed.states);
    if (options_.emit_trace_module) {
      report.trace_module =
          tlax::TraceModuleText("Trace", spec_->variables(), trace);
    }
  }

  {
    XMODEL_SPAN("mbtc.check");
    enter_phase("check");
    PhaseTimer timer(clock, "mbtc.phase.check.ms");
    tlax::TraceChecker checker(options_.checker);
    report.check = checker.Check(*spec_, trace);
  }
  if (options_.watchdog != nullptr) options_.watchdog->Heartbeat();

  if (events.enabled()) {
    if (!report.check.ok()) {
      events.Emit(
          obs::EventSeverity::kError, "mbtc", "trace.mismatch",
          {{"failed_step", common::StrCat(report.check.failed_step)},
           {"states_explored", common::StrCat(report.check.states_explored)},
           {"status", report.check.status.ToString()}});
    }
    events.Emit(obs::EventSeverity::kInfo, "mbtc", "run.completed",
                {{"events", common::StrCat(report.num_events)},
                 {"states", common::StrCat(report.num_states)},
                 {"passed", report.passed() ? "true" : "false"}});
  }
  registry.GetCounter("mbtc.runs.completed").Increment();
  registry.GetCounter("mbtc.events.ingested").Increment(report.num_events);
  registry.GetCounter("mbtc.states.mapped").Increment(report.num_states);
  if (!report.check.ok()) {
    registry.GetCounter("mbtc.mismatches.found").Increment();
  }
  const double seconds =
      static_cast<double>(clock->NowNanos() - run_start_ns) * 1e-9;
  registry.GetGauge("mbtc.run.seconds").Set(seconds);
  if (seconds > 0) {
    registry.GetGauge("mbtc.run.events_per_sec")
        .Set(static_cast<double>(report.num_events) / seconds);
  }
  return report;
}

}  // namespace xmodel::trace
