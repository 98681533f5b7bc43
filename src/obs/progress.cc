#include "obs/progress.h"

#include <cinttypes>

namespace xmodel::obs {

std::string TextProgressReporter::FormatLine(
    const CheckerProgress& progress) {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%s: %" PRIu64 " states generated (%.0f s/sec), %" PRIu64
      " distinct, %" PRIu64 " on queue, depth %" PRId64 ", fp load %.2f",
      progress.final_report ? "done" : "progress", progress.generated_states,
      progress.states_per_sec, progress.distinct_states,
      progress.frontier_size, progress.depth, progress.fingerprint_load);
  std::string line(buf);
  if (progress.final_report) {
    std::snprintf(buf, sizeof(buf), " (%.2f s total)", progress.seconds);
    line += buf;
  }
  return line;
}

void TextProgressReporter::Report(const CheckerProgress& progress) {
  std::string line = FormatLine(progress);
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) {
    *sink_ += line;
    *sink_ += '\n';
  } else {
    std::fprintf(out_, "%s\n", line.c_str());
    std::fflush(out_);
  }
}

void ProgressTracker::Report(const CheckerProgress& progress) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    latest_ = progress;
    ++reports_;
    if (progress.final_report) ++runs_completed_;
  }
  if (next_ != nullptr) next_->Report(progress);
}

CheckerProgress ProgressTracker::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

uint64_t ProgressTracker::reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

uint64_t ProgressTracker::runs_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_completed_;
}

common::Json ProgressTracker::ToJson() const {
  CheckerProgress p;
  uint64_t reports = 0;
  uint64_t runs = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    p = latest_;
    reports = reports_;
    runs = runs_completed_;
  }
  common::Json out = common::Json::MakeObject();
  out.Set("schema", common::Json::Str("xmodel.progress.v1"));
  out.Set("reports", common::Json::Int(static_cast<int64_t>(reports)));
  out.Set("runs_completed", common::Json::Int(static_cast<int64_t>(runs)));
  out.Set("generated_states",
          common::Json::Int(static_cast<int64_t>(p.generated_states)));
  out.Set("distinct_states",
          common::Json::Int(static_cast<int64_t>(p.distinct_states)));
  out.Set("frontier_size",
          common::Json::Int(static_cast<int64_t>(p.frontier_size)));
  out.Set("depth", common::Json::Int(p.depth));
  out.Set("seconds", common::Json::Double(p.seconds));
  out.Set("states_per_sec", common::Json::Double(p.states_per_sec));
  out.Set("fingerprint_load", common::Json::Double(p.fingerprint_load));
  out.Set("final_report", common::Json::Bool(p.final_report));
  return out;
}

}  // namespace xmodel::obs
