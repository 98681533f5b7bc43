#ifndef XMODEL_OT_COVERAGE_H_
#define XMODEL_OT_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace xmodel::ot {

/// Branch-coverage accounting for the array merge rules, standing in for
/// the paper's LCOV measurement (§5.2: 36 handwritten tests covered 18 of
/// 86 branches; the AFL fuzzer 79; the generated tests all 86).
///
/// Every distinct decision outcome inside the merge rules is marked with
/// MERGE_COVER("RuleName_case"); the full branch universe is declared
/// statically so that "N of M branches" is well-defined even before any
/// branch executes.
///
/// Thread safety: the branch set is fixed once static initialization is
/// over (Declare runs only from merge_rules.cc's static initializer), and
/// each counter is a relaxed atomic, so Hit and the readers may run on any
/// number of threads at once (the MBTCG runner merges cases in parallel).
/// Reset is not concurrent with Hit: call it between runs.
class CoverageRegistry {
 public:
  static CoverageRegistry& Instance();

  /// Declares a branch as part of the universe (done once, at startup, by
  /// merge_rules.cc). Returns the branch id.
  int Declare(const std::string& name);

  /// Declares a branch that may be hit but does not count toward the
  /// universe — the analogue of the paper's LCOV_EXCL markers for
  /// config-gated code the spec is not meant to exercise.
  int DeclareExcluded(const std::string& name);

  /// Marks a branch hit. Aborts when the name was never declared
  /// (catching typos in instrumentation).
  void Hit(std::string_view name);

  /// Zeroes every counter. Not safe while another thread is in Hit.
  void Reset();

  size_t total_branches() const { return hits_.size(); }
  size_t covered_branches() const;
  double CoverageFraction() const;

  /// Names of branches never hit since the last Reset.
  std::vector<std::string> UncoveredBranches() const;

  uint64_t hits(std::string_view name) const;

 private:
  using Counters = std::map<std::string, std::atomic<uint64_t>, std::less<>>;

  CoverageRegistry() = default;
  Counters hits_;
  Counters excluded_hits_;
};

/// RAII scope that resets coverage on entry (for measuring one suite).
class CoverageScope {
 public:
  CoverageScope() { CoverageRegistry::Instance().Reset(); }
};

}  // namespace xmodel::ot

#endif  // XMODEL_OT_COVERAGE_H_
