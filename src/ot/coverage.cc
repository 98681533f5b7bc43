#include "ot/coverage.h"

#include <cstdio>
#include <cstdlib>

namespace xmodel::ot {

CoverageRegistry& CoverageRegistry::Instance() {
  static CoverageRegistry* instance = new CoverageRegistry();
  return *instance;
}

int CoverageRegistry::Declare(const std::string& name) {
  hits_.try_emplace(name, 0);
  return static_cast<int>(hits_.size());
}

int CoverageRegistry::DeclareExcluded(const std::string& name) {
  excluded_hits_.try_emplace(name, 0);
  return static_cast<int>(excluded_hits_.size());
}

void CoverageRegistry::Hit(std::string_view name) {
  auto it = hits_.find(name);
  if (it == hits_.end()) {
    it = excluded_hits_.find(name);
    if (it == excluded_hits_.end()) {
      std::fprintf(stderr, "MERGE_COVER of undeclared branch '%.*s'\n",
                   static_cast<int>(name.size()), name.data());
      std::abort();
    }
  }
  it->second.fetch_add(1, std::memory_order_relaxed);
}

void CoverageRegistry::Reset() {
  for (auto& [name, count] : hits_) count.store(0, std::memory_order_relaxed);
  for (auto& [name, count] : excluded_hits_) {
    count.store(0, std::memory_order_relaxed);
  }
}

size_t CoverageRegistry::covered_branches() const {
  size_t covered = 0;
  for (const auto& [name, count] : hits_) {
    if (count.load(std::memory_order_relaxed) > 0) ++covered;
  }
  return covered;
}

double CoverageRegistry::CoverageFraction() const {
  if (hits_.empty()) return 0;
  return static_cast<double>(covered_branches()) /
         static_cast<double>(hits_.size());
}

std::vector<std::string> CoverageRegistry::UncoveredBranches() const {
  std::vector<std::string> out;
  for (const auto& [name, count] : hits_) {
    if (count.load(std::memory_order_relaxed) == 0) out.push_back(name);
  }
  return out;
}

uint64_t CoverageRegistry::hits(std::string_view name) const {
  auto it = hits_.find(name);
  if (it == hits_.end()) {
    it = excluded_hits_.find(name);
    if (it == excluded_hits_.end()) return 0;
  }
  return it->second.load(std::memory_order_relaxed);
}

}  // namespace xmodel::ot
