#ifndef XMODEL_ANALYSIS_INDEPENDENCE_H_
#define XMODEL_ANALYSIS_INDEPENDENCE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analysis/domain.h"
#include "analysis/footprint.h"
#include "tlax/spec.h"

namespace xmodel::analysis {

/// A symmetric action-commutativity matrix: `Commutes(a, b)` is true when
/// actions `a` and `b` have disjoint footprint conflicts — neither writes a
/// variable the other reads or writes — so executing them in either order
/// from any state reaches the same successors. Computed by
/// ComputeIndependence from declared plus inferred footprints and
/// reported by `xmodel_lint --matrix`; the model checker does not read it.
///
/// The matrix is conservative: `Commutes` may be false for actions that in
/// fact commute (footprints over-approximate), never true for actions that
/// conflict, as long as the footprints it was built from are sound.
class ActionIndependence {
 public:
  ActionIndependence() = default;
  explicit ActionIndependence(size_t num_actions)
      : num_actions_(num_actions),
        commutes_(num_actions * num_actions, false) {}

  size_t num_actions() const { return num_actions_; }

  bool Commutes(size_t a, size_t b) const {
    return commutes_[a * num_actions_ + b];
  }

  void SetCommutes(size_t a, size_t b, bool value) {
    commutes_[a * num_actions_ + b] = value;
    commutes_[b * num_actions_ + a] = value;
  }

  /// Number of unordered commuting pairs of distinct actions.
  size_t NumCommutingPairs() const {
    size_t pairs = 0;
    for (size_t a = 0; a < num_actions_; ++a) {
      for (size_t b = a + 1; b < num_actions_; ++b) {
        if (Commutes(a, b)) ++pairs;
      }
    }
    return pairs;
  }

 private:
  size_t num_actions_ = 0;
  std::vector<bool> commutes_;
};

/// Computes the action-commutativity matrix from footprints: two actions
/// commute when neither writes a variable the other reads or writes. The
/// effective footprint of an action is the union of its declared and
/// observed sets; an action with no declaration that was never observed
/// enabled is conservatively treated as touching every variable (nothing is
/// known about it).
ActionIndependence ComputeIndependence(const tlax::Spec& spec,
                                       const SpecFootprints& footprints);

/// A footprint matrix strengthened by abstract-domain value reasoning.
struct RefinedIndependence {
  ActionIndependence matrix;
  /// Commuting pairs of the footprint-only base matrix.
  size_t base_commuting = 0;
  /// Pairs the value-sensitive refinement added on top of the base.
  std::vector<std::pair<size_t, size_t>> added;
};

/// Value-sensitive independence: starts from ComputeIndependence and
/// additionally proves disjoint-footprint pairs commuting when both
/// actions are harmless to the state constraint — each either writes no
/// constraint-read variable at all (the base rule) or carries the probe's
/// constraint-closure proof (ActionDomain::constraint_safe: every
/// successor it generates from a reachable in-constraint state stays
/// in-constraint, so neither interleaving of the diamond can leave the
/// explored region). The closure proof is only trusted when the domain
/// probe was exhaustive AND probed the exact spec configuration being
/// checked; with a sampled probe the result equals the base matrix. The
/// result is a superset of the base.
RefinedIndependence RefineIndependence(const tlax::Spec& spec,
                                       const SpecFootprints& footprints,
                                       const SpecDomains& domains);

/// Renders the matrix as a table with one row per action ('.' = commutes,
/// 'C' = conflicts, '-' = diagonal), stable for golden tests.
std::string IndependenceToText(const tlax::Spec& spec,
                               const ActionIndependence& matrix);

}  // namespace xmodel::analysis

#endif  // XMODEL_ANALYSIS_INDEPENDENCE_H_
