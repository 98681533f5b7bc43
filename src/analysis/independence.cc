#include "analysis/independence.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/strings.h"

namespace xmodel::analysis {

ActionIndependence ComputeIndependence(const tlax::Spec& spec,
                                       const SpecFootprints& footprints) {
  const size_t num_actions = spec.actions().size();
  ActionIndependence matrix(num_actions);
  const uint64_t all_vars =
      spec.variables().size() >= 64
          ? ~uint64_t{0}
          : (uint64_t{1} << spec.variables().size()) - 1;

  std::vector<uint64_t> reads(num_actions), writes(num_actions);
  for (size_t a = 0; a < num_actions; ++a) {
    const ActionFootprint& fp = footprints.actions[a];
    if (!fp.has_declared && fp.times_enabled == 0) {
      // Nothing is known; assume the worst.
      reads[a] = all_vars;
      writes[a] = all_vars;
    } else {
      reads[a] = fp.reads();
      writes[a] = fp.writes();
    }
  }

  // Writing a variable the state constraint reads breaks the commutativity
  // diamond even when the two actions' own footprints are disjoint: the
  // a-then-b interleaving can pass through a state outside the constraint,
  // which the checker never expands, so a reduction that explored only the
  // other interleaving could lose successors. Such writers therefore
  // commute with nothing.
  const uint64_t constraint_reads = footprints.constraint_reads;
  for (size_t a = 0; a < num_actions; ++a) {
    for (size_t b = a + 1; b < num_actions; ++b) {
      bool commutes =
          (writes[a] & (reads[b] | writes[b] | constraint_reads)) == 0 &&
          (writes[b] & (reads[a] | writes[a] | constraint_reads)) == 0;
      matrix.SetCommutes(a, b, commutes);
    }
  }
  return matrix;
}

RefinedIndependence RefineIndependence(const tlax::Spec& spec,
                                       const SpecFootprints& footprints,
                                       const SpecDomains& domains) {
  RefinedIndependence out{ComputeIndependence(spec, footprints), 0, {}};
  out.base_commuting = out.matrix.NumCommutingPairs();
  // The constraint-closure proof quantifies over every reachable
  // in-constraint state; a truncated probe proves nothing, so the base
  // matrix stands.
  if (!domains.exhaustive) return out;

  const size_t num_actions = spec.actions().size();
  if (domains.actions.size() != num_actions) return out;
  const uint64_t all_vars =
      spec.variables().size() >= 64
          ? ~uint64_t{0}
          : (uint64_t{1} << spec.variables().size()) - 1;

  std::vector<uint64_t> reads(num_actions), writes(num_actions);
  std::vector<bool> constraint_ok(num_actions);
  for (size_t a = 0; a < num_actions; ++a) {
    const ActionFootprint& fp = footprints.actions[a];
    if (!fp.has_declared && fp.times_enabled == 0) {
      reads[a] = all_vars;
      writes[a] = all_vars;
    } else {
      reads[a] = fp.reads();
      writes[a] = fp.writes();
    }
    // Harmless to the constraint: cannot touch what it reads, or proved
    // closed over the (exhaustively probed) reachable region.
    constraint_ok[a] = (writes[a] & footprints.constraint_reads) == 0 ||
                       domains.actions[a].constraint_safe();
  }

  for (size_t a = 0; a < num_actions; ++a) {
    for (size_t b = a + 1; b < num_actions; ++b) {
      if (out.matrix.Commutes(a, b)) continue;
      const bool disjoint =
          (writes[a] & (reads[b] | writes[b])) == 0 &&
          (writes[b] & (reads[a] | writes[a])) == 0;
      if (disjoint && constraint_ok[a] && constraint_ok[b]) {
        out.matrix.SetCommutes(a, b, true);
        out.added.emplace_back(a, b);
      }
    }
  }
  return out;
}

std::string IndependenceToText(const tlax::Spec& spec,
                               const ActionIndependence& matrix) {
  const std::vector<tlax::Action>& actions = spec.actions();
  size_t width = 0;
  for (const tlax::Action& action : actions) {
    width = std::max(width, action.name.size());
  }
  std::string out;
  for (size_t a = 0; a < actions.size(); ++a) {
    out += actions[a].name;
    out.append(width - actions[a].name.size() + 2, ' ');
    for (size_t b = 0; b < actions.size(); ++b) {
      out += a == b ? '-' : (matrix.Commutes(a, b) ? '.' : 'C');
    }
    out += '\n';
  }
  out += common::StrCat(matrix.NumCommutingPairs(),
                        " commuting pair(s) of ",
                        actions.size() * (actions.size() - 1) / 2, "\n");
  return out;
}

}  // namespace xmodel::analysis
