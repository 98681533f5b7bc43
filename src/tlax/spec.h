#ifndef XMODEL_TLAX_SPEC_H_
#define XMODEL_TLAX_SPEC_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tlax/state.h"

namespace xmodel::tlax {

/// A declared read/write variable footprint (by variable name) of an action
/// or invariant — the spec author's statement of which state variables the
/// body may read and which it may write. Optional: when present, the
/// analysis layer checks the observed footprint against it (observed must be
/// a subset of declared) and uses the union for independence computation.
struct Footprint {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

/// A named next-state relation disjunct, like a TLA+ action. `next` appends
/// every successor of `state` permitted by this action to `out` (possibly
/// none when the action is not enabled).
struct Action {
  std::string name;
  std::function<void(const State& state, std::vector<State>* out)> next;
  /// Optional declared variable footprint (see Footprint).
  std::optional<Footprint> footprint{};
};

/// A named state predicate that must hold in every reachable state.
struct Invariant {
  std::string name;
  std::function<bool(const State& state)> predicate;
  /// Optional declared set of variables the predicate reads.
  std::optional<std::vector<std::string>> reads{};
};

/// A declared per-variable domain size: the spec author's closed-form upper
/// bound on how many distinct values `var` takes across the constrained
/// reachable states of this configuration. Optional, by variable name like
/// Footprint. The analysis layer multiplies declared sizes into a static
/// state-space budget when its probe cannot exhaust the reachable region,
/// and cross-checks them against observed domains when it can (observing
/// more distinct values than declared is a lint error).
struct DomainDecl {
  std::string var;
  double size = 0;
};

/// A specification: variables, initial states, actions, and invariants —
/// the same ingredients as a TLA+ spec driven by TLC.
///
/// Subclasses declare variables once and build states with `MakeState`.
/// A state constraint (TLA+ CONSTRAINT) prunes exploration: successors
/// outside the constraint are not expanded (matching TLC semantics, the
/// constraint is checked on states before their successors are generated).
class Spec {
 public:
  virtual ~Spec() = default;

  virtual std::string name() const = 0;
  virtual const std::vector<std::string>& variables() const = 0;
  virtual std::vector<State> InitialStates() const = 0;
  virtual const std::vector<Action>& actions() const = 0;
  virtual const std::vector<Invariant>& invariants() const = 0;

  /// TLA+ CONSTRAINT: exploration does not expand states outside it.
  virtual bool WithinConstraint(const State& state) const {
    (void)state;
    return true;
  }

  /// Symmetry reduction (TLC's SYMMETRY sets, as used by Tasiran et al. to
  /// shrink the coverage space — paper §3): returns the canonical
  /// representative of the state's symmetry orbit. The checker deduplicates
  /// canonical states, exploring one representative per orbit. The default
  /// is the identity (no symmetry). It runs once per generated successor,
  /// so it should be a per-state sort, not a search: for interchangeable
  /// nodes, sorting the node columns gives the least relabeling, because
  /// swapping two adjacent out-of-order columns makes the state strictly
  /// smaller and equal columns are identical (RaftMongoSpec::Canonicalize).
  /// Note TLC's caveat applies here too: counterexample traces run over
  /// representatives, so consecutive steps may differ by a symmetry
  /// permutation.
  virtual State Canonicalize(const State& state) const { return state; }

  /// Optional declared per-variable domain sizes (see DomainDecl) for the
  /// spec's current configuration. Declaring nothing is always sound; the
  /// abstract-domain pass then relies purely on observation.
  virtual std::vector<DomainDecl> DeclaredDomains() const { return {}; }

  /// Index of a variable by name; -1 when absent.
  int VarIndex(std::string_view var_name) const {
    const auto& vars = variables();
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == var_name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Generates all successors of `state` across all actions, in action
  /// declaration order.
  std::vector<State> Successors(const State& state) const {
    std::vector<State> out;
    for (const Action& action : actions()) action.next(state, &out);
    return out;
  }
};

}  // namespace xmodel::tlax

#endif  // XMODEL_TLAX_SPEC_H_
