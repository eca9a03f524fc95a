#ifndef SEMOPT_EVAL_COST_PLANNER_H_
#define SEMOPT_EVAL_COST_PLANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "storage/relation.h"

namespace semopt {

/// The memoized join-order enumerator behind RuleExecutor::Prepare:
/// the one join-order planner. It orders the positive relational
/// literals of a body from relation sizes and the per-column distinct
/// sketches of Relation::EnsureStats; bodies outside its envelope keep
/// BuildPlan's greedy most-bound-then-smallest pick.
class CostPlanner {
 public:
  /// One positive relational body literal, as the cost model sees it.
  struct LiteralInput {
    size_t original_index = 0;  // position in the rule body
    /// Current cardinality of the relation this literal reads
    /// (delta-aware: the delta occurrence reports its delta's size).
    size_t size = 0;
    /// Distinct-count estimates for that relation (null => absent
    /// relation; treated as empty).
    std::shared_ptr<const RelationStats> stats;
    /// Per column: the variable's frame slot, or kConstantSlot for a
    /// constant argument.
    std::vector<uint32_t> slots;
  };
  static constexpr uint32_t kConstantSlot = UINT32_MAX;

  struct Result {
    /// Original-body indices of the positive relational literals in
    /// chosen execution order.
    std::vector<size_t> order;
    /// Per entry of `order`: the estimated bindings (matched rows) the
    /// step produces over the whole execution (the `est~` annotation of
    /// RuleExecutor::DescribePlan).
    std::vector<double> est_rows;
    /// Memo diagnostics (unit tests, eval.planner.cost.* counters).
    size_t memo_states = 0;
    size_t memo_hits = 0;
  };

  /// Enumerates join orders of `literals` (all positive relational) and
  /// returns the cheapest, with `force_first` (an original index, or
  /// -1) pinned to the front — the partitioned engine's delta-to-front
  /// rotation is a constraint on the search space, not a post-pass.
  ///
  /// Cost model, per scheduled step: every input row pays a probe (or a
  /// full scan when no column is bound) and fans out into
  ///   est = size / prod(distinct[c] for each bound column c)
  /// rows, independence-assumed. States are memoized on (bound-variable
  /// set, remaining-literal set); with <= 16 literals the walk is at
  /// most 2^16 states. Returns nullopt — caller falls back to greedy —
  /// when there is at most one literal to order, more than 16, or a
  /// frame slot beyond 64 (the bound set is a bitmask).
  static std::optional<Result> Enumerate(
      const std::vector<LiteralInput>& literals, int force_first);
};

}  // namespace semopt

#endif  // SEMOPT_EVAL_COST_PLANNER_H_
