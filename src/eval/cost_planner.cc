#include "eval/cost_planner.h"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace semopt {

namespace {

/// Per-step probe overhead in "row visit" units: an index probe costs a
/// hash plus a short bucket walk, charged against every input row. Kept
/// small so the dominant term stays the fan-out estimate.
constexpr double kProbeCost = 1.5;
/// Estimates below this are floored: a step never costs less than a
/// vanishing fraction of a row, and the floor keeps products of many
/// selective steps from degenerating to zero cost.
constexpr double kMinRows = 1e-3;

struct MemoEntry {
  bool done = false;        // state visited
  double cost = 0.0;        // cheapest cost of finishing from this state
  int best_next = -1;       // index into `literals` of the cheapest pick
  double best_est = 0.0;    // that pick's estimated output bindings
};

}  // namespace

std::optional<CostPlanner::Result> CostPlanner::Enumerate(
    const std::vector<LiteralInput>& literals, int force_first) {
  const size_t n = literals.size();
  if (n <= 1 || n > 16) return std::nullopt;
  for (const LiteralInput& lit : literals) {
    for (uint32_t slot : lit.slots) {
      if (slot != kConstantSlot && slot >= 64) return std::nullopt;
    }
  }
  obs::TraceSpan span("cost_plan");

  // Bound-variable set of a scheduled subset: the union of every
  // scheduled literal's slots. Order-independent, so it is a pure
  // function of the mask — which is what makes the (bound set,
  // remaining set) memo sound.
  std::vector<uint64_t> lit_vars(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t slot : literals[i].slots) {
      if (slot != kConstantSlot) lit_vars[i] |= uint64_t{1} << slot;
    }
  }

  // Estimated bindings the step for literal `i` produces per input row,
  // given the bound-variable set: size / prod(distinct of each bound
  // column), under the usual independence assumption. Constants count
  // as bound columns.
  auto est_matches = [&](size_t i, uint64_t bound) -> double {
    const LiteralInput& lit = literals[i];
    double est = static_cast<double>(lit.size);
    for (size_t c = 0; c < lit.slots.size(); ++c) {
      const uint32_t slot = lit.slots[c];
      const bool is_bound =
          slot == kConstantSlot || (bound & (uint64_t{1} << slot)) != 0;
      if (!is_bound) continue;
      size_t distinct = 1;
      if (lit.stats != nullptr && c < lit.stats->distinct.size()) {
        distinct = std::max<size_t>(1, lit.stats->distinct[c]);
      }
      est /= static_cast<double>(distinct);
    }
    return std::max(kMinRows, est);
  };
  auto has_bound_column = [&](size_t i, uint64_t bound) -> bool {
    for (uint32_t slot : literals[i].slots) {
      if (slot == kConstantSlot || (bound & (uint64_t{1} << slot)) != 0) {
        return true;
      }
    }
    return false;
  };

  const uint32_t full = (1u << n) - 1;  // n <= 16 above
  // Memo over (bound-variable set, remaining-literal set). The bound
  // set of a scheduled subset is the union of its literals' variables,
  // a pure function of the scheduled mask, so the mask alone indexes
  // the state: a flat table of 2^n entries.
  std::vector<MemoEntry> memo(size_t{1} << n);
  size_t memo_states = 0;
  size_t memo_hits = 0;

  auto bound_of = [&](uint32_t mask) -> uint64_t {
    uint64_t bound = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) bound |= lit_vars[i];
    }
    return bound;
  };
  // Rows flowing out of the scheduled prefix `mask`: the product of the
  // fan-outs, which under independence is the same in any order, so it
  // is replayed in ascending literal index.
  auto rows_of = [&](uint32_t mask) -> double {
    double rows = 1.0;
    uint64_t bound = 0;
    for (uint32_t remaining = mask; remaining != 0;
         remaining &= remaining - 1) {
      const size_t i = static_cast<size_t>(__builtin_ctz(remaining));
      rows *= est_matches(i, bound);
      bound |= lit_vars[i];
    }
    return std::max(kMinRows, rows);
  };

  // best(mask) = cheapest cost of executing the not-yet-scheduled
  // literals after the scheduled prefix `mask`: a DP over subsets.
  auto best = [&](auto& self, uint32_t mask) -> double {
    if (mask == full) return 0.0;
    MemoEntry& memoized = memo[mask];
    if (memoized.done) {
      ++memo_hits;
      return memoized.cost;
    }
    const uint64_t bound = bound_of(mask);
    const double in_rows = rows_of(mask);
    MemoEntry entry;
    entry.done = true;
    entry.cost = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) continue;
      if (mask == 0 && force_first >= 0 &&
          literals[i].original_index != static_cast<size_t>(force_first)) {
        continue;  // the delta occurrence must drive the plan
      }
      const double matches = est_matches(i, bound);
      const double access =
          has_bound_column(i, bound)
              ? kProbeCost
              : static_cast<double>(std::max<size_t>(1, literals[i].size));
      const double step_cost = in_rows * (access + matches);
      const double total = step_cost + self(self, mask | (1u << i));
      if (entry.cost < 0.0 || total < entry.cost) {
        entry.cost = total;
        entry.best_next = static_cast<int>(i);
        entry.best_est = in_rows * matches;
      }
    }
    memo[mask] = entry;
    ++memo_states;
    return entry.cost;
  };
  best(best, 0);

  // Re-walk the memo from the root to materialize the chosen order.
  Result result;
  for (uint32_t mask = 0; mask != full;) {
    const MemoEntry& entry = memo[mask];
    if (!entry.done || entry.best_next < 0) return std::nullopt;
    const size_t i = static_cast<size_t>(entry.best_next);
    result.order.push_back(literals[i].original_index);
    result.est_rows.push_back(entry.best_est);
    mask |= 1u << i;
  }
  result.memo_states = memo_states;
  result.memo_hits = memo_hits;

  // Counters are registry-owned and never freed: resolve them once.
  static obs::Counter& plans =
      obs::MetricsRegistry::Global().GetCounter("eval.planner.cost.plans");
  static obs::Counter& states = obs::MetricsRegistry::Global().GetCounter(
      "eval.planner.cost.memo_states");
  static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "eval.planner.cost.memo_hits");
  plans.Add(1);
  states.Add(result.memo_states);
  hits.Add(result.memo_hits);
  return result;
}

}  // namespace semopt
