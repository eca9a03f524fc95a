#ifndef SEMOPT_EVAL_PLAN_CACHE_H_
#define SEMOPT_EVAL_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "obs/eval_stats.h"
#include "eval/rule_executor.h"
#include "util/result.h"

namespace semopt {

/// The plan-memo surface the fixpoint engine plans through: either the
/// single-threaded session PlanCache below, or the sharded-mutex
/// SharedPlanCache (eval/shared_plan_cache.h) that many concurrent
/// sessions share. EvalOptions::plan_cache points at one of these.
class PlanCacheInterface {
 public:
  virtual ~PlanCacheInterface() = default;

  /// Returns the memoized plan for `exec` at the current cardinality-
  /// band signature, else plans through `exec.Prepare(...)` and caches
  /// the result. On a hit the plan's probe indexes are revalidated (a
  /// cheap HasIndex sweep that repairs indexes lost to the delta
  /// double-buffer swap). Bumps `stats->plan_cache_{hits,misses}` when
  /// `stats` is non-null. `coarse_bands` collapses every
  /// size below 1024 into one band (its own flag bit): incremental
  /// maintenance opts in so its jittering small deltas reuse one
  /// steady-state plan, while fixpoint evaluation keeps fine bands and
  /// re-plans as its deltas grow.
  virtual Result<RuleExecutor::PreparedPlan> Get(
      const RuleExecutor& exec, const RelationSource& source,
      int delta_literal, EvalStats* stats, bool partitioned = false,
      bool coarse_bands = false) = 0;

  /// Drops every cached plan.
  virtual void Clear() = 0;
};

/// Cross-round (and cross-evaluation) memo of prepared rule plans,
/// keyed by (rule text, delta literal, regime flags, log2 cardinality
/// band of every body relation).
///
/// The planner re-orders joins from the *current* sizes
/// of the input relations, which change every semi-naive round — but a
/// join order only improves when a size crosses an order of magnitude,
/// while re-planning (and re-walking EnsureIndex) every round costs a
/// fixed toll per (rule, delta) per round. Keying on the ⌊log2(size)⌋
/// band signature memoizes one plan per order-of-magnitude regime:
/// rounds with stable sizes hit, a growth round that crosses a band
/// plans once for the new regime, and a band signature seen before —
/// later in the same fixpoint or in a *repeated evaluation* — hits
/// without planning. With `coarse_bands` (incremental maintenance's
/// regime) sizes below a small cap (1024) all share one band:
/// mis-ordering joins of only-small inputs costs microseconds, and the
/// coarse band keeps workloads whose small inputs jitter batch to
/// batch at a 100% steady-state hit rate instead of minting a key per
/// power of two the delta lands in. A cache held across Evaluate calls (see
/// EvalOptions::plan_cache) therefore reaches steady state after one
/// evaluation: re-running the same query re-traverses the same band
/// trajectory and every round hits.
///
/// Identity is the rule's text, not an object address, so one cache is
/// safe to share across evaluations, across extended copies of a
/// program (ad-hoc query rules just add their own entries), and across
/// rule-object lifetimes. Correctness is unconditional: every BuildPlan
/// output derives the same tuples regardless of data, so a stale band
/// costs performance only. Single-threaded coordinator use, like
/// Prepare; for cross-session sharing wrap shards of these in a
/// SharedPlanCache.
///
/// Size is bounded: at most `max_entries` plans are kept, with
/// least-recently-used eviction beyond the cap (every hit refreshes
/// recency). A long-lived session cycling through ad-hoc queries
/// therefore reaches a steady working set instead of growing without
/// limit; each eviction bumps the process-wide
/// `eval.plan_cache.evicted` counter and `evictions()`. The default
/// cap is far above any single workload's live plan count, so
/// steady-state hit rates stay at 100% unless a session genuinely
/// cycles through more distinct (rule, regime) pairs than the cap.
class PlanCache : public PlanCacheInterface {
 public:
  /// Default `max_entries`. A plan is a few hundred bytes of step
  /// specs; 1024 of them is ~1 MB — roomy enough that eviction only
  /// triggers on genuinely unbounded ad-hoc query churn.
  static constexpr size_t kDefaultMaxEntries = 1024;

  explicit PlanCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  Result<RuleExecutor::PreparedPlan> Get(
      const RuleExecutor& exec, const RelationSource& source,
      int delta_literal, EvalStats* stats, bool partitioned = false,
      bool coarse_bands = false) override;

  /// Drops every cached plan (the eviction counter keeps its total).
  void Clear() override {
    entries_.clear();
    lru_.clear();
  }

  size_t size() const { return entries_.size(); }
  size_t max_entries() const { return max_entries_; }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }

 private:
  struct Key {
    /// Exact rule text: content-addressed identity (rule objects are
    /// rebuilt per evaluation; addresses are not stable).
    std::string rule;
    int delta_literal;
    /// Plan regime beyond cardinalities: bit 0 = partitioned
    /// (multi-lane morsel regime), bit 1 = coarse bands (sub-1024
    /// sizes collapsed into one band).
    uint8_t flags;
    /// ⌊log2⌋ band per body literal (relational literals delta-aware;
    /// non-relational hold a fixed sentinel).
    std::vector<uint8_t> bands;

    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    RuleExecutor::PreparedPlan plan;
    /// This entry's position in `lru_` (front = most recent).
    std::list<const Key*>::iterator lru_it;
  };

  /// Band signature of `exec`'s body against the current `source`.
  static std::vector<uint8_t> Signature(const RuleExecutor& exec,
                                        const RelationSource& source,
                                        int delta_literal,
                                        bool coarse_bands);

  /// Evicts least-recently-used entries until under the cap.
  void EvictToCap();

  std::map<Key, Entry> entries_;
  /// Recency list of map-key pointers (map nodes are address-stable).
  std::list<const Key*> lru_;
  size_t max_entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
};

}  // namespace semopt

#endif  // SEMOPT_EVAL_PLAN_CACHE_H_
