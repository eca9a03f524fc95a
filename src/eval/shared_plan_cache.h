#ifndef SEMOPT_EVAL_SHARED_PLAN_CACHE_H_
#define SEMOPT_EVAL_SHARED_PLAN_CACHE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/plan_cache.h"

namespace semopt {

/// A cross-session plan cache: N independently-locked PlanCache shards,
/// selected by a hash of the rule's text. PlanCache entries are already
/// content-addressed (rule text + regime flags + cardinality bands),
/// so plans prepared by one session are valid for every other session
/// evaluating over the same shared database — the only thing sharing
/// needs is locking, and sharding keeps concurrent coordinators from
/// serializing on one mutex (different rules almost always land on
/// different shards).
///
/// The per-shard LRU cap applies independently, so the total bound is
/// `shards * max_entries_per_shard`. Get also bumps the process-wide
/// counters eval.shared_plan_cache.{hit,miss} (per-session hit/miss
/// counts flow through `stats` exactly as with a private cache).
///
/// Note on hits: a hit revalidates the plan's probe indexes, which may
/// lazily build an index on a shared relation — safe under the
/// concurrent-EnsureIndex contract of Relation.
class SharedPlanCache : public PlanCacheInterface {
 public:
  static constexpr size_t kDefaultShards = 8;

  explicit SharedPlanCache(
      size_t shards = kDefaultShards,
      size_t max_entries_per_shard = PlanCache::kDefaultMaxEntries);

  Result<RuleExecutor::PreparedPlan> Get(
      const RuleExecutor& exec, const RelationSource& source,
      int delta_literal, EvalStats* stats, bool partitioned = false,
      bool coarse_bands = false) override;

  void Clear() override;

  size_t shard_count() const { return shards_.size(); }
  /// Aggregates over all shards (each taken under its lock).
  size_t size() const;
  size_t hits() const;
  size_t misses() const;
  size_t evictions() const;

 private:
  struct Shard {
    std::mutex mu;
    PlanCache cache;
    explicit Shard(size_t max_entries) : cache(max_entries) {}
  };

  Shard& ShardFor(const RuleExecutor& exec);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace semopt

#endif  // SEMOPT_EVAL_SHARED_PLAN_CACHE_H_
