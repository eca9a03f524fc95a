#include "eval/shared_plan_cache.h"

#include <functional>
#include <string>

#include "obs/metrics.h"

namespace semopt {

SharedPlanCache::SharedPlanCache(size_t shards,
                                 size_t max_entries_per_shard) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(max_entries_per_shard));
  }
}

SharedPlanCache::Shard& SharedPlanCache::ShardFor(const RuleExecutor& exec) {
  // The rule's text is the cache key's identity component; hashing it
  // routes all regimes/deltas of one rule to one shard (so a rule's
  // band trajectory shares one LRU) and different rules across shards.
  const size_t h = std::hash<std::string>{}(exec.rule().ToString());
  return *shards_[h % shards_.size()];
}

Result<RuleExecutor::PreparedPlan> SharedPlanCache::Get(
    const RuleExecutor& exec, const RelationSource& source, int delta_literal,
    EvalStats* stats, bool partitioned, bool coarse_bands) {
  Shard& shard = ShardFor(exec);
  size_t hits_before, result_hits;
  Result<RuleExecutor::PreparedPlan> plan = [&] {
    std::lock_guard<std::mutex> lock(shard.mu);
    hits_before = shard.cache.hits();
    auto r = shard.cache.Get(exec, source, delta_literal, stats, partitioned,
                             coarse_bands);
    result_hits = shard.cache.hits();
    return r;
  }();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (result_hits > hits_before) {
    registry.GetCounter("eval.shared_plan_cache.hit").Add(1);
  } else {
    registry.GetCounter("eval.shared_plan_cache.miss").Add(1);
  }
  return plan;
}

void SharedPlanCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cache.Clear();
  }
}

size_t SharedPlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->cache.size();
  }
  return total;
}

size_t SharedPlanCache::hits() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->cache.hits();
  }
  return total;
}

size_t SharedPlanCache::misses() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->cache.misses();
  }
  return total;
}

size_t SharedPlanCache::evictions() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->cache.evictions();
  }
  return total;
}

}  // namespace semopt
