#include "eval/plan_cache.h"

#include <bit>
#include <utility>

#include "obs/metrics.h"

namespace semopt {

namespace {
// Non-relational literals (comparisons) have no cardinality; keep a
// band value no relation size can produce.
constexpr uint8_t kNoBand = 0xFF;

// With coarse banding, every size below this shares one band. Join
// order only matters once a relation is big enough to dominate a
// join's cost; distinguishing a 30-row input from a 700-row one
// re-plans for regimes whose worst mis-ordering is microseconds.
// Collapsing them keeps workloads whose small inputs jitter —
// incremental-maintenance deltas above all — on one steady-state plan
// key instead of minting a key per power-of-two the delta lands in.
constexpr size_t kSmallBandCap = 1024;

uint8_t Log2Band(size_t size, bool coarse) {
  // 0 → band 0, [2^k, 2^(k+1)) → band k+1; 64 bands cover any size_t.
  // Coarse: [0, kSmallBandCap) collapses to band 0.
  if (coarse && size < kSmallBandCap) return 0;
  return static_cast<uint8_t>(std::bit_width(size));
}
}  // namespace

std::vector<uint8_t> PlanCache::Signature(const RuleExecutor& exec,
                                          const RelationSource& source,
                                          int delta_literal,
                                          bool coarse_bands) {
  const std::vector<Literal>& body = exec.rule().body();
  std::vector<uint8_t> bands;
  bands.reserve(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    const Literal& lit = body[i];
    if (!lit.IsRelational()) {
      bands.push_back(kNoBand);
      continue;
    }
    const Relation* rel = nullptr;
    if (delta_literal >= 0 && i == static_cast<size_t>(delta_literal)) {
      rel = source.Delta(lit.atom().pred_id());
    }
    if (rel == nullptr) rel = source.Full(lit.atom().pred_id());
    bands.push_back(Log2Band(rel == nullptr ? 0 : rel->size(), coarse_bands));
  }
  return bands;
}

void PlanCache::EvictToCap() {
  static obs::Counter& evicted =
      obs::MetricsRegistry::Global().GetCounter("eval.plan_cache.evicted");
  while (entries_.size() > max_entries_) {
    const Key* oldest = lru_.back();
    lru_.pop_back();
    entries_.erase(*oldest);
    ++evictions_;
    evicted.Add(1);
  }
}

Result<RuleExecutor::PreparedPlan> PlanCache::Get(
    const RuleExecutor& exec, const RelationSource& source, int delta_literal,
    EvalStats* stats, bool partitioned, bool coarse_bands) {
  Key key{exec.fingerprint(), delta_literal,
          static_cast<uint8_t>((partitioned ? 1 : 0) | (coarse_bands ? 2 : 0)),
          Signature(exec, source, delta_literal, coarse_bands)};
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.rule == exec.rule()) {
    ++hits_;
    if (stats != nullptr) ++stats->plan_cache_hits;
    // Refresh recency: splice this entry's node to the front.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    // The plan itself stays valid, but the semi-naive delta
    // double-buffers swap relation objects between rounds (and a
    // repeated evaluation starts from fresh relations entirely):
    // repair any index the current source's relations are missing.
    exec.EnsurePlanIndexes(it->second.plan, source, delta_literal);
    return it->second.plan;
  }
  ++misses_;
  if (stats != nullptr) ++stats->plan_cache_misses;
  SEMOPT_ASSIGN_OR_RETURN(
      RuleExecutor::PreparedPlan plan,
      exec.Prepare(source, delta_literal, partitioned));
  // A fingerprint collision is a miss that leaves the resident entry be.
  if (it != entries_.end()) return plan;
  auto [inserted_it, _] =
      entries_.emplace(std::move(key), Entry{exec.rule(), plan, {}});
  lru_.push_front(&inserted_it->first);
  inserted_it->second.lru_it = lru_.begin();
  EvictToCap();
  return plan;
}

}  // namespace semopt
