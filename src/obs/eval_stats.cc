#include "obs/eval_stats.h"

#include "util/string_util.h"

namespace semopt {

void EvalStats::PublishTo(obs::MetricsRegistry& registry,
                          std::string_view prefix) const {
  std::string p(prefix);
  registry.GetCounter(p + ".iterations").Add(iterations);
  registry.GetCounter(p + ".rule_applications").Add(rule_applications);
  registry.GetCounter(p + ".derived_tuples").Add(derived_tuples);
  registry.GetCounter(p + ".duplicate_tuples").Add(duplicate_tuples);
  registry.GetCounter(p + ".bindings_explored").Add(bindings_explored);
  registry.GetCounter(p + ".comparison_checks").Add(comparison_checks);
  registry.GetCounter(p + ".runtime_residue_checks")
      .Add(runtime_residue_checks);
  registry.GetCounter(p + ".plan_cache.hit").Add(plan_cache_hits);
  registry.GetCounter(p + ".plan_cache.miss").Add(plan_cache_misses);
  registry.GetCounter(p + ".batches").Add(batches);
  registry.GetCounter(p + ".morsels").Add(morsels);
  registry.GetCounter(p + ".morsel_steals").Add(morsel_steals);
  registry.GetCounter(p + ".eval_us").Add(eval_ns / 1000);
  if (!rounds.empty()) {
    obs::Histogram& round_us = registry.GetHistogram(p + ".round_us");
    obs::Histogram& round_delta = registry.GetHistogram(p + ".round_delta");
    for (const RoundTiming& rt : rounds) {
      round_us.Observe(rt.ns / 1000);
      round_delta.Observe(rt.delta_out);
    }
  }
  for (const auto& [label, rs] : per_rule) {
    std::string rule_prefix = StrCat(p, ".rule.", label);
    registry.GetCounter(rule_prefix + ".applications").Add(rs.applications);
    registry.GetCounter(rule_prefix + ".derived").Add(rs.derived);
    registry.GetCounter(rule_prefix + ".duplicates").Add(rs.duplicates);
    registry.GetCounter(rule_prefix + ".exec_us").Add(rs.exec_ns / 1000);
  }
  if (!round_balance.empty()) {
    obs::Histogram& min_hist =
        registry.GetHistogram(p + ".round_tuples_per_worker_min");
    obs::Histogram& max_hist =
        registry.GetHistogram(p + ".round_tuples_per_worker_max");
    for (const RoundBalance& rb : round_balance) {
      min_hist.Observe(rb.min_tuples);
      max_hist.Observe(rb.max_tuples);
    }
  }
}

}  // namespace semopt
