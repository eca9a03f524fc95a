#ifndef SEMOPT_OBS_EVAL_STATS_H_
#define SEMOPT_OBS_EVAL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace semopt {

/// Per-rule work counters, keyed by rule label (head predicate when a
/// rule is unlabeled). Collected only when
/// `EvalOptions::collect_metrics` is set, so the default evaluation
/// path never touches the map.
struct RuleStats {
  size_t applications = 0;
  size_t derived = 0;
  size_t duplicates = 0;
  /// Wall time spent executing this rule's joins, summed over
  /// applications. Nanoseconds; the engine sums per-task worker time
  /// (so with several lanes, concurrent morsels count their full
  /// individual durations — it is CPU time shape, not elapsed round
  /// time).
  uint64_t exec_ns = 0;

  void Add(const RuleStats& o) {
    applications += o.applications;
    derived += o.derived;
    duplicates += o.duplicates;
    exec_ns += o.exec_ns;
  }
};

/// One fixpoint round as the engine executed it: which stratum, the
/// 1-based global round index within the evaluation, its wall time and
/// the delta it consumed/produced. Collected whenever the caller passed
/// an EvalStats (two clock reads per round — cheap enough for the
/// always-on query log), independent of `collect_metrics`.
struct RoundTiming {
  size_t stratum = 0;
  size_t round = 0;
  uint64_t ns = 0;
  /// Tuples in the consumed delta (0 for round 1 / non-recursive).
  size_t delta_in = 0;
  /// Tuples in the produced delta (0 on non-recursive rounds).
  size_t delta_out = 0;
  /// New tuples inserted this round.
  size_t derived = 0;
};

/// Tuples produced per worker lane in one round — the imbalance the
/// merged totals hide: a round where one lane derives everything runs
/// at one-lane speed no matter the thread count.
struct RoundBalance {
  size_t round = 0;   ///< 1-based global round index within the evaluation
  size_t workers = 0; ///< worker lanes in the round (pool width)
  size_t min_tuples = 0;
  size_t max_tuples = 0;
  size_t total_tuples = 0;
  /// Morsels claimed per lane.
  /// A round is balanced when max_morsels ≈ total_morsels / workers.
  size_t min_morsels = 0;
  size_t max_morsels = 0;
  size_t total_morsels = 0;

  double MeanTuples() const {
    return workers == 0
               ? 0.0
               : static_cast<double>(total_tuples) /
                     static_cast<double>(workers);
  }
};

/// Work counters collected during evaluation. All counters are
/// best-effort and intended for benchmarks/tests, not billing.
///
/// This is the one per-query record of what the engine did: hot loops
/// bump these plain fields (or thread-private copies later summed with
/// Add); `obs::QueryProfile` holds one as its engine section, which
/// `:profile` renders and the query log serializes; `PublishTo` folds
/// the totals into a `obs::MetricsRegistry` for `:stats` and any other
/// sink. It lives in obs, below eval, so the profile can hold it.
struct EvalStats {
  /// Fixpoint rounds executed, summed over all strata/components.
  size_t iterations = 0;
  /// Rule executions launched.
  size_t rule_applications = 0;
  /// Head tuples inserted for the first time.
  size_t derived_tuples = 0;
  /// Head tuples derived again (set semantics drops them).
  size_t duplicate_tuples = 0;
  /// Successful partial bindings while joining body literals (a proxy
  /// for join work).
  size_t bindings_explored = 0;
  /// Evaluable-literal (comparison) evaluations.
  size_t comparison_checks = 0;
  /// Extra compile-style work performed *during* evaluation (used by the
  /// runtime-residue baseline to account per-iteration residue
  /// processing).
  size_t runtime_residue_checks = 0;
  /// Plan-cache lookups that reused a cached (rule, delta) plan.
  size_t plan_cache_hits = 0;
  /// Plan-cache lookups that had to run the planner (cold or the input
  /// cardinalities crossed a log2 band since the cached plan was built).
  size_t plan_cache_misses = 0;
  /// Head blocks flushed by the batched executor (ExecutePlanBatched).
  size_t batches = 0;
  /// Tasks the fixpoint engine ran: driving-relation row ranges pulled
  /// off the shared round cursor, plus one per unrestricted execution
  /// (every execution at one lane).
  size_t morsels = 0;
  /// Morsels claimed by a lane other than the one a static contiguous
  /// split would have assigned them to — the dynamic load balancing a
  /// fixed partition scheme forgoes.
  size_t morsel_steals = 0;
  /// Wall time of the whole Evaluate call, nanoseconds.
  uint64_t eval_ns = 0;
  /// Largest per-round delta (tuples across the component's predicates)
  /// the semi-naive fixpoint carried — the working-set high-water mark.
  size_t peak_delta_tuples = 0;

  /// Per-round timeline (stratum, wall time, delta sizes); filled
  /// whenever stats are collected at all.
  std::vector<RoundTiming> rounds;
  /// Per-rule breakdown; empty unless EvalOptions::collect_metrics.
  std::map<std::string, RuleStats> per_rule;
  /// Per-round worker balance; filled by the parallel evaluator when
  /// collect_metrics is set.
  std::vector<RoundBalance> round_balance;

  void Add(const EvalStats& other) {
    iterations += other.iterations;
    rule_applications += other.rule_applications;
    derived_tuples += other.derived_tuples;
    duplicate_tuples += other.duplicate_tuples;
    bindings_explored += other.bindings_explored;
    comparison_checks += other.comparison_checks;
    runtime_residue_checks += other.runtime_residue_checks;
    plan_cache_hits += other.plan_cache_hits;
    plan_cache_misses += other.plan_cache_misses;
    batches += other.batches;
    morsels += other.morsels;
    morsel_steals += other.morsel_steals;
    eval_ns += other.eval_ns;
    peak_delta_tuples = peak_delta_tuples > other.peak_delta_tuples
                            ? peak_delta_tuples
                            : other.peak_delta_tuples;
    rounds.insert(rounds.end(), other.rounds.begin(), other.rounds.end());
    for (const auto& [label, rs] : other.per_rule) per_rule[label].Add(rs);
    round_balance.insert(round_balance.end(), other.round_balance.begin(),
                         other.round_balance.end());
  }

  /// Folds the counters into `registry` under `prefix` ("eval" ->
  /// "eval.derived_tuples", "eval.rule.r0.derived", ...). Histograms
  /// "eval.round_tuples_per_worker_{min,max}" capture balance.
  void PublishTo(obs::MetricsRegistry& registry,
                 std::string_view prefix = "eval") const;
};

}  // namespace semopt

#endif  // SEMOPT_OBS_EVAL_STATS_H_
