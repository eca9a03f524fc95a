#include "exec/parallel_fixpoint.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "eval/component_plan.h"
#include "eval/plan_cache.h"
#include "eval/rule_executor.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/vector_kernels.h"
#include "util/interner.h"
#include "util/string_util.h"

namespace semopt {

size_t ResolveNumThreads(const EvalOptions& options) {
  if (options.num_threads != 0) return options.num_threads;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

size_t ResolveMorselSize(const EvalOptions& options) {
  if (options.morsel_size != 0) return options.morsel_size;
  // Auto: a morsel fills at least one executor block (so the batched
  // pipeline always runs full frames) and never drops below 64 rows
  // (so the shared-cursor claim stays negligible per morsel).
  return std::max<size_t>(options.batch_size, 64);
}

namespace {

/// Read-only view over the frozen EDB + IDB with at most one delta
/// binding: the frozen delta relation an execution reads at its delta
/// literal. One instance per morsel; Full/Delta only read shared state.
class SnapshotSource : public RelationSource {
 public:
  SnapshotSource(const Database* edb, const Database* idb,
                 const std::set<PredicateId>* idb_preds)
      : edb_(edb), idb_(idb), idb_preds_(idb_preds) {}

  const Relation* Full(const PredicateId& pred) const override {
    if (idb_preds_->count(pred) > 0) return idb_->Find(pred);
    return edb_->Find(pred);
  }

  const Relation* Delta(const PredicateId& pred) const override {
    if (delta_rel_ != nullptr && pred == delta_pred_) return delta_rel_;
    return nullptr;
  }

  void SetDelta(const PredicateId& pred, const Relation* rel) {
    delta_pred_ = pred;
    delta_rel_ = rel;
  }

 private:
  const Database* edb_;
  const Database* idb_;
  const std::set<PredicateId>* idb_preds_;
  PredicateId delta_pred_{0, 0};
  const Relation* delta_rel_ = nullptr;
};

/// One rule application of a round. With more than one lane the plan is
/// prepared in partitioned mode: its driving step (the rotated delta
/// occurrence, or a full-scan first positive step when the execution
/// has no delta) is executed as a range scan, and morsels carve that
/// relation's row range across workers. Every worker executes the SAME
/// plan against the SAME frozen relations — only the driving row range
/// differs per morsel — so no literal is ever re-scanned per task and
/// the logical counters split exactly across morsels. With one lane the
/// plan is unpartitioned and the execution is one unrestricted task.
struct Execution {
  const PlannedRule* rule = nullptr;
  /// Original-body index of the delta occurrence; -1 = read all Full.
  int delta_literal = -1;
  /// The frozen delta relation for `delta_literal` (null when -1).
  const Relation* delta_rel = nullptr;
  PredicateId delta_pred{0, 0};
  RuleExecutor::PreparedPlan plan;
  /// Original-body index of the plan's driving step; -1 when the plan
  /// has none (one lane, a probed first step, or no positive relational
  /// literal): the execution runs as one unrestricted task.
  int driving_literal = -1;
  /// The relation morsels carve (the delta when the driving step IS the
  /// delta occurrence, else that literal's full relation).
  const Relation* driving_rel = nullptr;
};

/// One unit of parallel work: a contiguous row range of an execution's
/// driving relation. `end == kNoMorsel` marks the single unrestricted
/// task of a driverless execution.
struct Morsel {
  size_t exec_index = 0;
  size_t begin = 0;
  size_t end = RuleExecutor::kNoMorsel;
};

/// Derived rows plus their precomputed HashValues hashes: workers pay
/// the hash cost in parallel, the owning merge task reuses it for the
/// dedup probe and both inserts (full + next delta).
struct HashedRows {
  TupleBuffer rows{0};
  std::vector<size_t> hashes;
};

/// Per-lane working state, cache-line aligned so two lanes bumping
/// their counters never share a line. Lanes are the thread pool's
/// stable ids, so nothing here needs synchronization.
struct alignas(64) WorkerState {
  /// One sink per execution (the merge groups by execution, and an
  /// execution's head arity fixes the buffer shape).
  std::vector<HashedRows> sinks;
  RuleExecutor::BatchScratch scratch;
  EvalStats stats;
  size_t morsels = 0;
  size_t steals = 0;
  /// Per-execution morsel wall time (collect_metrics only): summed into
  /// RuleStats::exec_ns after the round.
  std::vector<uint64_t> exec_ns;
};

/// What every round of one evaluation shares: the pool, the plan cache,
/// the frozen inputs, the IDB being built, and the per-lane state. The
/// lanes' sinks and scratch persist across rounds, so steady-state
/// rounds reuse their capacity instead of regrowing it.
struct Engine {
  ThreadPool& pool;
  PlanCacheInterface& plan_cache;
  const Database& edb;
  Database& idb;
  const std::set<PredicateId>& idb_preds;
  const EvalOptions& options;
  EvalStats* stats;
  std::vector<WorkerState> workers;
};

/// Span name for one task: the rule's label when set, so a rule's tasks
/// aggregate by name in the trace viewer.
std::string_view TaskSpanName(const Execution& exec) {
  const std::string& label = exec.rule->executor.rule().label();
  return label.empty() ? std::string_view("rule") : std::string_view(label);
}

/// Key for EvalStats::per_rule.
std::string ExecRuleKey(const Execution& exec) {
  const std::string& label = exec.rule->executor.rule().label();
  return label.empty() ? exec.rule->head.ToString() : label;
}

/// Executes one round, morsel-driven: plans every execution against the
/// frozen state, carves each driving relation into ~morsel_size row
/// ranges, lets worker lanes pull morsels off the pool's shared cursor
/// and stream them through the batched executor into per-(lane,
/// execution) hashed sinks, then merges the sinks into `idb` (and
/// `next_delta` if given) with one owner per head relation reusing the
/// worker hashes. `round` is the 1-based global round index
/// (trace/stats labeling).
///
/// One lane is the degenerate case: plans are prepared unpartitioned
/// and every execution is one unrestricted task. Carving only pays when
/// there is another lane to hand a morsel to; a partitioned plan forces
/// the delta to the front of the join order, which at one lane can cost
/// more bindings than the order the planner prefers.
Status RunRound(
    Engine& engine, std::vector<Execution>& execs,
    std::map<PredicateId, std::unique_ptr<Relation>>* next_delta,
    size_t round, size_t stratum, size_t delta_in) {
  ThreadPool& pool = engine.pool;
  const Database& edb = engine.edb;
  Database& idb = engine.idb;
  const std::set<PredicateId>& idb_preds = engine.idb_preds;
  const EvalOptions& options = engine.options;
  EvalStats* stats = engine.stats;
  const uint64_t round_start_ns = obs::MonotonicNowNs();
  // Appends the finished round to the stats timeline (always when stats
  // are collected; feeds the per-query log).
  auto record_round = [&](size_t delta_out, size_t derived) {
    if (stats == nullptr) return;
    RoundTiming rt;
    rt.stratum = stratum;
    rt.round = round;
    rt.ns = obs::MonotonicNowNs() - round_start_ns;
    rt.delta_in = delta_in;
    rt.delta_out = delta_out;
    rt.derived = derived;
    stats->rounds.push_back(rt);
    if (delta_out > stats->peak_delta_tuples) {
      stats->peak_delta_tuples = delta_out;
    }
  };
  const size_t lanes = pool.num_threads();
  const bool partitioned = lanes > 1;
  const size_t morsel_size = ResolveMorselSize(options);
  SnapshotSource planning_source(&edb, &idb, &idb_preds);

  obs::TraceSpan round_span("round");
  round_span.AddArg("round", static_cast<int64_t>(round));
  round_span.AddArg("workers", static_cast<int64_t>(lanes));
  round_span.AddArg("delta_in", static_cast<int64_t>(delta_in));

  // Plan and pre-build indexes, single-threaded, then carve morsels.
  std::vector<Morsel> morsels;
  {
    obs::TraceSpan plan_span("plan");
    plan_span.AddArg("executions", static_cast<int64_t>(execs.size()));
    for (size_t e = 0; e < execs.size(); ++e) {
      Execution& exec = execs[e];
      const RuleExecutor& executor = exec.rule->executor;
      if (exec.delta_rel != nullptr) {
        exec.delta_pred = exec.delta_rel->pred();
        planning_source.SetDelta(exec.delta_pred, exec.delta_rel);
      } else {
        planning_source.SetDelta(PredicateId{0, 0}, nullptr);
      }
      // Plans are memoized per (rule, delta literal, partitioned
      // regime, cardinality-band signature): rounds in an already-seen
      // regime reuse the plan with indexes re-verified. Partitioned
      // plans rotate the delta occurrence to the front and mark it
      // driving; the driving step's index is never built (it runs as a
      // morsel range scan).
      SEMOPT_ASSIGN_OR_RETURN(
          exec.plan,
          engine.plan_cache.Get(executor, planning_source,
                                exec.delta_literal, stats, partitioned));
      exec.driving_literal = executor.DrivingLiteral(exec.plan);
      if (exec.driving_literal < 0) {
        // Nothing to carve (unpartitioned plan, probed first step, or
        // constant-only body): one unrestricted task.
        morsels.push_back(Morsel{e, 0, RuleExecutor::kNoMorsel});
        continue;
      }
      if (exec.driving_literal == exec.delta_literal &&
          exec.delta_rel != nullptr) {
        exec.driving_rel = exec.delta_rel;
      } else {
        const Literal& lit =
            executor.rule().body()[static_cast<size_t>(exec.driving_literal)];
        exec.driving_rel = planning_source.Full(lit.atom().pred_id());
      }
      if (exec.driving_rel == nullptr || exec.driving_rel->empty()) {
        continue;  // a positive literal over nothing derives nothing
      }
      const size_t n = exec.driving_rel->size();
      for (size_t begin = 0; begin < n; begin += morsel_size) {
        morsels.push_back(Morsel{e, begin, std::min(begin + morsel_size, n)});
      }
    }
    plan_span.AddArg("morsels", static_cast<int64_t>(morsels.size()));
  }
  if (morsels.empty()) {
    record_round(0, 0);
    return Status::Ok();
  }
  const size_t total_morsels = morsels.size();

  if (options.collect_metrics) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("exec.rounds").Add(1);
    registry.GetCounter("exec.morsels").Add(total_morsels);
    registry.GetGauge("exec.queue_depth")
        .Set(static_cast<int64_t>(total_morsels));
  }

  // Per-lane state: sinks per execution, one reusable batch scratch,
  // private stats. Lanes are stable, so the worker phase touches no
  // shared mutable state at all.
  std::vector<WorkerState>& workers = engine.workers;
  for (WorkerState& ws : workers) {
    ws.stats = EvalStats();
    ws.morsels = 0;
    ws.steals = 0;
    ws.sinks.resize(execs.size());
    if (options.collect_metrics) ws.exec_ns.assign(execs.size(), 0);
    for (size_t e = 0; e < execs.size(); ++e) {
      ws.sinks[e].rows.Reset(execs[e].rule->head.arity);
      ws.sinks[e].hashes.clear();
    }
  }

  size_t round_derived = 0;
  {
    InternerFreezeGuard freeze;
    SEMOPT_RETURN_IF_ERROR(pool.ParallelForWorkers(
        total_morsels, [&](size_t lane, size_t i) -> Status {
          const Morsel& m = morsels[i];
          const Execution& exec = execs[m.exec_index];
          WorkerState& ws = workers[lane];
          // Worker-lane query attribution: spans this morsel records
          // carry the query id of the evaluation that scheduled it.
          obs::QueryIdScope qid_scope(options.query_id);
          const uint64_t morsel_start_ns =
              options.collect_metrics ? obs::MonotonicNowNs() : 0;
          ++ws.morsels;
          // A steal is a morsel claimed by a lane other than the one a
          // static contiguous split would have assigned it to — the
          // load balancing a fixed partition scheme forgoes.
          if (i * lanes / total_morsels != lane) ++ws.steals;
          obs::TraceSpan span(TaskSpanName(exec));
          span.AddArg("lane", static_cast<int64_t>(lane));
          span.AddArg("rows", m.end == RuleExecutor::kNoMorsel
                                  ? int64_t{-1}
                                  : static_cast<int64_t>(m.end - m.begin));
          SnapshotSource source(&edb, &idb, &idb_preds);
          if (exec.delta_rel != nullptr) {
            source.SetDelta(exec.delta_pred, exec.delta_rel);
          }
          HashedRows& sink = ws.sinks[m.exec_index];
          exec.rule->executor.ExecutePlanBatched(
              exec.plan, source, exec.delta_literal,
              [&sink](const TupleBuffer& block) {
                sink.rows.AppendAll(block);
                // Hash the whole (flat) head block with the batch
                // kernel — this is the worker-side share of the commit
                // cost, off the single-owner merge path.
                const size_t n = block.size();
                if (n == 0) return;
                const size_t base = sink.hashes.size();
                sink.hashes.resize(base + n);
                HashValuesBatch(block.row(0).data(), block.arity(), n,
                                sink.hashes.data() + base);
              },
              &ws.stats, options.batch_size, m.begin, m.end, &ws.scratch,
              ResolveSimdMode(options.simd));
          if (options.collect_metrics) {
            ws.exec_ns[m.exec_index] += obs::MonotonicNowNs() - morsel_start_ns;
          }
          return Status::Ok();
        }));

    // Merge with a single owner per head relation: sinks are replayed
    // in (execution, lane) order, so the result (and the idb row
    // order) is deterministic for a fixed thread count. Worker hashes
    // are reused for the dedup probe and both inserts.
    std::map<PredicateId, std::vector<size_t>> by_head;
    for (size_t e = 0; e < execs.size(); ++e) {
      by_head[execs[e].rule->head].push_back(e);
    }
    std::vector<std::pair<PredicateId, std::vector<size_t>*>> owners;
    owners.reserve(by_head.size());
    for (auto& [pred, exec_ids] : by_head) {
      owners.emplace_back(pred, &exec_ids);
    }
    // Inserted/duplicate counts per execution (filled by the owning
    // merge worker), folded into totals and per-rule stats afterwards.
    std::vector<size_t> exec_inserted(execs.size(), 0);
    std::vector<size_t> exec_duplicate(execs.size(), 0);
    obs::TraceSpan merge_span("merge");
    merge_span.AddArg("owners", static_cast<int64_t>(owners.size()));
    SEMOPT_RETURN_IF_ERROR(pool.ParallelFor(
        owners.size(), [&](size_t j) -> Status {
          obs::TraceSpan owner_span("commit");
          const PredicateId& pred = owners[j].first;
          Relation* target = idb.FindMutable(pred);
          // at(): the component pre-created every delta relation, and
          // operator[] would mutate the (shared) map on a miss.
          Relation* delta_target =
              next_delta != nullptr ? next_delta->at(pred).get() : nullptr;
          size_t inserted = 0;
          for (size_t e : *owners[j].second) {
            for (size_t w = 0; w < lanes; ++w) {
              const HashedRows& sink = workers[w].sinks[e];
              if (sink.rows.size() == 0) continue;
              Relation::CommitCounts counts = target->CommitHashed(
                  sink.rows, sink.hashes.data(), delta_target);
              exec_inserted[e] += counts.inserted;
              exec_duplicate[e] += counts.duplicates;
              inserted += counts.inserted;
            }
          }
          owner_span.AddArg("inserted", static_cast<int64_t>(inserted));
          return Status::Ok();
        }));
    for (size_t e = 0; e < execs.size(); ++e) {
      round_derived += exec_inserted[e];
    }

    if (stats != nullptr) {
      for (const WorkerState& ws : workers) {
        stats->Add(ws.stats);
        stats->morsels += ws.morsels;
        stats->morsel_steals += ws.steals;
      }
      for (size_t e = 0; e < execs.size(); ++e) {
        stats->derived_tuples += exec_inserted[e];
        stats->duplicate_tuples += exec_duplicate[e];
      }
      if (options.collect_metrics) {
        obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
        size_t steals = 0;
        for (const WorkerState& ws : workers) steals += ws.steals;
        registry.GetCounter("exec.morsel_steals").Add(steals);
        // Per-rule attribution: every execution belongs to one rule.
        for (size_t e = 0; e < execs.size(); ++e) {
          RuleStats& rs = stats->per_rule[ExecRuleKey(execs[e])];
          ++rs.applications;
          rs.derived += exec_inserted[e];
          rs.duplicates += exec_duplicate[e];
          for (const WorkerState& ws : workers) {
            rs.exec_ns += ws.exec_ns[e];
          }
        }
        if (partitioned) {
          // Tuples produced and morsels claimed per lane: the balance
          // the merged totals hide. One lane has nothing to balance.
          RoundBalance balance;
          balance.round = round;
          balance.workers = lanes;
          balance.min_tuples = SIZE_MAX;
          balance.min_morsels = SIZE_MAX;
          for (const WorkerState& ws : workers) {
            size_t produced = 0;
            for (const HashedRows& sink : ws.sinks) {
              produced += sink.rows.size();
            }
            balance.min_tuples = std::min(balance.min_tuples, produced);
            balance.max_tuples = std::max(balance.max_tuples, produced);
            balance.total_tuples += produced;
            balance.min_morsels = std::min(balance.min_morsels, ws.morsels);
            balance.max_morsels = std::max(balance.max_morsels, ws.morsels);
            balance.total_morsels += ws.morsels;
          }
          stats->round_balance.push_back(balance);
        }
      }
    }
  }
  size_t delta_out = 0;
  if (next_delta != nullptr) {
    // next_delta only holds this round's insertions (the caller clears
    // and swaps per round), so its total IS the produced delta.
    for (const auto& [p, rel] : *next_delta) delta_out += rel->size();
  }
  round_span.AddArg("delta_out", static_cast<int64_t>(delta_out));
  round_span.AddArg("derived", static_cast<int64_t>(round_derived));
  record_round(delta_out, round_derived);
  return Status::Ok();
}

/// Round-granularity safety valves: iteration cap and wall-clock
/// budget (elapsed since `eval_start_ns`, the engine's entry).
Status CheckRoundBudgets(size_t iterations, uint64_t eval_start_ns,
                         const EvalOptions& options) {
  if (options.max_iterations > 0 && iterations > options.max_iterations) {
    return Status::FailedPrecondition(
        StrCat("evaluation exceeded max_iterations=",
               options.max_iterations));
  }
  if (options.budget_us > 0) {
    const uint64_t elapsed_us = (obs::MonotonicNowNs() - eval_start_ns) / 1000;
    if (elapsed_us > options.budget_us) {
      return Status::FailedPrecondition(
          StrCat("evaluation exceeded budget_us=", options.budget_us,
                 " (elapsed ", elapsed_us, " us)"));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<Database> EvaluateMorsels(const Program& program, const Database& edb,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  obs::TraceSpan eval_span("eval");
  const uint64_t eval_start_ns = obs::MonotonicNowNs();

  ThreadPool pool(ResolveNumThreads(options));
  eval_span.AddArg("threads", static_cast<int64_t>(pool.num_threads()));
  eval_span.AddArg("morsel_size",
                   static_cast<int64_t>(ResolveMorselSize(options)));
  // Shared across every round of the evaluation (and, when the caller
  // supplied a session cache, across evaluations); only the coordinator
  // (RunRound's single-threaded planning block) touches it.
  PlanCache local_plan_cache;
  PlanCacheInterface& plan_cache =
      options.plan_cache != nullptr ? *options.plan_cache : local_plan_cache;
  SEMOPT_ASSIGN_OR_RETURN(std::vector<EvalComponent> components,
                          PlanComponents(program));
  std::set<PredicateId> idb_preds = program.IdbPredicates();

  Database idb;
  // Pre-create IDB relations so concurrent Find() never mutates.
  for (const PredicateId& p : idb_preds) idb.GetOrCreate(p);
  Engine engine{pool, plan_cache, edb, idb, idb_preds, options, stats,
                std::vector<WorkerState>(pool.num_threads())};

  size_t global_round = 0;
  int64_t component_index = -1;
  for (EvalComponent& component : components) {
    ++component_index;
    if (component.rules.empty()) continue;  // EDB-only component

    obs::TraceSpan stratum_span("stratum");
    stratum_span.AddArg("index", component_index);
    stratum_span.AddArg("rules", static_cast<int64_t>(component.rules.size()));
    stratum_span.AddArg("recursive", component.recursive ? 1 : 0);

    auto all_rules = [&]() {
      std::vector<Execution> execs;
      execs.reserve(component.rules.size());
      for (const PlannedRule& pr : component.rules) {
        Execution e;
        e.rule = &pr;
        execs.push_back(std::move(e));
      }
      return execs;
    };

    if (!component.recursive) {
      // One pass suffices.
      if (stats != nullptr) ++stats->iterations;
      ++global_round;
      std::vector<Execution> execs = all_rules();
      SEMOPT_RETURN_IF_ERROR(
          RunRound(engine, execs, /*next_delta=*/nullptr, global_round,
                   static_cast<size_t>(component_index), /*delta_in=*/0));
      continue;
    }

    // Semi-naive with synchronous rounds: round 0 runs every rule on
    // the frozen state (recursive literals see empty component
    // relations; anything they miss is caught via the delta in later
    // rounds), then each round carves the frozen delta into morsels.
    std::map<PredicateId, std::unique_ptr<Relation>> delta;
    std::map<PredicateId, std::unique_ptr<Relation>> next_delta;
    for (const PredicateId& p : component.preds) {
      delta[p] = std::make_unique<Relation>(p);
      next_delta[p] = std::make_unique<Relation>(p);
    }

    if (stats != nullptr) ++stats->iterations;
    ++global_round;
    {
      std::vector<Execution> execs = all_rules();
      SEMOPT_RETURN_IF_ERROR(
          RunRound(engine, execs, &delta, global_round,
                   static_cast<size_t>(component_index), /*delta_in=*/0));
    }

    size_t local_iterations = 1;
    auto delta_total = [&]() {
      size_t total = 0;
      for (const auto& [p, rel] : delta) total += rel->size();
      return total;
    };

    size_t pending = delta_total();
    while (pending > 0) {
      ++local_iterations;
      if (stats != nullptr) ++stats->iterations;
      ++global_round;
      SEMOPT_RETURN_IF_ERROR(
          CheckRoundBudgets(local_iterations, eval_start_ns, options));

      std::vector<Execution> execs;
      for (const PlannedRule& pr : component.rules) {
        for (int lit_index : pr.recursive_literals) {
          const Literal& lit = pr.executor.rule().body()[lit_index];
          const Relation* d = delta[lit.atom().pred_id()].get();
          if (d->empty()) continue;  // nothing new through this literal
          Execution e;
          e.rule = &pr;
          e.delta_literal = lit_index;
          e.delta_rel = d;
          execs.push_back(std::move(e));
        }
      }
      SEMOPT_RETURN_IF_ERROR(
          RunRound(engine, execs, &next_delta, global_round,
                   static_cast<size_t>(component_index), pending));
      // Arena double-buffer: Clear keeps capacity, swap moves pointers;
      // steady-state rounds recycle delta storage without reallocating.
      for (const PredicateId& p : component.preds) {
        delta[p]->Clear();
        std::swap(delta[p], next_delta[p]);
      }
      pending = delta_total();
    }
  }

  return idb;
}

}  // namespace semopt
