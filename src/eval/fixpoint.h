#ifndef SEMOPT_EVAL_FIXPOINT_H_
#define SEMOPT_EVAL_FIXPOINT_H_

#include <cstddef>
#include <string>

#include "ast/program.h"
#include "obs/eval_stats.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

class PlanCacheInterface;

/// Whether the batched executor may use the vectorized (selection-
/// vector + SIMD kernel) paths. The derived relations, counters and
/// fixpoints are bit-identical either way — the vector paths only
/// reschedule the same per-row work — so kAuto is safe everywhere.
enum class SimdMode {
  kAuto,  // vectorize when compiled in and not env-disabled (default)
  kOn,    // require vectorization; ValidateEvalOptions rejects this
          // when the build or SEMOPT_DISABLE_SIMD disabled it
  kOff,   // force the scalar paths (ablation baseline)
};

struct EvalOptions {
  /// Safety valve for buggy workloads; 0 = unlimited.
  size_t max_iterations = 0;
  /// Frame/head block size of the batched (block-at-a-time) rule
  /// executor the fixpoint engine and incremental maintenance run
  /// through. Larger values amortize sink dispatch and keep probe keys,
  /// filter checks and negation membership tests in tight loops over
  /// contiguous frames. It sets only the block size: the derived
  /// relations and logical counters are identical at every value.
  size_t batch_size = 1024;
  /// Lanes of the morsel-driven fixpoint engine (src/exec/): 1
  /// (default) runs every rule execution as one task on the calling
  /// thread; 0 = one lane per hardware thread; N > 1 carves each
  /// round's work into morsels across N lanes. The fixpoint is the same
  /// at every value.
  size_t num_threads = 1;
  /// Rows per morsel when more than one lane runs: each round the
  /// frozen delta (or the driving literal's relation) is carved into
  /// contiguous row ranges of this size, pulled by workers off a shared
  /// cursor. 0 (default) = auto: max(batch_size, 64), so a morsel fills
  /// at least one executor block and stays coarse enough that the
  /// per-morsel claim (one atomic increment) never dominates. Explicit
  /// values below 8 are rejected by ValidateEvalOptions. Ignored at one
  /// lane.
  size_t morsel_size = 0;
  /// Vectorized executor paths (see SimdMode). kAuto resolves against
  /// the build flag and the SEMOPT_DISABLE_SIMD environment variable.
  SimdMode simd = SimdMode::kAuto;
  /// When non-empty, this evaluation runs inside a trace session and
  /// writes a Chrome trace_event JSON file here on completion (open in
  /// chrome://tracing or Perfetto). If a session is already active
  /// (shell `:trace`), the outer session keeps ownership and no file
  /// is written here. No-op when built with -DSEMOPT_DISABLE_TRACING.
  std::string trace_path;
  /// Collect the structured extras in EvalStats (per-rule counters and
  /// timings, per-round worker balance). Off by default: the fast path
  /// only bumps the scalar totals. Per-round timings (EvalStats::rounds)
  /// are NOT gated on this — they cost two clock reads per round and
  /// feed the always-on query log. `:profile` turns it on for the
  /// query it re-runs.
  bool collect_metrics = false;
  /// Wall-clock budget for the whole evaluation, microseconds; checked
  /// at round granularity (a round in flight finishes), so enforcement
  /// lags by up to one round. Exceeding it aborts the evaluation with
  /// FailedPrecondition. 0 = unlimited.
  uint64_t budget_us = 0;
  /// Slow-query threshold, microseconds: a query whose end-to-end time
  /// reaches it is mirrored into the server's slow-query log. The
  /// engine ignores this field — it rides on EvalOptions so the
  /// session/shell `:set`-style plumbing configures it per session; 0 =
  /// use the query log's default threshold.
  uint64_t slow_query_us = 0;
  /// Query id for observability attribution. Evaluate opens an
  /// obs::QueryIdScope with it, so every trace span recorded during the
  /// evaluation — including on worker lanes — carries a "qid"
  /// arg. 0 = unattributed.
  uint64_t query_id = 0;
  /// Caller-owned session plan cache (see eval/plan_cache.h), borrowed
  /// for the evaluation; null = a private per-evaluation cache. A cache
  /// held across Evaluate calls memoizes one plan per (rule, delta,
  /// cardinality-band signature), so a repeated evaluation — the shell
  /// re-running a query — re-traverses an already-seen band trajectory
  /// and skips the planner every round. Entries are content-addressed
  /// by rule text: sharing one cache across different or extended
  /// programs is safe. A plain PlanCache is coordinator-thread only
  /// (each evaluation uses it from one thread); point this at a
  /// SharedPlanCache (eval/shared_plan_cache.h) to share one memo
  /// across concurrently-running evaluations/sessions.
  PlanCacheInterface* plan_cache = nullptr;
};

/// Validates an EvalOptions combination, returning the first problem as
/// a FailedPrecondition Status instead of silently clamping: callers
/// (the shell's `:threads`/`:simd`, embedders) surface the message and
/// keep their previous settings. Checks: batch_size >= 1, num_threads
/// <= 256 (0 = hardware auto-resolution is valid), morsel_size either 0
/// (auto) or >= 8 (a smaller morsel makes the shared-cursor claim the
/// dominant cost), simd != kOn when the build or environment disabled
/// the SIMD kernels. Evaluate calls this first.
Status ValidateEvalOptions(const EvalOptions& options);

/// Resolves `mode` to "use the vectorized paths?": kAuto defers to
/// simd::KernelsEnabled(), kOn/kOff force it (kOn is only reachable
/// after ValidateEvalOptions approved the configuration).
bool ResolveSimdMode(SimdMode mode);

/// Computes the least fixpoint of `program` over `edb` bottom-up and
/// returns the IDB relations. Components of the predicate dependency
/// graph are evaluated in topological order; recursion within a
/// component runs semi-naive delta rounds. Negated relational literals
/// must be stratified (predicates from strictly lower components);
/// otherwise an error is returned.
Result<Database> Evaluate(const Program& program, const Database& edb,
                          const EvalOptions& options = EvalOptions(),
                          EvalStats* stats = nullptr);

}  // namespace semopt

#endif  // SEMOPT_EVAL_FIXPOINT_H_
