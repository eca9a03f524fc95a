#ifndef SEMOPT_EXEC_PARALLEL_FIXPOINT_H_
#define SEMOPT_EXEC_PARALLEL_FIXPOINT_H_

#include <cstddef>

#include "ast/program.h"
#include "obs/eval_stats.h"
#include "eval/fixpoint.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// `options.num_threads`, with 0 resolved to the hardware thread count
/// (at least 1).
size_t ResolveNumThreads(const EvalOptions& options);

/// Rows per morsel: `options.morsel_size`, with 0 (auto) resolved to
/// max(batch_size, 64) — a morsel always fills at least one batched-
/// executor block, and the per-morsel shared-cursor claim stays
/// negligible.
size_t ResolveMorselSize(const EvalOptions& options);

/// The fixpoint engine behind `Evaluate` (eval/fixpoint.h), the only
/// one there is: morsel-driven bottom-up evaluation. Components run in
/// topological order, each in synchronous rounds. Each round freezes
/// the database state and prepares one plan per rule execution. With
/// more than one lane the plans are partitioned — the delta occurrence
/// rotated to the front of the join order and marked as the *driving*
/// step (a full-scan first positive literal drives when there is no
/// delta) — and the driving relation is carved into contiguous row
/// ranges of ~morsel_size rows. Worker lanes pull morsels off the
/// thread pool's shared atomic cursor (dynamic load balancing; uneven
/// morsel costs even out automatically), run each through the batched
/// executor with a per-lane reusable scratch, and buffer derived rows
/// with precomputed hashes in per-(lane, execution) sinks. A sharded
/// merge phase — one owner per head relation — then commits the sinks
/// into the IDB and next delta, reusing the worker hashes for the
/// dedup probes.
///
/// One lane (`num_threads == 1`, the library, shell and server default)
/// is the same loop with unpartitioned plans: every execution is one
/// unrestricted task on the calling thread, so one thread runs the join
/// orders the planner prefers and spawns nothing.
///
/// Because morsels partition the plan's actual outermost scan, no body
/// literal is ever re-scanned per task: join-work counters (`bindings`)
/// are invariant in the thread count once it exceeds one.
///
/// Every round reads the state frozen at its start, so the fixpoint —
/// not the row order — is the contract: at every thread count and batch
/// size it equals the naive stratified model (tests check this against
/// a test-side reference evaluator). Callers use `Evaluate`, which
/// validates the options, honors `trace_path` and `query_id`, and times
/// the evaluation before delegating here.
Result<Database> EvaluateMorsels(const Program& program, const Database& edb,
                                 const EvalOptions& options,
                                 EvalStats* stats);

}  // namespace semopt

#endif  // SEMOPT_EXEC_PARALLEL_FIXPOINT_H_
