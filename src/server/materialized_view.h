#ifndef SEMOPT_SERVER_MATERIALIZED_VIEW_H_
#define SEMOPT_SERVER_MATERIALIZED_VIEW_H_

#include <memory>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/incremental.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// The net change one mixed update batch makes to `base`: `dels`
/// erased first (absent tuples are no-ops), then `adds` inserted (set
/// semantics; a tuple in both ends up present). Costs O(batch) lookups
/// into `base` — the un-materialized write path. Fails on non-ground
/// facts.
Result<DatabaseDelta> EdbBatchDelta(const Database& base,
                                    const std::vector<Atom>& adds,
                                    const std::vector<Atom>& dels);

/// Rows of `delta` across every relation, split by side.
void CountDelta(const DatabaseDelta& delta, size_t* erased, size_t* inserted);

/// A maintained materialization of a program's IDB, kept inside the
/// host's write path: every update batch refreshes the IDB *in the same
/// write generation* that carries the EDB change, so a reader pinning
/// the next snapshot sees base facts and derived facts move together.
///
/// The view owns its relations outright — a published generation gets
/// its own copy of the IDB once (at `.materialize`) and afterwards only
/// the per-batch net delta — so maintenance mutates in place and never
/// pays for a relation shared with readers.
///
/// Two maintenance modes, selected at creation:
///  - kIncremental routes batches through IncrementalEvaluator
///    (counting for non-recursive strata, DRed for recursive ones) —
///    O(|Δ|-affected) work per batch;
///  - kRecompute re-runs the full fixpoint per batch — the baseline the
///    E14 bench compares against, and a fallback for programs the
///    incremental path rejects.
class MaterializedView {
 public:
  enum class Mode { kIncremental, kRecompute };

  /// Materializes `program` over `base` (every relation of `base` is
  /// treated as EDB). Incremental mode shares base's relations and
  /// copies one only when a batch first writes it; recompute mode keeps
  /// its own copy. `options` governs the initial fixpoint
  /// and, in incremental mode, the maintenance joins — point
  /// options.plan_cache at the host's shared cache so steady-state
  /// batches skip planning.
  static Result<std::unique_ptr<MaterializedView>> Create(
      const Program& program, const Database& base, EvalOptions options,
      Mode mode);

  /// Applies one update batch: maintains the IDB and sets `*delta` to
  /// the batch's net change to the EDB and IDB relations — the rows a
  /// published generation must erase and insert to catch up. Call
  /// inside the host's write path so the whole effect publishes as one
  /// generation. Facts over IDB predicates are rejected.
  Result<IvmStats> Apply(const std::vector<Atom>& adds,
                         const std::vector<Atom>& dels, DatabaseDelta* delta);

  /// The current materialized IDB (copy it to publish it).
  const Database& idb() const;

  Mode mode() const { return mode_; }
  const Program& program() const { return program_; }
  /// Running maintenance totals across every Apply on this view.
  const IvmStats& totals() const { return totals_; }

 private:
  MaterializedView(Mode mode, Program program, EvalOptions options)
      : mode_(mode), program_(std::move(program)),
        options_(std::move(options)) {}

  Mode mode_;
  Program program_;
  EvalOptions options_;
  /// Incremental mode: the maintained evaluator (owns its EDB + IDB).
  std::unique_ptr<IncrementalEvaluator> inc_;
  /// Recompute mode: our own EDB copy and the latest full fixpoint.
  Database edb_;
  Database idb_;
  IvmStats totals_;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_MATERIALIZED_VIEW_H_
