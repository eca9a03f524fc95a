#ifndef SEMOPT_EVAL_INCREMENTAL_H_
#define SEMOPT_EVAL_INCREMENTAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "eval/component_plan.h"
#include "obs/eval_stats.h"
#include "eval/fixpoint.h"
#include "eval/plan_cache.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// Outcome counters for incremental view maintenance: one ApplyUpdates
/// batch, or (via Add) the running totals of many. `overdeleted` and
/// `rederived` measure the DRed passes over recursive strata,
/// `recounted` the exact per-tuple recount over counting (non-recursive)
/// strata; `net_*` are the IDB tuples that actually changed once the
/// batch settled — the deltas fed to downstream strata and visible to
/// readers. All are surfaced process-wide as `eval.ivm.*` counters.
struct IvmStats {
  size_t batches = 0;
  /// EDB tuples the batch actually removed / added (set semantics:
  /// absent deletions and duplicate insertions are no-ops).
  size_t edb_deleted = 0;
  size_t edb_inserted = 0;
  /// DRed: tuples erased by the overdeletion pass (the candidate set).
  size_t overdeleted = 0;
  /// DRed: overdeleted tuples re-inserted because they kept an
  /// alternative derivation in the new state.
  size_t rederived = 0;
  /// Counting strata: candidate tuples whose derivation count was
  /// recomputed against the post-update state.
  size_t recounted = 0;
  /// IDB tuples gone / new once the batch settled.
  size_t net_deleted = 0;
  size_t net_inserted = 0;
  /// Wall time of the whole ApplyUpdates call, microseconds.
  uint64_t maintenance_us = 0;

  void Add(const IvmStats& other);

  /// Adds the counters to the process-wide "eval.ivm.batches",
  /// "eval.ivm.overdeleted", ... (ApplyUpdates publishes each batch).
  void Publish() const;

  /// One-line "key=value" summary in declaration order.
  std::string ToString() const;
};

/// Incremental maintenance of a program's materialized IDB under mixed
/// insert/delete batches: `ApplyUpdates` propagates a batch of EDB
/// changes stratum-by-stratum through delta rules instead of
/// recomputing the fixpoint, so a batch costs O(|changes affected|)
/// joins rather than O(|database|).
///
/// Per-stratum regime (strata = dependency SCCs in topological order):
///  - Non-recursive strata use *counting*: a RowId-parallel derivation
///    count per stored tuple. A batch enumerates the affected tuples
///    with delta rules (sound overapproximation), recounts exactly those
///    tuples against the post-update state, and erases the ones whose
///    count reached zero — no fixpoint, one pass.
///  - Recursive strata use *DRed* (delete/rederive): an overdeletion
///    fixpoint computes a superset of the tuples that may have lost
///    every derivation, those are erased, and a candidate-restricted
///    rederivation fixpoint re-inserts the survivors; insertions then
///    propagate semi-naively.
/// Each stratum's net delta feeds the strata above it, which is what
/// makes stratified negation exact: by the time a stratum runs, every
/// predicate it negates holds its final post-update value.
///
/// All maintenance joins run through RuleExecutor plans memoized in a
/// PlanCache, so steady-state batches skip planning entirely.
class IncrementalEvaluator {
 public:
  /// `edb` may share relations with other databases (CloneShared): the
  /// evaluator only reads those, and deep-copies one before its first
  /// write to it, so an EDB relation no batch ever changes is never
  /// copied at all.
  ///
  /// Materializes the initial fixpoint (through the standard Evaluate
  /// engine, so `options.num_threads` etc. apply) and compiles the
  /// maintenance rule sets. It accepts exactly the programs Evaluate
  /// accepts — so does `.materialize`, which installs one of these in
  /// the server's write path: stratified negation is fine, and an
  /// unstratifiable program fails with InvalidArgument naming the
  /// offending negated literal. `options` is retained for
  /// maintenance joins (batch size, SIMD mode, plan cache);
  /// maintenance itself runs on the calling thread — deltas are small
  /// by design, so the morsel engine's fan-out overhead is not worth
  /// paying per batch.
  static Result<IncrementalEvaluator> Create(
      const Program& program, Database edb,
      const EvalOptions& options = EvalOptions());

  IncrementalEvaluator(IncrementalEvaluator&&) = default;
  IncrementalEvaluator& operator=(IncrementalEvaluator&&) = default;

  /// Applies one batch of ground EDB facts, staged by StageBatch —
  /// `dels` removed first, then `adds` inserted (a tuple in both ends up
  /// present) — and propagates the consequences so that afterwards
  /// `idb()` equals the from-scratch fixpoint over the new `edb()`
  /// exactly. Duplicate facts within a batch, deletions of absent tuples
  /// and insertions of present ones are no-ops. Facts over IDB
  /// predicates (and non-ground facts) are rejected before anything
  /// changes (derived relations change only through their rules).
  /// Returns the batch's IvmStats; `stats` (optional) additionally
  /// accumulates the join work of the maintenance rule executions, and
  /// `delta` (optional) receives the batch's net change per predicate —
  /// EDB and IDB, erased and inserted rows — which is O(|Δ|) to hand
  /// back and exactly what a published copy of edb() + idb() needs to
  /// catch up.
  Result<IvmStats> ApplyUpdates(const std::vector<Atom>& adds,
                                const std::vector<Atom>& dels,
                                EvalStats* stats = nullptr,
                                DatabaseDelta* delta = nullptr);

  /// Insertion-only convenience (the legacy surface): equivalent to
  /// `ApplyUpdates(facts, {})`. Returns the number of IDB tuples newly
  /// derived.
  Result<size_t> AddFacts(const std::vector<Atom>& facts,
                          EvalStats* stats = nullptr);

  const Database& edb() const { return edb_; }
  const Database& idb() const { return idb_; }
  const Program& program() const { return program_; }

  /// Running totals over every ApplyUpdates call on this evaluator.
  const IvmStats& totals() const { return totals_; }

  /// The stored derivation count of `tuple` in counting (non-recursive)
  /// stratum predicate `pred`: the number of (rule, body-binding) pairs
  /// currently deriving it. Returns 0 for absent tuples and -1 when
  /// `pred` is not a counting-maintained predicate (recursive strata
  /// carry no counts — DRed re-derives instead of counting).
  int64_t DerivationCount(const PredicateId& pred, const Tuple& tuple) const;

 private:
  /// One compiled maintenance rule execution: a (possibly rewritten)
  /// rule plus the original-body index read as the delta and the
  /// predicate whose change triggers it. `trigger_on_insert` selects
  /// which side of the trigger's net delta drives it: insertions (Δ+)
  /// or deletions (Δ-). A negated trigger occurrence is rewritten
  /// positive in `executor` — inserting into q kills derivations
  /// through ¬q (a deletion trigger reads Δ+), deleting from q enables
  /// them (an insertion trigger reads Δ-).
  ///
  /// Overdeletion rules must read every *other* lower-stratum body
  /// occurrence in its pre-update state even though lower strata
  /// already hold post-update values. Materializing pre-state views
  /// would cost a full relation copy per changed predicate per batch —
  /// O(|DB|), the exact thing maintenance exists to avoid — so the
  /// rule is differentiated instead: pre ⊆ stored ∪ Δ- for a positive
  /// occurrence and ¬pre ⊆ ¬stored ∨ Δ+ for a negated one, and one
  /// compiled variant exists per choice of branch across the
  /// occurrences (2^k variants of each overdeletion rule, compile-time
  /// only). A variant whose body reads a batch delta lists it in
  /// `view_deltas` as (predicate, on_insert): the rewritten literal
  /// reads the `__ivm_dm_*` (Δ-) or `__ivm_dp_*` (Δ+) view predicate,
  /// bound per batch, and the variant is skipped whenever one of its
  /// deltas is empty — so per batch only the variants touching what
  /// actually changed execute.
  struct DeltaRule {
    RuleExecutor executor;
    PredicateId head{0, 0};
    int delta_literal = -1;
    PredicateId trigger{0, 0};
    bool trigger_on_insert = false;
    std::vector<std::pair<PredicateId, bool>> view_deltas;
  };
  /// A candidate-restricted rule `h(t) :- __ivm_cand_h(t), body...`:
  /// with the cand guard as the delta, one execution derives — per
  /// candidate tuple — every body binding the post-update state still
  /// admits. DRed rederivation consumes the set of derived heads;
  /// counting recount tallies the per-row multiplicity.
  struct RestrictedRule {
    RuleExecutor executor;
    PredicateId head{0, 0};
    PredicateId cand{0, 0};
  };
  /// One dependency SCC with its compiled maintenance machinery.
  struct Stratum {
    std::set<PredicateId> preds;
    bool recursive = false;
    /// The original compiled rules (insertion-phase semi-naive reuses
    /// their recursive_literals exactly like the fixpoint engine).
    std::vector<PlannedRule> rules;
    /// Overdeletion / affected-set triggers on lower-stratum deltas.
    std::vector<DeltaRule> delete_seeds;
    /// Overdeletion propagation within the stratum (recursive only).
    std::vector<DeltaRule> delete_propagate;
    /// Insertion triggers on lower-stratum deltas.
    std::vector<DeltaRule> insert_seeds;
    std::vector<RestrictedRule> restricted;
  };

  /// Per-predicate net delta relations of one side (Δ- or Δ+),
  /// accumulated across strata as a batch propagates upward.
  using DeltaMap = std::map<PredicateId, std::unique_ptr<Relation>>;

  IncrementalEvaluator() = default;

  /// Builds per-stratum maintenance rule sets from `components`.
  Status CompileStrata(std::vector<EvalComponent> components);

  /// Propagates the accumulated deltas through one stratum (counting or
  /// DRed regime by `stratum.recursive`), updating `idb_` in place and
  /// appending the stratum's own net deltas to `dminus`/`dplus`.
  Status MaintainStratum(Stratum& stratum, DeltaMap* dminus, DeltaMap* dplus,
                         IvmStats* batch, EvalStats* stats);

  /// Seeds counts_ for a counting stratum by recounting every stored
  /// tuple (candidates := the whole relation) — exact by construction.
  Status InitCounts(Stratum& stratum, EvalStats* stats);

  PlanCacheInterface& cache() {
    return options_.plan_cache != nullptr ? *options_.plan_cache
                                          : plan_cache_;
  }

  Program program_;
  Database edb_;
  /// EDB relations `edb_` shares with the caller's database (e.g. the
  /// published generation a view was created from): read in place, and
  /// copied before the first write to them.
  std::set<PredicateId> borrowed_;
  Database idb_;
  std::set<PredicateId> idb_preds_;
  std::vector<Stratum> strata_;
  /// RowId-parallel derivation counts per counting-stratum predicate:
  /// counts_[p][id] is the number of derivations of idb tuple `id`.
  /// Kept in lockstep with Relation::Erase's swap-removal renames.
  std::map<PredicateId, std::vector<int64_t>> counts_;
  EvalOptions options_;
  PlanCache plan_cache_;
  IvmStats totals_;
};

}  // namespace semopt

#endif  // SEMOPT_EVAL_INCREMENTAL_H_
