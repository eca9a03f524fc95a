#ifndef SEMOPT_EVAL_RULE_EXECUTOR_H_
#define SEMOPT_EVAL_RULE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "ast/rule.h"
#include "obs/eval_stats.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "util/result.h"
#include "util/simd.h"

namespace semopt {

/// Resolves predicate names to stored relations during evaluation.
/// `Full` must return the current complete relation (or nullptr for an
/// absent/empty one). `Delta` returns the per-round delta relation for
/// predicates participating in the current semi-naive loop (nullptr when
/// the predicate has no delta, in which case Full is used).
class RelationSource {
 public:
  virtual ~RelationSource() = default;
  virtual const Relation* Full(const PredicateId& pred) const = 0;
  virtual const Relation* Delta(const PredicateId& pred) const = 0;
};

/// A RelationSource over one database and no deltas: `Full` is
/// `db->Find`, `Delta` is always null. Plans and probes "just this
/// database" (constraint checks, `:plan`, `:profile` plans, tests).
class DatabaseSource : public RelationSource {
 public:
  explicit DatabaseSource(const Database* db) : db_(db) {}
  const Relation* Full(const PredicateId& pred) const override {
    return db_->Find(pred);
  }
  const Relation* Delta(const PredicateId&) const override {
    return nullptr;
  }

 private:
  const Database* db_;
};

/// Receives derived head tuples a block at a time: a flat TupleBuffer
/// of up to the configured batch size, valid only for the duration of
/// the call (the executor recycles it for the next block), so sinks
/// that keep tuples must copy them out (TupleBuffer::AppendAll or
/// Relation::Insert both do). One sink dispatch per ~batch_size
/// tuples, not one type-erased call per tuple.
using BatchSink = std::function<void(const TupleBuffer&)>;

/// A slot-compiled executor for one rule.
///
/// Construction validates safety (every literal can be ordered so its
/// variables are bound when needed) and assigns dense frame slots.
/// Prepare orders the positive relational literals with the cost
/// enumerator (CostPlanner::Enumerate over current relation sizes and
/// distinct sketches); evaluable literals run as soon as their
/// variables are bound and `=` literals may bind one side. Bodies
/// outside the enumerator's envelope keep the greedy pick — most-bound
/// literals first, ties to the smallest current relation. Joins run as
/// index nested loops probing hash indexes on the bound columns, one
/// block at a time: `ExecutePlanBatched` streams flat frame blocks
/// through the step pipeline so hashing, filtering and negation
/// membership tests run in tight loops over contiguous data. It is the
/// only executor — fixpoint rounds, incremental maintenance,
/// constraint checks and runtime residues all run through it.
class RuleExecutor {
 private:
  struct Plan;          // defined privately below; PreparedPlan keeps it opaque
  struct BatchContext;  // ditto; BatchScratch keeps it opaque

 public:
  /// Default frame/head block size for the batched executor: large
  /// enough to amortize per-block dispatch, small enough that a block
  /// of widest frames stays cache-resident (see DESIGN.md §10).
  static constexpr size_t kDefaultBatchSize = 1024;

  /// Sentinel `morsel_end`: no row-range restriction (the driving
  /// step — when one is marked at all — reads its whole relation).
  static constexpr size_t kNoMorsel = static_cast<size_t>(-1);

  /// A plan bound to the relation-cardinality snapshot it was built
  /// against, produced by `Prepare` and consumed by
  /// `ExecutePlanBatched`.
  /// Cheap to copy (shared immutable state), safe to share across
  /// threads.
  class PreparedPlan {
   public:
    PreparedPlan() = default;

   private:
    friend class RuleExecutor;
    std::shared_ptr<const Plan> plan_;
  };

  /// Caller-owned reusable working state for `ExecutePlanBatched`:
  /// holding one per worker lane lets a morsel loop run thousands of
  /// executions (possibly of different plans) while touching the
  /// allocator only until every buffer has reached its steady-state
  /// capacity. Not thread-safe; one scratch serves one lane.
  class BatchScratch {
   public:
    BatchScratch();
    ~BatchScratch();
    BatchScratch(BatchScratch&&) noexcept;
    BatchScratch& operator=(BatchScratch&&) noexcept;

   private:
    friend class RuleExecutor;
    std::unique_ptr<BatchContext> ctx_;
  };

  /// Plans `rule`. Fails for unsafe rules.
  static Result<RuleExecutor> Create(const Rule& rule);

  /// Runs the rule to completion: Prepare + ExecutePlanBatched at the
  /// default block size. `delta_literal` is an index into the ORIGINAL
  /// body (not the planned order) whose relation is read from
  /// `source.Delta(...)`; pass -1 to read everything from Full. Derived
  /// head tuples reach `sink` in blocks. `stats` may be null. Serves
  /// one-shot callers (constraint checks, runtime residues); the
  /// fixpoint engine and incremental maintenance cache their prepared
  /// plans and call ExecutePlanBatched directly.
  void Execute(const RelationSource& source, int delta_literal,
               const BatchSink& sink, EvalStats* stats) const;

  /// Plans against the current relation cardinalities of `source` and
  /// pre-builds (EnsureIndex) every hash index the plan will probe.
  /// This is the single point where evaluation mutates shared index
  /// state, so it must not run concurrently with ExecutePlanBatched on
  /// the same relations; call it from the coordinator between rounds.
  ///
  /// `partition` selects the morsel-partitionable plan shape the
  /// fixpoint engine uses when it runs more than one lane: the delta
  /// occurrence (when there is one) is forced to the front of the join
  /// order and marked as the plan's *driving* step; with no delta the
  /// plan's first positive step is marked instead, but only when it is
  /// a full scan (no probe columns) — a constant-bound first step is a
  /// point lookup, cheaper probed once than scanned in morsels, so such
  /// plans stay driverless and run as one unrestricted task. Morsels
  /// carve the driving relation's row range across workers, so no
  /// other literal is ever re-scanned per task (the E8 binding-blowup).
  /// The driving step is executed as a range scan, so its probe index
  /// is intentionally NOT built — a partitioned plan must be executed
  /// with a morsel range, and must never be replayed as a one-lane
  /// plan (the plan cache keys on `partition` for exactly this reason).
  /// The join order comes from CostPlanner::Enumerate over the positive
  /// relational literals (with the delta pinned first when partitioned);
  /// bodies outside its envelope keep BuildPlan's greedy pick. Filters,
  /// binding `=`, batch fusion and tail emission run on the chosen
  /// order either way.
  Result<PreparedPlan> Prepare(const RelationSource& source,
                               int delta_literal,
                               bool partition = false) const;

  /// Re-ensures every index `plan` probes still exists — a cheap no-op
  /// when they all do. The plan cache calls this on a hit: a cached
  /// plan's relations keep their indexes across rounds, but the
  /// semi-naive delta double-buffers swap relation objects, so a hit
  /// must still patch up an index missing on the freshly-swapped
  /// buffer. Same single-threaded coordinator contract as Prepare.
  void EnsurePlanIndexes(const PreparedPlan& plan,
                         const RelationSource& source,
                         int delta_literal) const;

  /// Executes a prepared plan block-at-a-time: every LiteralStep
  /// consumes a flat block of up to `batch_size` frames and emits the
  /// next block, and head tuples reach `sink` in TupleBuffer blocks.
  /// Emits one head tuple per satisfying body binding — the same
  /// multiset, and the same logical counters (bindings/comparisons),
  /// at every block size and with `vectorize` on or off. Strictly
  /// read-only on the relations of `source` (all probed indexes exist
  /// by the Prepare contract), so concurrent calls with distinct
  /// sinks/stats/scratch are thread-safe. `delta_literal` must be the
  /// value the plan was prepared with.
  ///
  /// `[morsel_begin, morsel_end)` restricts the plan's driving step
  /// (Prepare with `partition`) to that row range of its relation —
  /// one morsel of the multi-lane fixpoint engine. The union of the
  /// executions over a partition of the driving relation's rows equals
  /// the unrestricted execution (every derivation extends exactly one
  /// driving row), with the logical counters splitting exactly. The
  /// defaults leave unpartitioned plans untouched. `scratch`, when
  /// given, is reused working state — pass one per worker lane so a
  /// stream of morsel executions stops allocating once buffers reach
  /// steady-state capacity.
  ///
  /// `vectorize` enables the data-parallel step implementations:
  /// selection-vector comparison filters, batch-hashed negation
  /// membership, column-wise probe-key gathers, and columnar
  /// (ColumnView + SIMD kernel) scan checks. The derived blocks and
  /// logical counters are bit-identical either way — only the
  /// evaluation schedule changes. The default follows the build/env
  /// gate; the fixpoint engine passes ResolveSimdMode(options.simd).
  void ExecutePlanBatched(const PreparedPlan& plan,
                          const RelationSource& source, int delta_literal,
                          const BatchSink& sink, EvalStats* stats,
                          size_t batch_size = kDefaultBatchSize,
                          size_t morsel_begin = 0,
                          size_t morsel_end = kNoMorsel,
                          BatchScratch* scratch = nullptr,
                          bool vectorize = simd::KernelsEnabled()) const;

  /// The original-body index of the driving step a partitioned Prepare
  /// marked (the literal whose relation morsels carve up), or -1 for
  /// plans prepared without `partition`, for delta-less plans whose
  /// first positive step probes, and for bodies with no positive
  /// relational step.
  int DrivingLiteral(const PreparedPlan& plan) const;

  /// Human-readable description of `plan`: one line per step in
  /// execution order showing the literal, its access path (scan or
  /// probe[columns]), the delta marker and, for enumerated orders, the
  /// cost model's `est~` bindings. Backs the shell's `:plan`.
  std::string DescribePlan(const PreparedPlan& plan,
                           int delta_literal = -1) const;

  const Rule& rule() const { return rule_; }

  /// Number of variable slots in the execution frame.
  size_t slot_count() const { return slot_count_; }

 private:
  // How one term of a literal is fetched at run time.
  struct TermSpec {
    bool is_constant = false;
    Value constant = Term::Int(0);  // when is_constant
    uint32_t slot = 0;              // when !is_constant
    bool bound = false;  // statically known: bound before this literal
  };
  /// How one column of a positive relational step extends or filters a
  /// frame when a matching row comes back, precomputed at plan time so
  /// the batched join kernel is branch-light:
  ///  - kCheckConst: column must equal `constant` (scan path only;
  ///    probed columns are guaranteed equal by the index lookup)
  ///  - kCheckSlot:  column must equal the already-bound frame slot
  ///    (scan path only, same reason)
  ///  - kBind:       first occurrence of an unbound variable; writes
  ///    the row value into `slot`
  ///  - kCheckRepeat: later occurrence of a variable bound by a kBind
  ///    earlier in this same literal; compares the column against
  ///    `other_col`, the first occurrence's column in the same row
  struct ColumnAction {
    enum Kind : uint8_t { kCheckConst, kCheckSlot, kBind, kCheckRepeat };
    Kind kind = kBind;
    uint32_t col = 0;
    uint32_t slot = 0;
    uint32_t other_col = 0;  // kCheckRepeat: first occurrence's column
    Value constant = Term::Int(0);
  };
  /// A later non-binding relational step folded into a producing step's
  /// emit filter by the batch lowering (see Prepare). By the time the
  /// host step extends a frame, every argument of the fused literal is
  /// a constant, an already-bound frame slot, or a column the host
  /// binds from its matched row — so the whole step collapses to one
  /// membership test, and frames it rejects are never materialized into
  /// the next block. A fused positive check still counts one explored
  /// binding per match, as it would as a step of its own.
  struct FusedCheck {
    struct Source {
      enum Kind : uint8_t { kConst, kFrame, kRow };
      Kind kind = kConst;
      uint32_t idx = 0;               // frame slot (kFrame) / row column (kRow)
      Value constant = Term::Int(0);  // kConst
    };
    PredicateId pred{0, 0};
    bool negated = false;
    size_t original_index = 0;  // body position of the fused literal
    std::vector<Source> sources;  // one per column of the fused literal
  };
  struct LiteralStep {
    size_t original_index = 0;  // position in rule_.body()
    bool is_comparison = false;
    bool negated = false;
    // Relational:
    PredicateId pred{0, 0};
    std::vector<TermSpec> args;
    std::vector<uint32_t> probe_columns;  // columns with bound TermSpecs
    /// Frame-extension recipe for the batched kernel, split so each
    /// inner loop runs without dead branches: a candidate row is first
    /// validated (reading only the row and the input frame — nothing is
    /// written until it matches), then the surviving frame is copied
    /// once and `bind_actions` writes the fresh bindings.
    /// `probe_checks` holds only within-literal repeat checks (the
    /// probe guarantees every bound column); `scan_checks` holds every
    /// check (full-scan path has no index guarantees).
    std::vector<ColumnAction> bind_actions;
    std::vector<ColumnAction> probe_checks;
    std::vector<ColumnAction> scan_checks;
    /// Batch-only: membership checks fused into this step's emit filter
    /// from immediately-following non-binding relational steps.
    std::vector<FusedCheck> fused;
    // Comparison:
    ComparisonOp op = ComparisonOp::kEq;
    TermSpec lhs, rhs;
    bool eq_binds = false;  // `=` with exactly one unbound variable side
  };
  struct Plan {
    std::vector<LiteralStep> steps;
    /// Index into `steps` of the morsel-driving step (Prepare with
    /// `partition`), or -1. The driving step is always executed as a
    /// range scan over `[morsel_begin, morsel_end)` of its relation —
    /// its probe index is never built — so each morsel touches a
    /// disjoint row range and no other literal is re-scanned per task.
    int driving_step = -1;
    /// Steps the executor runs, as indices into `steps`: the planned
    /// order minus the pure-check steps FuseBatchChecks folded into an
    /// earlier host. `steps` keeps every literal, so DescribePlan can
    /// show the fused ones in place.
    std::vector<size_t> batch_steps;
    std::vector<TermSpec> head_specs;
    /// Batch-only tail emission: when the last batch step is a positive
    /// relational step, its extend loop projects head rows directly
    /// from (input frame, matched row) — the final (and largest) frame
    /// stream is never materialized into a block. One Source per head
    /// column, mirroring head_specs; `tail_emit` is false when the
    /// plan's shape disqualifies it (no batch steps, or a comparison /
    /// negated tail, which copy frames rather than extend them).
    std::vector<FusedCheck::Source> tail_head_sources;
    bool tail_emit = false;
    /// Widest probe key / negated membership row / head tuple the plan
    /// ever materializes into the shared scratch row.
    size_t max_row_width = 0;
    /// Enumerated plans: estimated bindings per ORIGINAL body literal
    /// over a whole (unrestricted) execution; -1 for literals without
    /// an estimate. Empty when the body fell outside the enumerator's
    /// envelope and the greedy order was kept. Drives DescribePlan's
    /// `est~` annotation.
    std::vector<double> est_rows;
  };

  /// A flat row-major block of execution frames (`rows * slot_count_`
  /// values). At every step boundary the set of bound slots is
  /// statically known (the planner's running bound set), so blocks
  /// carry no per-frame bound flags — unbound slots simply hold
  /// whatever the previous occupant left.
  struct FrameBlock {
    std::vector<Value> data;
    size_t rows = 0;

    void Clear() {
      data.clear();
      rows = 0;
    }
  };
  /// Per-step working state for one batched execution: the step's input
  /// block plus its probe scratch. Each step owns its scratch because a
  /// block flush recurses into deeper steps mid-iteration.
  struct StepScratch {
    FrameBlock input;
    std::vector<Value> keys;            // gathered probe keys, flat
    std::vector<size_t> key_hashes;     // ProbeBatch hash scratch
    std::vector<std::span<const RowId>> hit_spans;  // per-key matches
    std::vector<const Relation*> fused_rels;  // resolved per execution
    // Vectorized paths only: the scanned relation's columnar snapshot
    // plus the selection vectors of the column-at-a-time scan checks
    // (`base_sel` holds the frame-independent residue, `sel` the
    // per-frame refinement; comparisons/negation reuse `sel`).
    std::shared_ptr<const ColumnView> columns;
    std::vector<uint32_t> base_sel;
    std::vector<uint32_t> sel;
  };
  struct BatchContext {
    size_t batch_size = kDefaultBatchSize;
    std::vector<StepScratch> steps;
    std::vector<Value> row_scratch;  // negation rows, head rows
    TupleBuffer heads{0};
    size_t batches = 0;  // head blocks flushed to the sink
    // Driving-step row range (morsel); kNoMorsel = unrestricted.
    size_t morsel_begin = 0;
    size_t morsel_end = kNoMorsel;
    // Use the data-parallel step implementations (see
    // ExecutePlanBatched's `vectorize`).
    bool vectorize = true;
    // Logical counters, folded into EvalStats once at the end.
    size_t bindings = 0;
    size_t comparisons = 0;
  };

  RuleExecutor() : rule_("", Atom(SymbolId(0), {}), {}) {}

  /// Frame slot of variable `v`; binary search over the flat sorted
  /// slot table (rule bodies are small, so this beats a node-based map
  /// on the plan-construction path).
  uint32_t SlotFor(SymbolId v) const;

  /// Schedules the body. `size_of` estimates a literal's input
  /// cardinality for the greedy pick's tie-break (SIZE_MAX when
  /// unknown); Create passes nullptr, validating safety only.
  /// `force_first`, when >= 0, is an original-body index whose literal
  /// is scheduled as early as the safety/binding constraints allow —
  /// in practice first among the relational steps, since a positive
  /// literal needs no prior bindings. Partitioned Prepare uses it to
  /// rotate the delta occurrence to the front of the join order.
  /// `relational_order`, when given, replaces the greedy pick among the
  /// positive relational literals with that exact sequence of
  /// original-body indices (the cost enumerator's output); filters,
  /// negations and binding `=` still interleave at their earliest safe
  /// position either way.
  Result<Plan> BuildPlan(const std::function<size_t(size_t)>* size_of,
                         int force_first = -1,
                         const std::vector<size_t>* relational_order =
                             nullptr) const;

  /// Materializes every index `plan` will probe on the relations it
  /// will read (delta-aware). The one mutation point of shared storage
  /// during evaluation; see Prepare.
  void EnsureProbeIndexes(const Plan& plan, const RelationSource& source,
                          int delta_literal) const;

  /// Batch lowering pass (Prepare): folds each contiguous run of
  /// non-binding, non-delta relational steps into the closest preceding
  /// positive relational step's `fused` list and drops them from
  /// `batch_steps`. Runs break at comparisons, negated survivors and
  /// binding steps, so every comparison still sees exactly the frames
  /// of the planned order and the logical counters (bindings/
  /// comparisons) do not depend on the fusion.
  static void FuseBatchChecks(Plan* plan, int delta_literal);

  /// Batched engine: drains `ctx->steps[step_index].input` through the
  /// remaining steps, flushing intermediate blocks whenever they fill.
  void RunBatchFrom(const Plan& plan, const RelationSource& source,
                    int delta_literal, size_t step_index, BatchContext* ctx,
                    const BatchSink& sink) const;

  Rule rule_;
  /// Variable→slot table, sorted by symbol id. Slots are dense
  /// 0..slot_count_-1 (asserted in Create): frame blocks index by slot.
  std::vector<std::pair<SymbolId, uint32_t>> slots_;
  size_t slot_count_ = 0;
};

}  // namespace semopt

#endif  // SEMOPT_EVAL_RULE_EXECUTOR_H_
