#include "eval/rule_executor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "ast/rename.h"
#include "eval/builtins.h"
#include "eval/cost_planner.h"
#include "obs/trace.h"
#include "storage/column_view.h"
#include "storage/vector_kernels.h"
#include "util/string_util.h"

namespace semopt {

Result<RuleExecutor> RuleExecutor::Create(const Rule& rule) {
  RuleExecutor exec;
  exec.rule_ = rule;

  // Assign frame slots to variables in first-occurrence order
  // (CollectVariables deduplicates), then sort the table by symbol for
  // binary-search lookup.
  for (SymbolId v : CollectVariables(rule)) {
    exec.slots_.emplace_back(v, static_cast<uint32_t>(exec.slots_.size()));
  }
  exec.slot_count_ = exec.slots_.size();
  std::sort(exec.slots_.begin(), exec.slots_.end());
#ifndef NDEBUG
  // Micro-assert slot density: slots must be a permutation of
  // 0..slot_count-1 under strictly increasing symbols — frame blocks
  // index by slot, so a gap or collision would silently read another
  // variable's binding.
  {
    std::vector<bool> seen(exec.slot_count_, false);
    for (size_t i = 0; i < exec.slots_.size(); ++i) {
      if (i > 0) assert(exec.slots_[i - 1].first < exec.slots_[i].first);
      const uint32_t slot = exec.slots_[i].second;
      assert(slot < exec.slot_count_ && !seen[slot]);
      seen[slot] = true;
    }
  }
#endif

  // Validate safety by building the size-blind plan once.
  SEMOPT_RETURN_IF_ERROR(exec.BuildPlan(nullptr).status());
  return exec;
}

uint32_t RuleExecutor::SlotFor(SymbolId v) const {
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), v,
      [](const std::pair<SymbolId, uint32_t>& entry, SymbolId sym) {
        return entry.first < sym;
      });
  assert(it != slots_.end() && it->first == v);
  return it->second;
}

Result<RuleExecutor::Plan> RuleExecutor::BuildPlan(
    const std::function<size_t(size_t)>* size_of, int force_first,
    const std::vector<size_t>* relational_order) const {
  Plan plan;
  const std::vector<Literal>& body = rule_.body();
  // Cursor into `relational_order` (the cost enumerator's sequence of
  // positive relational literals); advances past already-scheduled
  // entries so the forced-rotation pick below composes with it.
  size_t order_cursor = 0;

  auto make_spec = [&](const Term& t,
                       const std::set<uint32_t>& bound) -> TermSpec {
    TermSpec spec;
    spec.is_constant = t.IsConstant();
    if (spec.is_constant) {
      spec.constant = t;
      spec.bound = true;
    } else {
      spec.slot = SlotFor(t.symbol());
      spec.bound = bound.count(spec.slot) > 0;
    }
    return spec;
  };

  std::set<uint32_t> bound;
  std::vector<bool> scheduled(body.size(), false);
  size_t remaining = body.size();

  // True if every variable of `lit` is in `bound` (constants trivially).
  auto all_vars_bound = [&](const Literal& lit) {
    for (const Term& t : lit.Terms()) {
      if (t.IsVariable() && bound.count(SlotFor(t.symbol())) == 0) {
        return false;
      }
    }
    return true;
  };

  auto schedule = [&](size_t i) {
    const Literal& lit = body[i];
    LiteralStep step;
    step.original_index = i;
    step.negated = lit.negated();
    step.is_comparison = lit.IsComparison();
    if (lit.IsComparison()) {
      step.op = lit.op();
      step.lhs = make_spec(lit.lhs(), bound);
      step.rhs = make_spec(lit.rhs(), bound);
      step.eq_binds = !lit.negated() && lit.op() == ComparisonOp::kEq &&
                      (!step.lhs.bound || !step.rhs.bound);
      if (step.eq_binds) {
        const TermSpec& unbound_side = step.lhs.bound ? step.rhs : step.lhs;
        bound.insert(unbound_side.slot);
      }
    } else {
      step.pred = lit.atom().pred_id();
      // Within-atom repeats: only *pre-bound* columns participate in
      // index probing; a repeated unbound variable binds at its first
      // column and is runtime-checked at later ones. The same
      // classification, frozen as ColumnActions, drives the batched
      // join kernel.
      std::set<uint32_t> bound_before = bound;
      // slot -> column of its first (binding) occurrence in this literal
      std::map<uint32_t, uint32_t> bound_in_literal;
      for (uint32_t col = 0; col < lit.atom().args().size(); ++col) {
        TermSpec spec = make_spec(lit.atom().arg(col), bound_before);
        if (spec.bound) step.probe_columns.push_back(col);
        ColumnAction action;
        action.col = col;
        if (spec.is_constant) {
          action.kind = ColumnAction::kCheckConst;
          action.constant = spec.constant;
          step.scan_checks.push_back(action);
        } else if (spec.bound) {
          action.kind = ColumnAction::kCheckSlot;
          action.slot = spec.slot;
          step.scan_checks.push_back(action);
        } else if (auto it = bound_in_literal.find(spec.slot);
                   it != bound_in_literal.end()) {
          action.kind = ColumnAction::kCheckRepeat;
          action.slot = spec.slot;
          action.other_col = it->second;
          step.scan_checks.push_back(action);
          step.probe_checks.push_back(action);
        } else {
          action.kind = ColumnAction::kBind;
          action.slot = spec.slot;
          bound_in_literal.emplace(spec.slot, col);
          step.bind_actions.push_back(action);
        }
        step.args.push_back(spec);
        if (!spec.is_constant) bound.insert(spec.slot);
      }
    }
    plan.steps.push_back(std::move(step));
    scheduled[i] = true;
    --remaining;
  };

  while (remaining > 0) {
    int pick = -1;
    // Priority 1: any fully-bound comparison or fully-bound negated
    // relational literal (cheap filters).
    for (size_t i = 0; i < body.size() && pick < 0; ++i) {
      if (scheduled[i]) continue;
      const Literal& lit = body[i];
      bool filter_ready =
          (lit.IsComparison() || lit.negated()) && all_vars_bound(lit);
      if (filter_ready) pick = static_cast<int>(i);
    }
    // Priority 2: a binding `=` literal with exactly one unbound side.
    for (size_t i = 0; i < body.size() && pick < 0; ++i) {
      if (scheduled[i]) continue;
      const Literal& lit = body[i];
      if (!lit.IsComparison() || lit.negated() ||
          lit.op() != ComparisonOp::kEq) {
        continue;
      }
      const Term& a = lit.lhs();
      const Term& b = lit.rhs();
      bool a_bound =
          a.IsConstant() || bound.count(SlotFor(a.symbol())) > 0;
      bool b_bound =
          b.IsConstant() || bound.count(SlotFor(b.symbol())) > 0;
      if (a_bound != b_bound) pick = static_cast<int>(i);
    }
    // Forced rotation (partitioned Prepare): schedule `force_first`
    // before any other relational literal. A positive literal needs no
    // prior bindings, so scheduling it first can never violate safety;
    // priorities 1–2 above still run first because they only schedule
    // filters and binding `=` steps, never a positive relational step.
    if (pick < 0 && force_first >= 0 &&
        !scheduled[static_cast<size_t>(force_first)]) {
      assert(body[static_cast<size_t>(force_first)].IsRelational() &&
             !body[static_cast<size_t>(force_first)].negated());
      pick = force_first;
    }
    // Explicit order (cost planner): the next unscheduled entry of
    // `relational_order` replaces the greedy pick. Positive relational
    // literals need no prior bindings, so any order of them is safe;
    // the priorities above still interleave filters and binding `=` at
    // their earliest position, same as under the greedy pick.
    if (pick < 0 && relational_order != nullptr) {
      while (order_cursor < relational_order->size() &&
             scheduled[(*relational_order)[order_cursor]]) {
        ++order_cursor;
      }
      if (order_cursor < relational_order->size()) {
        const size_t i = (*relational_order)[order_cursor++];
        assert(!body[i].IsComparison() && !body[i].negated());
        pick = static_cast<int>(i);
      }
    }
    // Priority 3 (bodies outside the enumerator's envelope): the
    // positive relational literal with the most statically-bound
    // argument positions; ties go to the literal whose relation is
    // currently smallest, then to body order.
    if (pick < 0) {
      int best_score = -1;
      size_t best_size = 0;
      for (size_t i = 0; i < body.size(); ++i) {
        if (scheduled[i]) continue;
        const Literal& lit = body[i];
        if (lit.IsComparison() || lit.negated()) continue;
        int score = 0;
        for (const Term& t : lit.atom().args()) {
          if (t.IsConstant() || bound.count(SlotFor(t.symbol())) > 0) {
            ++score;
          }
        }
        size_t size = size_of != nullptr ? (*size_of)(i) : SIZE_MAX;
        if (score > best_score ||
            (score == best_score && size < best_size)) {
          best_score = score;
          best_size = size;
          pick = static_cast<int>(i);
        }
      }
    }
    if (pick < 0) {
      return Status::FailedPrecondition(
          StrCat("rule ", rule_.ToString(),
                 " is unsafe: cannot order remaining body literals"));
    }
    schedule(static_cast<size_t>(pick));
  }

  // Head slots must all be bound after the full body.
  plan.head_specs.reserve(rule_.head().args().size());
  for (const Term& t : rule_.head().args()) {
    TermSpec spec = make_spec(t, bound);
    if (!spec.is_constant && !spec.bound) {
      return Status::FailedPrecondition(
          StrCat("rule ", rule_.ToString(), " is unsafe: head variable ",
                 t.name(), " is never bound"));
    }
    plan.head_specs.push_back(spec);
  }

  // Size the shared scratch row so an execution reserves it once.
  plan.max_row_width = plan.head_specs.size();
  for (const LiteralStep& step : plan.steps) {
    plan.max_row_width = std::max(plan.max_row_width, step.args.size());
  }
  // Identity batch order by default; Prepare's FuseBatchChecks pass
  // rewrites it once the delta occurrence is known.
  plan.batch_steps.resize(plan.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) plan.batch_steps[i] = i;
  return plan;
}

void RuleExecutor::FuseBatchChecks(Plan* plan, int delta_literal) {
  plan->batch_steps.clear();
  // Index into plan->steps of the positive relational step that can
  // currently absorb checks; -1 while blocked (before any positive
  // step, or after a comparison/negated survivor broke the run).
  int host = -1;
  for (size_t i = 0; i < plan->steps.size(); ++i) {
    LiteralStep& step = plan->steps[i];
    const bool relational = !step.is_comparison;
    const bool is_delta =
        relational && delta_literal >= 0 &&
        step.original_index == static_cast<size_t>(delta_literal);
    const bool pure_check =
        relational && !is_delta &&
        std::all_of(step.args.begin(), step.args.end(),
                    [](const TermSpec& s) { return s.is_constant || s.bound; });
    if (pure_check && host >= 0) {
      LiteralStep& h = plan->steps[static_cast<size_t>(host)];
      FusedCheck fc;
      fc.pred = step.pred;
      fc.negated = step.negated;
      fc.original_index = step.original_index;
      fc.sources.reserve(step.args.size());
      for (const TermSpec& spec : step.args) {
        FusedCheck::Source src;
        if (spec.is_constant) {
          src.kind = FusedCheck::Source::kConst;
          src.constant = spec.constant;
        } else {
          src.kind = FusedCheck::Source::kFrame;
          src.idx = spec.slot;
          for (const ColumnAction& a : h.bind_actions) {
            if (a.slot == spec.slot) {
              src.kind = FusedCheck::Source::kRow;
              src.idx = a.col;
              break;
            }
          }
        }
        fc.sources.push_back(std::move(src));
      }
      h.fused.push_back(std::move(fc));
      continue;  // fused away: not part of the batch order
    }
    plan->batch_steps.push_back(i);
    host = (relational && !step.negated) ? static_cast<int>(i) : -1;
  }

  // Tail emission: when the last batch step extends frames (positive
  // relational), project head rows straight out of its match loop —
  // every head column is a constant, a slot already in the input
  // frame, or a column that step binds from its matched row. The
  // final frame stream (the widest in the pipeline) is then never
  // materialized into a block at all.
  plan->tail_emit = false;
  plan->tail_head_sources.clear();
  if (!plan->batch_steps.empty()) {
    const LiteralStep& last = plan->steps[plan->batch_steps.back()];
    if (!last.is_comparison && !last.negated) {
      plan->tail_emit = true;
      plan->tail_head_sources.reserve(plan->head_specs.size());
      for (const TermSpec& spec : plan->head_specs) {
        FusedCheck::Source src;
        if (spec.is_constant) {
          src.kind = FusedCheck::Source::kConst;
          src.constant = spec.constant;
        } else {
          src.kind = FusedCheck::Source::kFrame;
          src.idx = spec.slot;
          for (const ColumnAction& a : last.bind_actions) {
            if (a.slot == spec.slot) {
              src.kind = FusedCheck::Source::kRow;
              src.idx = a.col;
              break;
            }
          }
        }
        plan->tail_head_sources.push_back(std::move(src));
      }
    }
  }
}

Result<RuleExecutor::PreparedPlan> RuleExecutor::Prepare(
    const RelationSource& source, int delta_literal, bool partition) const {
  // Separates plan/index time from join time in traces: "plan" spans
  // are coordinator work, rule-label spans are execution work.
  obs::TraceSpan span("plan");
  span.AddArg("body_literals", static_cast<int64_t>(rule_.body().size()));
  span.AddArg("delta_literal", delta_literal);
  if (partition) span.AddArg("partition", static_cast<int64_t>(1));
  // The relation a body literal reads, delta-aware: the delta
  // occurrence reads source.Delta, everything else source.Full.
  auto relation_of = [&](size_t i) -> const Relation* {
    const Literal& lit = rule_.body()[i];
    if (!lit.IsRelational()) return nullptr;
    const Relation* rel = nullptr;
    if (delta_literal >= 0 && i == static_cast<size_t>(delta_literal)) {
      rel = source.Delta(lit.atom().pred_id());
    }
    if (rel == nullptr) rel = source.Full(lit.atom().pred_id());
    return rel;
  };
  // Cardinality oracle: the current size of each body literal's input
  // relation (delta-aware).
  std::function<size_t(size_t)> size_of = [&](size_t i) -> size_t {
    if (!rule_.body()[i].IsRelational()) return SIZE_MAX;
    const Relation* rel = relation_of(i);
    return rel == nullptr ? 0 : rel->size();
  };
  // Partitioned plans rotate the delta occurrence to the front of the
  // join order so morsels carve the *outermost* scan: every other
  // literal is then probed per driving row, never re-scanned per task
  // (the E8 binding blowup).
  const int force_first =
      partition && delta_literal >= 0 ? delta_literal : -1;

  // Enumerate join orders of the positive relational literals from
  // current sizes and per-column distinct sketches. The chosen order
  // replaces only the greedy relational pick inside BuildPlan —
  // filters, binding `=`, the delta rotation, batch fusion and
  // driving-step marking keep their places, so every structural
  // invariant of the plan shape is preserved. A body with fewer than
  // two positive relational literals has no order to choose, so it
  // takes no sketches.
  std::optional<CostPlanner::Result> cost;
  const std::vector<Literal>& body = rule_.body();
  const auto is_positive_relational = [](const Literal& lit) {
    return !lit.IsComparison() && !lit.negated();
  };
  if (std::count_if(body.begin(), body.end(), is_positive_relational) >= 2) {
    std::vector<CostPlanner::LiteralInput> inputs;
    for (size_t i = 0; i < body.size(); ++i) {
      const Literal& lit = body[i];
      if (!is_positive_relational(lit)) continue;
      CostPlanner::LiteralInput in;
      in.original_index = i;
      const Relation* rel = relation_of(i);
      if (rel != nullptr) {
        in.size = rel->size();
        // Refreshed lazily under the relation's index lock, same
        // single-threaded planning moment as EnsureProbeIndexes below.
        in.stats = rel->EnsureStats();
      }
      in.slots.reserve(lit.atom().args().size());
      for (const Term& t : lit.atom().args()) {
        in.slots.push_back(t.IsConstant() ? CostPlanner::kConstantSlot
                                          : SlotFor(t.symbol()));
      }
      inputs.push_back(std::move(in));
    }
    cost = CostPlanner::Enumerate(inputs, force_first);
  }
  SEMOPT_ASSIGN_OR_RETURN(
      Plan plan, BuildPlan(&size_of, force_first,
                           cost.has_value() ? &cost->order : nullptr));
  if (cost.has_value()) {
    plan.est_rows.assign(body.size(), -1.0);
    for (size_t k = 0; k < cost->order.size(); ++k) {
      plan.est_rows[cost->order[k]] = cost->est_rows[k];
    }
  }
  FuseBatchChecks(&plan, delta_literal);
  if (partition) {
    // Mark the driving step: the first positive relational step — the
    // rotated delta occurrence when there is one (the rotation makes
    // the delta the first positive step by construction), else the
    // plan's natural outermost scan. With no delta, a first step that
    // probes (constants bind its columns) stays unmarked: carving it
    // would turn one index lookup into a full scan split in morsels.
    // Bodies with no positive relational step leave driving_step at -1
    // (nothing to carve).
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const LiteralStep& s = plan.steps[i];
      if (!s.is_comparison && !s.negated) {
        if (delta_literal >= 0 || s.probe_columns.empty()) {
          plan.driving_step = static_cast<int>(i);
        }
        break;
      }
    }
    assert(delta_literal < 0 || plan.driving_step < 0 ||
           plan.steps[static_cast<size_t>(plan.driving_step)]
                   .original_index == static_cast<size_t>(delta_literal));
  }
  EnsureProbeIndexes(plan, source, delta_literal);
  PreparedPlan prepared;
  prepared.plan_ = std::make_shared<const Plan>(std::move(plan));
  return prepared;
}

void RuleExecutor::EnsurePlanIndexes(const PreparedPlan& plan,
                                     const RelationSource& source,
                                     int delta_literal) const {
  EnsureProbeIndexes(*plan.plan_, source, delta_literal);
}

void RuleExecutor::EnsureProbeIndexes(const Plan& plan,
                                      const RelationSource& source,
                                      int delta_literal) const {
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const LiteralStep& step = plan.steps[i];
    if (step.is_comparison || step.negated) continue;
    if (step.probe_columns.empty()) continue;
    // The driving step of a partitioned plan is executed as a range
    // scan over its morsel, never probed — building its index would be
    // pure waste (and on the frozen delta, a scan of a ~batch_size
    // morsel beats a hash build it would amortize over one round).
    if (plan.driving_step == static_cast<int>(i)) continue;
    bool is_delta_step =
        delta_literal >= 0 &&
        step.original_index == static_cast<size_t>(delta_literal);
    const Relation* rel = nullptr;
    if (is_delta_step) rel = source.Delta(step.pred);
    if (rel == nullptr) rel = source.Full(step.pred);
    if (rel == nullptr) continue;
    if (rel->HasIndex(step.probe_columns)) continue;
    // RelationSource exposes relations as const because execution only
    // reads them; index pre-building is the one sanctioned mutation,
    // confined to this single-threaded planning moment.
    const_cast<Relation*>(rel)->EnsureIndex(step.probe_columns);
  }
}

int RuleExecutor::DrivingLiteral(const PreparedPlan& plan) const {
  const Plan& p = *plan.plan_;
  if (p.driving_step < 0) return -1;
  return static_cast<int>(
      p.steps[static_cast<size_t>(p.driving_step)].original_index);
}

std::string RuleExecutor::DescribePlan(const PreparedPlan& plan,
                                       int delta_literal) const {
  assert(plan.plan_ != nullptr);
  const Plan& p = *plan.plan_;
  // Steps absent from the batch order were fused into an earlier host
  // by the batch lowering; surface that in the description.
  std::vector<bool> in_batch(p.steps.size(), false);
  for (size_t i : p.batch_steps) in_batch[i] = true;
  std::ostringstream os;
  os << rule_.ToString() << "\n";
  size_t n = 0;
  for (size_t i = 0; i < p.steps.size(); ++i) {
    const LiteralStep& step = p.steps[i];
    const Literal& lit = rule_.body()[step.original_index];
    os << "  " << ++n << ". " << lit.ToString() << "  ";
    if (step.is_comparison) {
      os << (step.eq_binds ? "[bind]" : "[filter]");
    } else if (step.negated) {
      os << "[negation check]";
    } else if (step.probe_columns.empty()) {
      os << "[scan]";
    } else {
      os << "[probe cols";
      for (uint32_t c : step.probe_columns) os << " " << c;
      os << "]";
    }
    if (!step.is_comparison && delta_literal >= 0 &&
        step.original_index == static_cast<size_t>(delta_literal)) {
      os << " (delta)";
    }
    if (p.driving_step == static_cast<int>(i)) os << " (driving)";
    if (!in_batch[i]) os << " (batch: fused into prior step)";
    // Enumerated plans: the cost model's estimated bindings for the
    // step over one whole execution.
    if (step.original_index < p.est_rows.size() &&
        p.est_rows[step.original_index] >= 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " est~%.3g",
                    p.est_rows[step.original_index]);
      os << buf;
    }
    os << "\n";
  }
  if (p.steps.empty()) os << "  (empty body: emit head once)\n";
  std::string out = os.str();
  out.pop_back();
  return out;
}

void RuleExecutor::Execute(const RelationSource& source, int delta_literal,
                           const BatchSink& sink, EvalStats* stats) const {
  Result<PreparedPlan> plan = Prepare(source, delta_literal);
  if (!plan.ok()) return;  // Create() validated; cannot fail here
  ExecutePlanBatched(*plan, source, delta_literal, sink, stats);
}

RuleExecutor::BatchScratch::BatchScratch() = default;
RuleExecutor::BatchScratch::~BatchScratch() = default;
RuleExecutor::BatchScratch::BatchScratch(BatchScratch&&) noexcept = default;
RuleExecutor::BatchScratch& RuleExecutor::BatchScratch::operator=(
    BatchScratch&&) noexcept = default;

void RuleExecutor::ExecutePlanBatched(
    const PreparedPlan& plan, const RelationSource& source, int delta_literal,
    const BatchSink& sink, EvalStats* stats, size_t batch_size,
    size_t morsel_begin, size_t morsel_end, BatchScratch* scratch,
    bool vectorize) const {
  if (stats != nullptr) ++stats->rule_applications;
  const Plan& p = *plan.plan_;
  // Work out of the caller's scratch when given (morsel workers run
  // thousands of executions per round; the buffers below keep their
  // steady-state capacity across them), else out of a local context.
  BatchContext local;
  BatchContext* ctx = &local;
  if (scratch != nullptr) {
    if (scratch->ctx_ == nullptr) {
      scratch->ctx_ = std::make_unique<BatchContext>();
    }
    ctx = scratch->ctx_.get();
  }
  ctx->batch_size = std::max<size_t>(1, batch_size);
  ctx->steps.resize(p.batch_steps.size() + 1);
  for (StepScratch& s : ctx->steps) s.input.Clear();
  ctx->row_scratch.clear();
  ctx->row_scratch.reserve(p.max_row_width);
  ctx->heads.Reset(static_cast<uint32_t>(p.head_specs.size()));
  ctx->batches = 0;
  ctx->morsel_begin = morsel_begin;
  ctx->morsel_end = morsel_end;
  ctx->vectorize = vectorize;
  ctx->bindings = 0;
  ctx->comparisons = 0;
  // Seed the pipeline with a single all-unbound frame; the planner's
  // static bound set decides which slots each step may read.
  StepScratch& seed = ctx->steps[0];
  seed.input.data.assign(slot_count_, Term::Int(0));
  seed.input.rows = 1;
  RunBatchFrom(p, source, delta_literal, 0, ctx, sink);
  if (ctx->heads.size() > 0) {
    sink(ctx->heads);
    ++ctx->batches;
  }
  if (stats != nullptr) {
    stats->bindings_explored += ctx->bindings;
    stats->comparison_checks += ctx->comparisons;
    stats->batches += ctx->batches;
  }
}

void RuleExecutor::RunBatchFrom(const Plan& plan,
                                const RelationSource& source,
                                int delta_literal, size_t step_index,
                                BatchContext* ctx,
                                const BatchSink& sink) const {
  const FrameBlock& in = ctx->steps[step_index].input;
  const size_t width = slot_count_;
  const size_t n_in = in.rows;
  if (n_in == 0) return;
  const Value* in_data = in.data.data();

  if (step_index == plan.batch_steps.size()) {
    // Emit one head row per surviving frame, flushing full blocks to
    // the sink as they fill: one type-erased dispatch per block, not
    // per tuple.
    const Value* row = in_data;
    for (size_t f = 0; f < n_in; ++f, row += width) {
      ctx->row_scratch.clear();
      for (const TermSpec& spec : plan.head_specs) {
        ctx->row_scratch.push_back(spec.is_constant ? spec.constant
                                                    : row[spec.slot]);
      }
      ctx->heads.Append(RowRef(ctx->row_scratch));
      if (ctx->heads.size() >= ctx->batch_size) {
        sink(ctx->heads);
        ++ctx->batches;
        ctx->heads.clear();
      }
    }
    return;
  }

  const LiteralStep& step = plan.steps[plan.batch_steps[step_index]];
  const bool is_tail =
      plan.tail_emit && step_index + 1 == plan.batch_steps.size();
  FrameBlock* out = &ctx->steps[step_index + 1].input;
  if (!is_tail) out->data.reserve(ctx->batch_size * width);
  // Invariant: `out` is empty here; whenever it fills to batch_size it
  // is drained through the remaining steps and cleared, and the tail
  // is drained before returning.
  auto flush_out = [&]() {
    RunBatchFrom(plan, source, delta_literal, step_index + 1, ctx, sink);
    out->Clear();
  };
  auto copy_frame = [&](const Value* row) {
    out->data.insert(out->data.end(), row, row + width);
  };

  if (step.is_comparison) {
    if (step.eq_binds) {
      // At every step boundary the dynamically-bound slots are exactly
      // the planner's static bound set (each step's binding effect is
      // static), so the free side is always unbound here: copy the
      // frame and write the bound side's value into its slot.
      const TermSpec& bound_side = step.lhs.bound ? step.lhs : step.rhs;
      const TermSpec& free_side = step.lhs.bound ? step.rhs : step.lhs;
      const Value* row = in_data;
      for (size_t f = 0; f < n_in; ++f, row += width) {
        const size_t base = out->data.size();
        copy_frame(row);
        out->data[base + free_side.slot] =
            bound_side.is_constant ? bound_side.constant
                                   : row[bound_side.slot];
        if (++out->rows == ctx->batch_size) flush_out();
      }
    } else if (ctx->vectorize) {
      // Selection-vector form: one branch-light pass evaluates the
      // predicate into a survivor index list (unconditional store,
      // conditional advance — flat cost regardless of selectivity),
      // then a pure copy loop materializes survivors. Survivor order
      // and the comparisons counter match the fused loop exactly.
      std::vector<uint32_t>& sel = ctx->steps[step_index].sel;
      sel.resize(n_in);
      uint32_t* sel_data = sel.data();
      size_t n_sel = 0;
      const Value* row = in_data;
      for (size_t f = 0; f < n_in; ++f, row += width) {
        const Value& lhs =
            step.lhs.is_constant ? step.lhs.constant : row[step.lhs.slot];
        const Value& rhs =
            step.rhs.is_constant ? step.rhs.constant : row[step.rhs.slot];
        const bool holds =
            EvalComparisonOp(lhs, step.op, rhs) != step.negated;
        sel_data[n_sel] = static_cast<uint32_t>(f);
        n_sel += holds ? 1 : 0;
      }
      ctx->comparisons += n_in;
      for (size_t k = 0; k < n_sel; ++k) {
        copy_frame(in_data + static_cast<size_t>(sel_data[k]) * width);
        if (++out->rows == ctx->batch_size) flush_out();
      }
    } else {
      const Value* row = in_data;
      for (size_t f = 0; f < n_in; ++f, row += width) {
        ++ctx->comparisons;
        const Value& lhs =
            step.lhs.is_constant ? step.lhs.constant : row[step.lhs.slot];
        const Value& rhs =
            step.rhs.is_constant ? step.rhs.constant : row[step.rhs.slot];
        bool holds = EvalComparisonOp(lhs, step.op, rhs);
        if (step.negated) holds = !holds;
        if (holds) {
          copy_frame(row);
          if (++out->rows == ctx->batch_size) flush_out();
        }
      }
    }
    if (out->rows > 0) flush_out();
    return;
  }

  // Relational literal.
  const Relation* relation = nullptr;
  if (delta_literal >= 0 &&
      step.original_index == static_cast<size_t>(delta_literal)) {
    relation = source.Delta(step.pred);
  }
  if (relation == nullptr) relation = source.Full(step.pred);

  if (step.negated) {
    // All arguments statically bound: per-frame membership test over
    // the gathered row (no recursion between gather and use).
    const bool can_match = relation != nullptr && !relation->empty();
    if (ctx->vectorize && can_match) {
      // Batched form: gather every frame's membership row column-wise
      // into one flat block (per-column branch instead of per-value),
      // hash the whole block with the batch kernel, then run the dedup
      // probes with slot prefetch ahead of each lookup. Survivor set
      // and order are identical to the per-frame loop — same rows,
      // same hash recipe.
      StepScratch& scratch = ctx->steps[step_index];
      const size_t arity = step.args.size();
      scratch.keys.resize(n_in * arity, Term::Int(0));
      Value* keys = scratch.keys.data();
      for (size_t c = 0; c < arity; ++c) {
        const TermSpec& spec = step.args[c];
        if (spec.is_constant) {
          const Value v = spec.constant;
          for (size_t f = 0; f < n_in; ++f) keys[f * arity + c] = v;
        } else {
          const Value* src = in_data + spec.slot;
          for (size_t f = 0; f < n_in; ++f) {
            keys[f * arity + c] = src[f * width];
          }
        }
      }
      scratch.key_hashes.resize(n_in);
      size_t* hashes = scratch.key_hashes.data();
      HashValuesBatch(keys, arity, n_in, hashes);
      constexpr size_t kLookahead = 8;
      const size_t prefetch_now = std::min(kLookahead, n_in);
      for (size_t f = 0; f < prefetch_now; ++f) {
        relation->PrefetchInsert(hashes[f]);
      }
      const Value* row = in_data;
      for (size_t f = 0; f < n_in; ++f, row += width) {
        if (f + kLookahead < n_in) {
          relation->PrefetchInsert(hashes[f + kLookahead]);
        }
        if (!relation->Contains(RowRef(keys + f * arity, arity),
                                hashes[f])) {
          copy_frame(row);
          if (++out->rows == ctx->batch_size) flush_out();
        }
      }
      if (out->rows > 0) flush_out();
      return;
    }
    const Value* row = in_data;
    for (size_t f = 0; f < n_in; ++f, row += width) {
      bool present = false;
      if (can_match) {
        ctx->row_scratch.clear();
        for (const TermSpec& spec : step.args) {
          ctx->row_scratch.push_back(spec.is_constant ? spec.constant
                                                      : row[spec.slot]);
        }
        present = relation->Contains(RowRef(ctx->row_scratch));
      }
      if (!present) {
        copy_frame(row);
        if (++out->rows == ctx->batch_size) flush_out();
      }
    }
    if (out->rows > 0) flush_out();
    return;
  }

  if (relation == nullptr || relation->empty()) return;

  // Fused checks (non-binding steps folded into this step's emit
  // filter) always read the full relation: the delta occurrence is
  // never fused. Resolved once per block, probed per candidate.
  StepScratch& scratch = ctx->steps[step_index];
  const bool has_fused = !step.fused.empty();
  if (has_fused) {
    scratch.fused_rels.clear();
    for (const FusedCheck& fc : step.fused) {
      scratch.fused_rels.push_back(source.Full(fc.pred));
    }
  }
  auto fused_pass = [&](const Value* frame, const Value* row_vals) -> bool {
    for (size_t fi = 0; fi < step.fused.size(); ++fi) {
      const FusedCheck& fc = step.fused[fi];
      const Relation* rel = scratch.fused_rels[fi];
      bool present = false;
      if (rel != nullptr && !rel->empty()) {
        ctx->row_scratch.clear();
        for (const FusedCheck::Source& s : fc.sources) {
          ctx->row_scratch.push_back(
              s.kind == FusedCheck::Source::kConst   ? s.constant
              : s.kind == FusedCheck::Source::kFrame ? frame[s.idx]
                                                     : row_vals[s.idx]);
        }
        present = rel->Contains(RowRef(ctx->row_scratch));
      }
      if (fc.negated) {
        if (present) return false;
      } else {
        if (!present) return false;
        // Counted as if the literal ran as its own step: an all-bound
        // positive literal explores one binding when its (unique) match
        // exists.
        ++ctx->bindings;
      }
    }
    return true;
  };

  // Validate-then-copy: `passes` reads only the candidate row and the
  // input frame (no writes), so mismatching rows cost zero frame
  // traffic; `emit` then copies the surviving frame once and writes the
  // fresh bindings in a loop of pure kBind actions.
  auto passes = [&](const Value* frame, const Value* row_vals,
                    const std::vector<ColumnAction>& checks) -> bool {
    for (const ColumnAction& a : checks) {
      const Value& v = row_vals[a.col];
      switch (a.kind) {
        case ColumnAction::kCheckConst:
          if (!(v == a.constant)) return false;
          break;
        case ColumnAction::kCheckSlot:
          if (!(v == frame[a.slot])) return false;
          break;
        case ColumnAction::kCheckRepeat:
          if (!(v == row_vals[a.other_col])) return false;
          break;
        case ColumnAction::kBind:
          break;  // never in a check list
      }
    }
    return true;
  };
  auto emit = [&](const Value* frame, const Value* row_vals) {
    if (is_tail) {
      // Last step: project the head row directly — no frame block, no
      // terminal pass over it.
      ctx->row_scratch.clear();
      for (const FusedCheck::Source& s : plan.tail_head_sources) {
        ctx->row_scratch.push_back(
            s.kind == FusedCheck::Source::kConst   ? s.constant
            : s.kind == FusedCheck::Source::kFrame ? frame[s.idx]
                                                   : row_vals[s.idx]);
      }
      ctx->heads.Append(RowRef(ctx->row_scratch));
      if (ctx->heads.size() >= ctx->batch_size) {
        sink(ctx->heads);
        ++ctx->batches;
        ctx->heads.clear();
      }
      return;
    }
    const size_t base = out->data.size();
    copy_frame(frame);
    Value* out_row = out->data.data() + base;
    for (const ColumnAction& a : step.bind_actions) {
      out_row[a.slot] = row_vals[a.col];
    }
    if (++out->rows == ctx->batch_size) flush_out();
  };

  // The driving step of a partitioned plan always takes the scan path
  // (its probe index is never built) restricted to the context's
  // morsel row range; `scan_checks` re-validates what a probe would
  // have guaranteed, so the match set — and the `bindings` counter —
  // is identical to the unrestricted probe execution, just split across
  // morsels.
  const bool is_driving =
      plan.driving_step >= 0 &&
      plan.batch_steps[step_index] == static_cast<size_t>(plan.driving_step);

  if (!is_driving && !step.probe_columns.empty()) {
    // Phase 1: gather every frame's probe key into one flat buffer and
    // look them all up in a single ProbeBatch pass (contiguous hashing,
    // prefetched slot/bucket walks, one index resolution). Phase 2:
    // extend frames with their hits.
    const size_t key_width = step.probe_columns.size();
    if (ctx->vectorize) {
      // Column-wise gather: one tight strided copy (or constant fill)
      // per key column, hoisting the is_constant branch out of the
      // per-frame loop. Same key block as the row-wise gather.
      scratch.keys.resize(n_in * key_width, Term::Int(0));
      Value* keys = scratch.keys.data();
      for (size_t kc = 0; kc < key_width; ++kc) {
        const TermSpec& spec = step.args[step.probe_columns[kc]];
        if (spec.is_constant) {
          const Value v = spec.constant;
          for (size_t f = 0; f < n_in; ++f) keys[f * key_width + kc] = v;
        } else {
          const Value* src = in_data + spec.slot;
          for (size_t f = 0; f < n_in; ++f) {
            keys[f * key_width + kc] = src[f * width];
          }
        }
      }
    } else {
      scratch.keys.clear();
      scratch.keys.reserve(n_in * key_width);
      const Value* frame = in_data;
      for (size_t f = 0; f < n_in; ++f, frame += width) {
        for (uint32_t col : step.probe_columns) {
          const TermSpec& spec = step.args[col];
          scratch.keys.push_back(spec.is_constant ? spec.constant
                                                  : frame[spec.slot]);
        }
      }
    }
    relation->ProbeBatch(step.probe_columns, scratch.keys.data(), n_in,
                         &scratch.key_hashes, &scratch.hit_spans);
    const Value* row = in_data;
    const bool no_checks = step.probe_checks.empty();
    for (size_t f = 0; f < n_in; ++f, row += width) {
      const std::span<const RowId> hits = scratch.hit_spans[f];
      const size_t n_hits = hits.size();
      for (size_t i = 0; i < n_hits; ++i) {
        // Hit rows beyond the first are random ids the batch probe's
        // lookahead never touched; keep a short in-span prefetch ahead
        // of the validate/emit work.
        if (i + 2 < n_hits) {
          __builtin_prefetch(relation->row(hits[i + 2]).data(),
                             /*rw=*/0, /*locality=*/1);
        }
        const Value* row_vals = relation->row(hits[i]).data();
        if (no_checks || passes(row, row_vals, step.probe_checks)) {
          ++ctx->bindings;
          if (!has_fused || fused_pass(row, row_vals)) emit(row, row_vals);
        }
      }
    }
  } else {
    // Full scan: every check runs (no index guarantees). The driving
    // step clamps to its morsel; everything else scans whole.
    const size_t n_rows = relation->size();
    const size_t row_begin =
        is_driving ? std::min(ctx->morsel_begin, n_rows) : 0;
    const size_t row_end = is_driving ? std::min(ctx->morsel_end, n_rows)
                                      : n_rows;
    // Columnar threshold: below this many scanned rows the SoA
    // snapshot's build/refresh cost outweighs the lane-compare win.
    constexpr size_t kColumnarScanMinRows = 64;
    if (ctx->vectorize && !step.scan_checks.empty() &&
        row_end - row_begin >= kColumnarScanMinRows) {
      // Column-at-a-time scan: run each check as a flat selection /
      // refinement over the relation's columnar snapshot (SIMD lane
      // compares), touching row data only for the final survivors.
      // Frame-independent checks (constants, within-row repeats) are
      // evaluated once into `base_sel`; the frame-dependent (slot)
      // checks refine a per-frame copy. Selection vectors are
      // ascending, so survivors emit in the same order as the
      // row-at-a-time loop, and `bindings` counts the same rows.
      StepScratch& scan_scratch = ctx->steps[step_index];
      // Scratch outlives this plan (worker lanes reuse it across rules
      // and rounds), so never trust a cached view here: EnsureColumns
      // re-validates against the relation's own cache under its mutex
      // — a no-op lock when the snapshot is current.
      scan_scratch.columns = relation->EnsureColumns();
      const ColumnView& cols = *scan_scratch.columns;
      const uint32_t b = static_cast<uint32_t>(row_begin);
      const uint32_t e = static_cast<uint32_t>(row_end);
      std::vector<uint32_t>& base = scan_scratch.base_sel;
      base.clear();
      bool have_base = false;
      bool any_frame_dep = false;
      for (const ColumnAction& a : step.scan_checks) {
        if (a.kind == ColumnAction::kCheckSlot) {
          any_frame_dep = true;
          continue;
        }
        if (!have_base) {
          if (a.kind == ColumnAction::kCheckConst) {
            cols.SelectEq(a.col, a.constant, b, e, &base);
          } else {  // kCheckRepeat
            cols.SelectEqColumns(a.col, a.other_col, b, e, &base);
          }
          have_base = true;
        } else if (a.kind == ColumnAction::kCheckConst) {
          cols.RefineEq(a.col, a.constant, &base);
        } else {
          cols.RefineEqColumns(a.col, a.other_col, &base);
        }
      }
      std::vector<uint32_t>& sel = scan_scratch.sel;
      const Value* row = in_data;
      for (size_t f = 0; f < n_in; ++f, row += width) {
        const std::vector<uint32_t>* active = &base;
        if (any_frame_dep) {
          bool started = have_base;
          if (started) sel = base;
          for (const ColumnAction& a : step.scan_checks) {
            if (a.kind != ColumnAction::kCheckSlot) continue;
            if (!started) {
              sel.clear();
              cols.SelectEq(a.col, row[a.slot], b, e, &sel);
              started = true;
            } else {
              cols.RefineEq(a.col, row[a.slot], &sel);
            }
          }
          active = &sel;
        }
        const uint32_t* hits = active->data();
        const size_t n_hits = active->size();
        for (size_t i = 0; i < n_hits; ++i) {
          if (i + 4 < n_hits) {
            __builtin_prefetch(relation->row(hits[i + 4]).data(),
                               /*rw=*/0, /*locality=*/1);
          }
          const Value* row_vals = relation->row(hits[i]).data();
          ++ctx->bindings;
          if (!has_fused || fused_pass(row, row_vals)) emit(row, row_vals);
        }
      }
    } else {
      const Value* row = in_data;
      for (size_t f = 0; f < n_in; ++f, row += width) {
        for (size_t i = row_begin; i < row_end; ++i) {
          const Value* row_vals = relation->row(i).data();
          if (passes(row, row_vals, step.scan_checks)) {
            ++ctx->bindings;
              if (!has_fused || fused_pass(row, row_vals)) emit(row, row_vals);
          }
        }
      }
    }
  }
  if (out->rows > 0) flush_out();
}

}  // namespace semopt
